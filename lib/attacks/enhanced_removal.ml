type located_gk = {
  mux : int;
  key_net : int;
  x : int;
  branch_nodes : int list;
}

(* Follow a pure buffer/delay chain upstream; returns the chain's source
   and the nodes traversed. *)
let rec chase_buffers net id acc =
  let nd = Netlist.node net id in
  match nd.Netlist.kind with
  | Netlist.Gate Cell.Buf -> chase_buffers net nd.Netlist.fanins.(0) (id :: acc)
  | Netlist.Gate _ | Netlist.Lut _ | Netlist.Input | Netlist.Const _
  | Netlist.Ff | Netlist.Dead -> (id, acc)

let locate net =
  let found = ref [] in
  for id = 0 to Netlist.num_nodes net - 1 do
    let nd = Netlist.node net id in
    match nd.Netlist.kind with
    | Netlist.Gate Cell.Mux ->
      let sel = nd.Netlist.fanins.(0) in
      let upper = Netlist.node net nd.Netlist.fanins.(1) in
      let lower = Netlist.node net nd.Netlist.fanins.(2) in
      let branch node =
        (* An XNOR/XOR whose second input chases back to [sel]. *)
        match node.Netlist.kind with
        | Netlist.Gate (Cell.Xor | Cell.Xnor)
          when Array.length node.Netlist.fanins = 2 ->
          let a = node.Netlist.fanins.(0) and b = node.Netlist.fanins.(1) in
          let try_order x kd =
            let src, chain = chase_buffers net kd [] in
            if src = sel then Some (x, chain) else None
          in
          (match try_order a b with Some r -> Some r | None -> try_order b a)
        | Netlist.Gate _ | Netlist.Lut _ | Netlist.Input | Netlist.Const _
        | Netlist.Ff | Netlist.Dead -> None
      in
      (match (branch upper, branch lower) with
      | Some (x1, chain1), Some (x2, chain2) when x1 = x2 ->
        let kinds a =
          match (Netlist.node net a).Netlist.kind with
          | Netlist.Gate fn -> fn
          | Netlist.Input | Netlist.Const _ | Netlist.Lut _ | Netlist.Ff
          | Netlist.Dead -> Cell.Buf
        in
        let fns = (kinds upper.Netlist.id, kinds lower.Netlist.id) in
        if
          fns = (Cell.Xnor, Cell.Xor) || fns = (Cell.Xor, Cell.Xnor)
        then
          found :=
            {
              mux = id;
              key_net = sel;
              x = x1;
              branch_nodes =
                (upper.Netlist.id :: chain1) @ (lower.Netlist.id :: chain2);
            }
            :: !found
      | _, _ -> ())
    | Netlist.Input | Netlist.Const _ | Netlist.Gate _ | Netlist.Lut _
    | Netlist.Ff | Netlist.Dead -> ()
  done;
  List.rev !found

type remodelled = { net : Netlist.t; new_key_inputs : string list }

let remodel src located =
  let net = Netlist.copy src in
  let names =
    List.mapi
      (fun i gk ->
        let name = Printf.sprintf "erk%d" i in
        let k = Netlist.add_input net name in
        let repl =
          Netlist.add_gate net ~name:(Printf.sprintf "erk%d_gate" i) Cell.Xor
            [| gk.x; k |]
        in
        Netlist.replace_uses net ~old_id:gk.mux ~new_id:repl;
        Netlist.kill net gk.mux;
        (* The branches may be shared with nothing else; sweep what
           dangles. *)
        name)
      located
  in
  let swept, _ = Synth.optimize net in
  { net = swept; new_key_inputs = names }

let exec ~budget ~key_inputs src ~oracle () =
  let rm = remodel src (locate src) in
  (* Original key inputs that survive the remodelling are still keys, not
     X inputs to present to the chip. *)
  let kept =
    List.filter
      (fun k ->
        match Netlist.find rm.net k with
        | Some id -> (Netlist.node rm.net id).Netlist.kind = Netlist.Input
        | None -> false)
      key_inputs
  in
  let rm = { rm with new_key_inputs = rm.new_key_inputs @ kept } in
  let outcome =
    Sat_attack.exec ~budget ~locked:rm.net ~key_inputs:rm.new_key_inputs
      ~oracle ()
  in
  (rm, outcome)

let attack ?(max_iterations = 4096) ~key_inputs src ~oracle =
  exec
    ~budget:(Budget.create ~max_iterations ())
    ~key_inputs src
    ~oracle:(Oracle.of_fn oracle)
    ()

let withheld_search_space_log2 ~n_gks ~lut_inputs =
  float_of_int n_gks *. (2.0 ** float_of_int lut_inputs)
