let encode solver net ~bind =
  Tseitin.encode solver net ~shared:(fun id ->
      let nd = Netlist.node net id in
      if nd.Netlist.kind = Netlist.Input then bind nd.Netlist.name else None)

let add solver c = ignore (Solver.add_clause solver c)

let differ solver pairs =
  let diffs =
    List.map
      (fun (a, b) ->
        let o = Lit.pos (Solver.new_var solver) and x = Lit.pos a
        and y = Lit.pos b in
        add solver [ Lit.negate o; x; y ];
        add solver [ Lit.negate o; Lit.negate x; Lit.negate y ];
        add solver [ o; Lit.negate x; y ];
        add solver [ o; x; Lit.negate y ];
        o)
      pairs
  in
  add solver diffs

let x_inputs net ~key_inputs =
  let is_key = Hashtbl.create 16 in
  List.iter (fun k -> Hashtbl.replace is_key k ()) key_inputs;
  List.filter_map
    (fun pi ->
      let name = (Netlist.node net pi).Netlist.name in
      if Hashtbl.mem is_key name then None else Some (name, pi))
    (Netlist.inputs net)

let validate ~who net ~key_inputs =
  if Netlist.ffs net <> [] then
    invalid_arg (who ^ ": locked netlist must be combinational");
  List.iter
    (fun k ->
      match Netlist.find net k with
      | Some id when (Netlist.node net id).Netlist.kind = Netlist.Input -> ()
      | Some _ -> invalid_arg (who ^ ": " ^ k ^ " is not an input")
      | None -> invalid_arg (who ^ ": no key input " ^ k))
    key_inputs

type t = {
  net : Netlist.t;
  key_inputs : string list;
  x_pis : (string * int) list;
  solver : Solver.t;
  x : (string, int) Hashtbl.t;
  k1 : (string, int) Hashtbl.t;
  k2 : (string, int) Hashtbl.t;
}

let create ~who net ~key_inputs =
  validate ~who net ~key_inputs;
  let solver = Solver.create () in
  let x_pis = x_inputs net ~key_inputs in
  let x = Hashtbl.create 32 in
  List.iter (fun (n, _) -> Hashtbl.replace x n (Solver.new_var solver)) x_pis;
  let k1 = Hashtbl.create 16 and k2 = Hashtbl.create 16 in
  List.iter
    (fun k ->
      Hashtbl.replace k1 k (Solver.new_var solver);
      Hashtbl.replace k2 k (Solver.new_var solver))
    key_inputs;
  let copy keys =
    encode solver net ~bind:(fun n ->
        match Hashtbl.find_opt keys n with
        | Some v -> Some v
        | None -> Hashtbl.find_opt x n)
  in
  let vars1 = copy k1 in
  let vars2 = copy k2 in
  differ solver
    (List.map (fun (_, d) -> (vars1.(d), vars2.(d))) (Netlist.outputs net));
  { net; key_inputs; x_pis; solver; x; k1; k2 }

let solver m = m.solver

let dip m =
  List.map (fun (n, _) -> (n, Solver.value m.solver (Hashtbl.find m.x n))) m.x_pis

(* One copy of the netlist under key vector [keys], with fresh X variables
   pinned to [dip] and outputs pinned to the oracle's answer [outs]. *)
let pinned_copy solver m keys dip outs =
  let vars = encode solver m.net ~bind:(Hashtbl.find_opt keys) in
  List.iter
    (fun (name, pi) -> add solver [ Lit.make vars.(pi) (List.assoc name dip) ])
    m.x_pis;
  List.iter
    (fun (po, d) -> add solver [ Lit.make vars.(d) (List.assoc po outs) ])
    (Netlist.outputs m.net)

let constrain m dip outs =
  pinned_copy m.solver m m.k1 dip outs;
  pinned_copy m.solver m m.k2 dip outs

module Keys = struct
  type miter = t

  type t = {
    m : miter;
    solver : Solver.t;
    vars : (string, int) Hashtbl.t;
    mutable pending : ((string * bool) list * (string * bool) list) list;
  }

  let create m =
    let solver = Solver.create () in
    let vars = Hashtbl.create 16 in
    List.iter (fun k -> Hashtbl.replace vars k (Solver.new_var solver)) m.key_inputs;
    { m; solver; vars; pending = [] }

  let constrain s dip outs = s.pending <- (dip, outs) :: s.pending

  let model s =
    List.iter
      (fun (dip, outs) -> pinned_copy s.solver s.m s.vars dip outs)
      (List.rev s.pending);
    s.pending <- [];
    match Solver.solve s.solver with
    | Solver.Sat ->
      Some
        (List.map
           (fun k -> (k, Solver.value s.solver (Hashtbl.find s.vars k)))
           s.m.key_inputs)
    | Solver.Unsat -> None
end
