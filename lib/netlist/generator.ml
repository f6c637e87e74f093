

type config = {
  gen_name : string;
  seed : int;
  n_pi : int;
  n_po : int;
  n_ff : int;
  n_gates : int;
  depth : int;
  ff_depth_bias : float;
}

(* Gate-function mix roughly matching a NAND-heavy mapped design. *)
let pick_fn rng =
  let r = Random.State.int rng 100 in
  if r < 28 then (Cell.Nand, 2)
  else if r < 42 then (Cell.Nor, 2)
  else if r < 52 then (Cell.And, 2)
  else if r < 60 then (Cell.Or, 2)
  else if r < 66 then (Cell.Xor, 2)
  else if r < 70 then (Cell.Xnor, 2)
  else if r < 84 then (Cell.Not, 1)
  else if r < 87 then (Cell.Buf, 1)
  else if r < 93 then (Cell.Nand, 3)
  else if r < 97 then (Cell.Nor, 3)
  else (Cell.And, 4)

(* Triangular-ish stage distribution: mapped circuits have more gates near
   the inputs than near the deep end. *)
let pick_stage rng depth =
  let a = Random.State.int rng depth and b = Random.State.int rng depth in
  1 + min a b

let generate cfg =
  Obs.Trace.with_span ~args:[ ("netlist", Cjson.Str cfg.gen_name) ]
    "netlist.generate"
  @@ fun () ->
  if cfg.n_pi < 1 || cfg.n_gates < 1 || cfg.depth < 1 then
    invalid_arg "Generator.generate: need at least one input, gate and stage";
  let rng = Random.State.make [| cfg.seed; 0x6b67 |] in
  let net = Netlist.create cfg.gen_name in
  let sources = Vec.create () in
  for i = 0 to cfg.n_pi - 1 do
    Vec.push sources (Netlist.add_input net (Printf.sprintf "pi%d" i))
  done;
  (* Flip-flops are created up front with a placeholder D (patched below) so
     their Q outputs can feed the combinational cloud. *)
  let placeholder = if cfg.n_ff > 0 then Netlist.add_const net false else -1 in
  let ff_ids =
    Array.init cfg.n_ff (fun i ->
        let id = Netlist.add_ff net ~name:(Printf.sprintf "ff%d" i) placeholder in
        Vec.push sources id;
        id)
  in
  (* by_stage.(0) = sources; by_stage.(s) = gates at stage s *)
  let by_stage = Array.make (cfg.depth + 1) [] in
  by_stage.(0) <- Vec.to_list sources;
  let stage_counts = Array.make (cfg.depth + 1) 0 in
  stage_counts.(0) <- Vec.length sources;
  let pick_from_below rng stage =
    (* Prefer the immediately shallower stage so the depth target is
       actually reached; fall back to any shallower node. *)
    let s =
      if stage > 1 && Random.State.int rng 100 < 82 then stage - 1
      else Random.State.int rng stage
    in
    let s = if stage_counts.(s) = 0 then 0 else s in
    let bucket = by_stage.(s) in
    List.nth bucket (Random.State.int rng (List.length bucket))
  in
  let unused_sources = Queue.create () in
  Vec.iter (fun id -> Queue.push id unused_sources) sources;
  (* Draw every gate's stage up front and create shallow stages first, so
     a deep gate always finds its stage-(s-1) bucket populated and the
     depth target is actually realized. *)
  let plan =
    Array.init cfg.n_gates (fun _ ->
        let fn, arity = pick_fn rng in
        (pick_stage rng cfg.depth, fn, arity))
  in
  Array.sort (fun (a, _, _) (b, _, _) -> compare a b) plan;
  for g = 0 to cfg.n_gates - 1 do
    let stage, fn, arity = plan.(g) in
    let fanins =
      Array.init arity (fun pin ->
          (* Drain the pool of not-yet-used sources so no input or
             flip-flop output dangles; multi-input gates keep their other
             pins on the stage structure so depth is unaffected. *)
          if pin = 0 && arity > 1 && not (Queue.is_empty unused_sources) then
            Queue.pop unused_sources
          else pick_from_below rng stage)
    in
    (* Binary XOR/XNOR and wide gates must not repeat a fanin or the gate
       collapses to a constant/buffer; retry the duplicates. *)
    let rec dedup tries =
      let seen = Hashtbl.create 4 in
      let dup = ref false in
      Array.iteri
        (fun pin f ->
          if Hashtbl.mem seen f then begin
            dup := true;
            if tries < 8 then fanins.(pin) <- pick_from_below rng stage
          end
          else Hashtbl.replace seen f ())
        fanins;
      if !dup && tries < 8 then dedup (tries + 1)
    in
    if arity > 1 then dedup 0;
    let id = Netlist.add_gate net ~name:(Printf.sprintf "g%d" g) fn fanins in
    by_stage.(stage) <- id :: by_stage.(stage);
    stage_counts.(stage) <- stage_counts.(stage) + 1
  done;
  (* Sample a node at a stage drawn from [lo..hi] (clamped to non-empty). *)
  let sample_at_depth frac =
    let target = int_of_float (frac *. float_of_int cfg.depth) in
    let target = max 1 (min cfg.depth target) in
    let rec find s step =
      if s >= 1 && s <= cfg.depth && stage_counts.(s) > 0 then s
      else if step > cfg.depth then 0
      else
        let next = if step mod 2 = 0 then s + step else s - step in
        find next (step + 1)
    in
    let s = find target 1 in
    let bucket = by_stage.(s) in
    List.nth bucket (Random.State.int rng (List.length bucket))
  in
  (* Patch flip-flop D pins: depth of the sampled driver controls the FF's
     arrival time, hence its GK feasibility. *)
  Array.iter
    (fun ff ->
      let u = Random.State.float rng 1.0 in
      let frac = u +. (cfg.ff_depth_bias *. (1.0 -. u)) in
      let d = sample_at_depth frac in
      Netlist.set_fanin net ~node_id:ff ~pin:0 ~driver:d)
    ff_ids;
  (* Primary outputs sample the deeper half of the cloud. *)
  for i = 0 to cfg.n_po - 1 do
    let d = sample_at_depth (0.5 +. Random.State.float rng 0.5) in
    Netlist.add_output net (Printf.sprintf "po%d" i) d
  done;
  (* Liveness pass: mapped designs carry no dead logic, and dead gates
     would hide locking corruption from the outputs.  Attach every
     fanout-free gate as an extra fanin of a deeper variadic gate
     (deepest stages first, so one sweep converges); gates at the deep
     end with no consumer left become extra primary outputs. *)
  let widenable id =
    match (Netlist.node net id).Netlist.kind with
    | Netlist.Gate (Cell.And | Cell.Or | Cell.Nand | Cell.Nor | Cell.Xor | Cell.Xnor)
      -> Array.length (Netlist.node net id).Netlist.fanins < 4
    | Netlist.Gate (Cell.Not | Cell.Buf | Cell.Mux)
    | Netlist.Input | Netlist.Const _ | Netlist.Lut _ | Netlist.Ff
    | Netlist.Dead -> false
  in
  let extra_pos = ref 0 in
  let fanout_count = Array.make (Netlist.num_nodes net) 0 in
  let recount () =
    Array.fill fanout_count 0 (Array.length fanout_count) 0;
    Array.iteri
      (fun id uses -> fanout_count.(id) <- List.length uses)
      (Netlist.fanout_table net);
    List.iter
      (fun (_, d) -> fanout_count.(d) <- fanout_count.(d) + 1)
      (Netlist.outputs net)
  in
  recount ();
  (* Widenable gates per stage: a fanout-free gate draws among the deeper
     stages' total and walks to its pick, in stage order.  Widening only
     ever removes a gate from the set (at 4 fanins). *)
  let n_widenable =
    Array.map (fun ids -> List.length (List.filter widenable ids)) by_stage
  in
  let rec nth_widenable r = function
    | [] -> assert false
    | id :: rest when widenable id ->
      if r = 0 then id else nth_widenable (r - 1) rest
    | _ :: rest -> nth_widenable r rest
  in
  for s = cfg.depth downto 1 do
    List.iter
      (fun id ->
        if fanout_count.(id) = 0 then begin
          (* Only strictly deeper consumers are safe: two same-stage dead
             gates could otherwise adopt each other and form a cycle.
             Deep-end gates with no consumer left become extra POs. *)
          let total = ref 0 in
          for s' = s + 1 to cfg.depth do
            total := !total + n_widenable.(s')
          done;
          if !total = 0 then begin
            incr extra_pos;
            Netlist.add_output net (Printf.sprintf "pox%d" !extra_pos) id
          end
          else begin
            (* the r-th widenable gate of stages s+1..depth, in stage
               order and [by_stage] order within a stage *)
            let r = ref (Random.State.int rng !total) and s' = ref (s + 1) in
            while !r >= n_widenable.(!s') do
              r := !r - n_widenable.(!s');
              incr s'
            done;
            let c = nth_widenable !r by_stage.(!s') in
            Netlist.widen_gate net ~node_id:c ~extra_driver:id;
            if not (widenable c) then
              n_widenable.(!s') <- n_widenable.(!s') - 1
          end;
          fanout_count.(id) <- 1
        end)
      by_stage.(s)
  done;
  Netlist.validate net;
  net
