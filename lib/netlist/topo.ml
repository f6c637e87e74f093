let levels = Netlist.levels

let depth t =
  let lv = levels t in
  let at id = if id >= 0 then max 0 lv.(id) else 0 in
  let from_pos =
    List.fold_left (fun acc (_, d) -> max acc (at d)) 0 (Netlist.outputs t)
  in
  List.fold_left
    (fun acc ff -> max acc (at (Netlist.node t ff).fanins.(0)))
    from_pos (Netlist.ffs t)

(* Generic forward reachability: which primary outputs does each node reach?
   [cross_ff] decides whether a flip-flop propagates its D reachability to
   its Q output. *)
let reach_outputs t ~cross_ff start =
  let n = Netlist.num_nodes t in
  let fanouts = Netlist.fanout_table t in
  let seen = Array.make n false in
  let queue = Queue.create () in
  Queue.push start queue;
  seen.(start) <- true;
  while not (Queue.is_empty queue) do
    let id = Queue.pop queue in
    List.iter
      (fun (consumer, _pin) ->
        let c = Netlist.node t consumer in
        let propagate =
          match c.Netlist.kind with
          | Netlist.Ff -> cross_ff
          | Netlist.Gate _ | Netlist.Lut _ -> true
          | Netlist.Input | Netlist.Const _ | Netlist.Dead -> false
        in
        if propagate && not seen.(consumer) then begin
          seen.(consumer) <- true;
          Queue.push consumer queue
        end)
      fanouts.(id)
  done;
  List.filter_map
    (fun (po_name, driver) -> if seen.(driver) then Some po_name else None)
    (Netlist.outputs t)

let output_cone t id = reach_outputs t ~cross_ff:true id

let comb_output_cone t id = reach_outputs t ~cross_ff:false id

(* One marking pass from every root at once; the scan over the marks
   yields the union in id order. *)
let fanin_cones t roots =
  let n = Netlist.num_nodes t in
  let seen = Bytes.make n '\000' in
  let stack = Stack.create () in
  let visit id =
    if Bytes.get seen id = '\000' then begin
      Bytes.set seen id '\001';
      Stack.push id stack
    end
  in
  List.iter visit roots;
  while not (Stack.is_empty stack) do
    let nd = Netlist.node t (Stack.pop stack) in
    if Netlist.is_comb nd then Array.iter visit nd.fanins
  done;
  let acc = ref [] in
  for id = n - 1 downto 0 do
    if Bytes.get seen id <> '\000' then acc := id :: !acc
  done;
  !acc

let fanin_cone t id = fanin_cones t [ id ]

let m_ff_groups_computed = Obs.Metrics.counter "topo.ff_groups_computed"

(* One reverse pass over the combinational order.  [reach] holds, per node,
   a bitset of the primary outputs it reaches combinationally ([w] words of
   [Sys.int_size] bits each): the POs it drives plus the sets of its
   Gate/Lut consumers, which the reverse order has already finished.  A
   flip-flop's set is its own PO bits plus its combinational consumers'
   sets -- exactly {!comb_output_cone}, for all flip-flops in
   O(edges x w). *)
let compute_ff_groups t =
  let pos = Array.of_list (Netlist.outputs t) in
  let bits = Sys.int_size in
  let w = (Array.length pos + bits - 1) / bits in
  let reach = Array.make (Netlist.num_nodes t * w) 0 in
  let word j = j / bits and bit j = 1 lsl (j mod bits) in
  Array.iteri
    (fun j (_, d) ->
      let k = (d * w) + word j in
      reach.(k) <- reach.(k) lor bit j)
    pos;
  let fanouts = Netlist.fanout_table t in
  let absorb id =
    List.iter
      (fun (c, _pin) ->
        if Netlist.is_comb (Netlist.node t c) then
          for k = 0 to w - 1 do
            reach.((id * w) + k) <- reach.((id * w) + k) lor reach.((c * w) + k)
          done)
      fanouts.(id)
  in
  let topo = Netlist.comb_topo_array t in
  for i = Array.length topo - 1 downto 0 do
    absorb topo.(i)
  done;
  (* (name, word, bit) of every PO, sorted by name, so each signature
     comes out already sorted *)
  let by_name = Array.mapi (fun j (name, _) -> (name, word j, bit j)) pos in
  Array.sort (fun (a, _, _) (b, _, _) -> String.compare a b) by_name;
  (* [buckets] maps a signature to its members, newest first, and gets
     its keys in the order their first flip-flop appears, so it folds
     exactly like a table updated once per flip-flop.  [by_set] hands
     flip-flops with the same set the same member list, so each distinct
     set builds and hashes its signature string once. *)
  let buckets = Hashtbl.create 16 and by_set = Hashtbl.create 64 in
  let buf = Buffer.create 256 in
  let signature set =
    Buffer.clear buf;
    let first = ref true in
    Array.iter
      (fun (name, k, b) ->
        if set.(k) land b <> 0 then begin
          if not !first then Buffer.add_char buf '\x00';
          first := false;
          Buffer.add_string buf name
        end)
      by_name;
    Buffer.contents buf
  in
  let members set =
    match Hashtbl.find_opt by_set set with
    | Some m -> m
    | None ->
      let signature = signature set in
      let m =
        match Hashtbl.find_opt buckets signature with
        | Some m -> m
        | None ->
          let m = ref [] in
          Hashtbl.add buckets signature m;
          m
      in
      Hashtbl.add by_set set m;
      m
  in
  List.iter
    (fun ff ->
      absorb ff;
      let m = members (Array.sub reach (ff * w) w) in
      m := ff :: !m)
    (Netlist.ffs t);
  Hashtbl.fold (fun _ m acc -> List.rev !m :: acc) buckets []
  |> List.sort (fun a b -> compare (List.length b) (List.length a))

(* Memoized per netlist generation (Netlist.cached_ff_groups): a Table II
   row groups its source netlist once for Hybrid's pick and the three
   GK insertions.  The span is emitted on hits too, flagged by [memo]. *)
let group_ffs_by_cone t =
  let cached = Netlist.cached_ff_groups t in
  Obs.Trace.with_span
    ~args:
      [
        ("netlist", Cjson.Str (Netlist.name t));
        ("memo", Cjson.Str (if Option.is_none cached then "miss" else "hit"));
      ]
    "topo.ff_groups"
  @@ fun () ->
  match cached with
  | Some groups -> groups
  | None ->
    let groups = compute_ff_groups t in
    Obs.Metrics.incr m_ff_groups_computed;
    Netlist.cache_ff_groups t groups;
    groups
