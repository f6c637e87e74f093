type t = {
  design : Insertion.design;
  xor_key_inputs : string list;
  all_key_inputs : string list;
  all_correct_key : Key.assignment;
}

let lock ?(seed = 1) ?(profile = `Standard) ?(l_glitch_ps = 1000) net ~clock_ps
    ~n_gks ~n_xors =
  let rng = Random.State.make [| seed; 0x4859 |] in
  let baseline = Stats.of_netlist net in
  (* Choose the GK flip-flops first so the XOR key-gates can target their
     D cones. *)
  let sites = Insertion.available_sites net ~clock_ps ~l_glitch_ps in
  if List.length sites < n_gks then
    invalid_arg "Hybrid.lock: not enough GK sites";
  let gk_ffs =
    Ff_select.pick net
      ~among:(List.map (fun s -> s.Insertion.si_ff) sites)
      ~n:n_gks ~seed
  in
  (* Candidate XOR wires: shallow gates in the chosen flip-flops' fanin
     cones, so the extra XOR delay rarely pushes an endpoint out of its
     window. *)
  let levels = Topo.levels net in
  let cone_wires =
    Topo.fanin_cones net
      (List.map (fun ff -> (Netlist.node net ff).Netlist.fanins.(0)) gk_ffs)
    |> List.filter (fun id ->
           Netlist.is_comb (Netlist.node net id) && levels.(id) <= 3)
  in
  let cone_wires =
    if List.length cone_wires >= n_xors then cone_wires
    else
      (* Fall back to any shallow wire when the cones are too small. *)
      List.sort_uniq compare
        (cone_wires
        @ List.filter
            (fun id -> Netlist.is_comb (Netlist.node net id) && levels.(id) <= 3)
            (Locked.gate_wires net))
  in
  let wires = Locked.pick_distinct rng n_xors cone_wires in
  let xor_locked = Xor_lock.lock_on ~seed ~name_prefix:"hxk" net ~wires in
  (* Now place the GKs on the XOR-locked netlist.  [Insertion.lock] picks
     its flip-flops afresh there, so they need not be [gk_ffs]: see the
     known deviation in hybrid.mli. *)
  let design =
    Insertion.lock ~seed ~profile ~l_glitch_ps ~prefer_ff4_groups:true
      xor_locked.Locked.net ~clock_ps ~n_gks
  in
  let design = { design with Insertion.baseline } in
  {
    design;
    xor_key_inputs = xor_locked.Locked.key_inputs;
    all_key_inputs = design.Insertion.key_inputs @ xor_locked.Locked.key_inputs;
    all_correct_key =
      design.Insertion.correct_key @ xor_locked.Locked.correct_key;
  }

let overhead t = Insertion.overhead t.design
