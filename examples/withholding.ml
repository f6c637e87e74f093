(* Withholding (Sec. V-D, Fig. 10): the enhanced removal attack locates GK
   structures by pattern matching and remodels them as plain key-gates —
   unless the GK is absorbed into a withheld LUT, which hides its netlist
   and explodes the attacker's modelling space.

   Run with: dune exec examples/withholding.exe *)

let () =
  let net = Benchmarks.tiny () in
  let clock_ps = Sta.clock_for net ~margin:4.5 in
  let design = Insertion.lock ~seed:3 net ~clock_ps ~n_gks:2 in
  let stripped, gk_keys = Insertion.strip_keygens design in
  let locked_comb, _ = Combinationalize.run stripped in
  let oracle_comb, _ = Combinationalize.run net in
  let oracle = Sat_attack.oracle_of_netlist ~partial:true oracle_comb in

  (* --- bare GKs: the enhanced removal attack works --- *)
  let located = Enhanced_removal.locate locked_comb in
  Format.printf "bare GKs: structural locator finds %d GK(s)@." (List.length located);
  let remodelled, outcome =
    Enhanced_removal.attack ~key_inputs:gk_keys locked_comb ~oracle
  in
  (match outcome.Sat_attack.status with
  | Sat_attack.Key_recovered k ->
    Format.printf
      "after remodelling each GK as XOR(x, k): SAT recovers %s in %d DIPs;@.\
       the decrypted netlist matches the chip on all %d/64 samples@."
      (Key.to_string k) outcome.Sat_attack.iterations
      (64
      - Sat_attack.verify_key ~locked:remodelled.Enhanced_removal.net
          ~key_inputs:remodelled.Enhanced_removal.new_key_inputs ~oracle k)
  | Sat_attack.Unsat_at_first_iteration _ | Sat_attack.Budget_exhausted ->
    Format.printf "remodelled attack failed@.");

  (* --- GKs hidden in withheld LUTs: the locator goes blind --- *)
  let hidden = Netlist.copy locked_comb in
  List.iter
    (fun gk ->
      let interior =
        List.filter (fun id -> id <> gk.Enhanced_removal.mux)
          gk.Enhanced_removal.branch_nodes
      in
      match Withhold.absorb hidden ~root:gk.Enhanced_removal.mux ~interior with
      | absorbed ->
        Format.printf "absorbed GK %d into a %d-input withheld LUT@."
          gk.Enhanced_removal.mux
          (List.length absorbed.Withhold.lut_inputs)
      | exception Invalid_argument msg ->
        Format.printf "could not absorb one GK: %s@." msg)
    located;
  let relocated = Enhanced_removal.locate hidden in
  Format.printf "after withholding: locator finds %d GK(s)@." (List.length relocated);

  (* What the attacker faces instead: every withheld k-input LUT can hold
     any of 2^(2^k) functions. *)
  List.iter
    (fun k ->
      Format.printf
        "modelling one withheld %d-input LUT: %.3g candidate functions@." k
        (Withhold.candidate_functions k))
    [ 2; 3; 4; 5; 6 ];
  Format.printf
    "with %d GKs hidden in 4-input LUTs the key space grows by 2^%.0f@."
    (List.length located)
    (Enhanced_removal.withheld_search_space_log2
       ~n_gks:(List.length located) ~lut_inputs:4);

  (* Fig. 10(b): reuse an AND gate from the encrypted path inside the LUT.
     We emulate it on a fresh little netlist. *)
  let demo = Netlist.create "fig10" in
  let a = Netlist.add_input demo "a" in
  let b = Netlist.add_input demo "b" in
  let key = Netlist.add_input demo "key" in
  let andg = Netlist.add_gate demo ~name:"and0" Cell.And [| a; b |] in
  let gk =
    Gk.insert demo ~profile:`Custom ~name:"gk" ~x:andg ~key
      ~variant:Gk.Invert_on_const ~d_path_a_ps:910 ~d_path_b_ps:910 ()
  in
  Netlist.add_output demo "y" gk.Gk.out;
  let interior = andg :: List.filter (fun id -> id <> gk.Gk.out) gk.Gk.nodes in
  let absorbed = Withhold.absorb demo ~root:gk.Gk.out ~interior in
  Format.printf
    "Fig. 10: GK + reused AND absorbed into one %d-input LUT (%d nodes hidden)@."
    (List.length absorbed.Withhold.lut_inputs)
    (List.length absorbed.Withhold.hidden_nodes)
