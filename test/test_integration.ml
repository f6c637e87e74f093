(* End-to-end tests: the experiment drivers that regenerate the paper's
   tables and figures, and a full lock → verify → attack pipeline. *)

let tc = Alcotest.test_case

(* ----- Table I ----- *)

let test_table1_s5378 () =
  (* fully deterministic: pin the calibrated values so regressions in the
     generator, STA or feasibility rules are caught *)
  let spec = Option.get (Benchmarks.find_spec "s5378") in
  let row = Experiments.table1_row spec in
  Alcotest.(check int) "cells" 775 row.Experiments.t1_cells;
  Alcotest.(check int) "ffs" 163 row.Experiments.t1_ffs;
  Alcotest.(check bool) "coverage in the paper's ballpark" true
    (abs_float (row.Experiments.t1_cov_pct -. 63.80) < 15.0);
  Alcotest.(check bool) "avail4 <= avail" true
    (row.Experiments.t1_avail4 <= row.Experiments.t1_avail)

let test_table1_full () =
  let rows = Experiments.table1 () in
  Alcotest.(check int) "seven benchmarks" 7 (List.length rows);
  let avg =
    List.fold_left (fun a r -> a +. r.Experiments.t1_cov_pct) 0.0 rows /. 7.0
  in
  (* the paper's average coverage is 64.07% *)
  Alcotest.(check bool)
    (Printf.sprintf "average coverage %.2f ~ 64.07" avg)
    true
    (abs_float (avg -. 64.07) < 8.0);
  (* rendering works and mentions every benchmark *)
  let rendered = Report.table1 rows in
  List.iter
    (fun spec ->
      Alcotest.(check bool) spec.Benchmarks.bname true
        (Astring_contains.contains rendered spec.Benchmarks.bname))
    Benchmarks.specs

(* ----- Table II ----- *)

let test_table2_s5378 () =
  let spec = Option.get (Benchmarks.find_spec "s5378") in
  let row = Experiments.table2_row spec in
  let cell4 = (Option.get row.Experiments.t2_gk4).Experiments.oh_cell_pct in
  let cell8 = (Option.get row.Experiments.t2_gk8).Experiments.oh_cell_pct in
  let cell16 = (Option.get row.Experiments.t2_gk16).Experiments.oh_cell_pct in
  let hybrid = (Option.get row.Experiments.t2_hybrid).Experiments.oh_cell_pct in
  (* the paper's shape: overhead grows with GK count, roughly doubling,
     and the hybrid at 32 key-inputs is much cheaper than 16 GKs *)
  Alcotest.(check bool) "monotone" true (cell4 < cell8 && cell8 < cell16);
  Alcotest.(check bool) "roughly doubles" true
    (cell16 /. cell8 > 1.5 && cell16 /. cell8 < 2.5);
  Alcotest.(check bool) "hybrid beats 16 GKs" true (hybrid < cell16);
  Alcotest.(check bool) "4 GKs near the paper's 10%" true
    (cell4 > 5.0 && cell4 < 20.0)

(* ----- SAT-attack table ----- *)

let test_sat_attack_row () =
  let spec = Option.get (Benchmarks.find_spec "s15850") in
  let row = Experiments.sat_attack_on_gk spec ~n_gks:8 in
  Alcotest.(check bool) "unsat at first" true row.Experiments.at_unsat_at_first;
  Alcotest.(check int) "no DIPs" 0 row.Experiments.at_iterations;
  (* after KEYGEN stripping each GK exposes a single key pin *)
  Alcotest.(check int) "8 key inputs" 8 row.Experiments.at_keys;
  Alcotest.(check bool) "recovered key wrong on chip" true
    (row.Experiments.at_key_mismatches > 0)

(* ----- Figures ----- *)

let test_fig4_content () =
  let s = Experiments.fig4 () in
  Alcotest.(check bool) "mentions glitch lengths" true
    (Astring_contains.contains s "3090 ps"
    && Astring_contains.contains s "2090 ps")

let test_fig7_content () =
  let s = Experiments.fig7 () in
  List.iter
    (fun needle ->
      Alcotest.(check bool) needle true (Astring_contains.contains s needle))
    [ "on-level"; "glitch-early"; "glitch-late"; "glitchless"; "violations=0" ]

let test_fig9_content () =
  let s = Experiments.fig9 () in
  Alcotest.(check bool) "eq5 window" true
    (Astring_contains.contains s "(6000, 7000)");
  Alcotest.(check bool) "eq6 window" true
    (Astring_contains.contains s "(1000, 4000)")

let test_fig6_content () =
  let s = Experiments.fig6 () in
  Alcotest.(check bool) "four rows" true
    (Astring_contains.contains s "(0,0) const0"
    && Astring_contains.contains s "(1,1) const1")

(* ----- Ablations ----- *)

let test_ablation_glitch_monotone () =
  let rows = Experiments.ablation_glitch_length ~lengths:[ 1000; 2000 ] () in
  match rows with
  | [ r1000; r2000 ] ->
    List.iter2
      (fun (b1, a1) (b2, a2) ->
        Alcotest.(check string) "same bench" b1 b2;
        Alcotest.(check bool)
          (Printf.sprintf "%s: longer glitch, fewer sites" b1)
          true (a2 <= a1))
      r1000.Experiments.ag_avail r2000.Experiments.ag_avail
  | _ -> Alcotest.fail "two rows expected"

let test_ablation_profile_order () =
  let rows = Experiments.ablation_delay_profile () in
  match rows with
  | [ bufs; std; custom ] ->
    Alcotest.(check bool) "buffers-only worst" true
      (bufs.Experiments.ap_cell_oh_pct > std.Experiments.ap_cell_oh_pct);
    Alcotest.(check bool) "custom best (cells)" true
      (custom.Experiments.ap_cell_oh_pct < std.Experiments.ap_cell_oh_pct);
    Alcotest.(check bool) "delay-cell counts ordered" true
      (bufs.Experiments.ap_delay_cells > std.Experiments.ap_delay_cells
      && std.Experiments.ap_delay_cells > custom.Experiments.ap_delay_cells)
  | _ -> Alcotest.fail "three profiles expected"

(* ----- Corruptibility ----- *)

let test_corruptibility () =
  let rows = Experiments.corruptibility ~bench:"s5378" ~n_gks:8 () in
  let find label =
    List.find
      (fun r ->
        String.length r.Experiments.co_key >= String.length label
        && String.sub r.Experiments.co_key 0 (String.length label) = label)
      rows
  in
  let correct = find "correct key" in
  Alcotest.(check (float 0.001)) "correct key clean" 0.0
    correct.Experiments.co_po_mismatch_pct;
  Alcotest.(check int) "correct key no violations" 0
    correct.Experiments.co_violations;
  let const0 = find "all-zeros" in
  Alcotest.(check bool) "constants corrupt" true
    (const0.Experiments.co_po_mismatch_pct > 0.0);
  let mistimed = find "opposite branch" in
  Alcotest.(check bool) "mistimed transitions violate timing" true
    (mistimed.Experiments.co_violations > 0)

(* ----- Full pipeline on one design ----- *)

let test_full_pipeline () =
  let net = Benchmarks.tiny () in
  let clock_ps = Sta.clock_for net ~margin:4.5 in
  (* 1. lock *)
  let d = Insertion.lock ~seed:3 net ~clock_ps ~n_gks:3 in
  Netlist.validate d.Insertion.lnet;
  (* 2. verify with the correct key on the timing simulator *)
  let cycles = 12 in
  let cfg = { Timing_sim.clock_ps; cycles } in
  let stim n = Stimuli.edge_aligned ~seed:8 n ~clock_ps ~cycles in
  let base =
    Timing_sim.run ~drive:(stim net) ~captures_from:(fun _ -> 1) net cfg
  in
  let ok =
    Timing_sim.run
      ~drive:
        (Insertion.timing_drive ~other:(stim d.Insertion.lnet) d
           d.Insertion.correct_key)
      ~captures_from:(Insertion.capture_policy d) d.Insertion.lnet cfg
  in
  let mism, total = Stimuli.po_agreement ~skip:0 base ok in
  Alcotest.(check int) "correct key transparent" 0 mism;
  Alcotest.(check bool) "compared something" true (total > 0);
  (* 3. P&R sanity *)
  let pl = Placer.place d.Insertion.lnet in
  Alcotest.(check bool) "placeable" true (pl.Placer.hpwl_um > 0.0);
  (* 4. the attacker's pipeline fails *)
  let stripped, keys = Insertion.strip_keygens d in
  let locked_comb, _ = Combinationalize.run stripped in
  let oracle_comb, _ = Combinationalize.run net in
  let oracle = Sat_attack.oracle_of_netlist oracle_comb in
  (match
     (Sat_attack.run ~locked:locked_comb ~key_inputs:keys ~oracle ())
       .Sat_attack.status
   with
  | Sat_attack.Unsat_at_first_iteration _ -> ()
  | Sat_attack.Key_recovered _ | Sat_attack.Budget_exhausted ->
    Alcotest.fail "SAT attack should be starved");
  (* 5. bench I/O round trip of the locked design *)
  let txt = Bench_format.print d.Insertion.lnet in
  let back = Bench_format.parse ~name:"locked" txt in
  (* the printer adds one alias buffer per output whose name is not a
     node name; everything else must round-trip *)
  let cells = (Stats.of_netlist d.Insertion.lnet).Stats.cells in
  let cells' = (Stats.of_netlist back).Stats.cells in
  Alcotest.(check bool) "locked round trip" true
    (cells' >= cells
    && cells' <= cells + List.length (Netlist.outputs d.Insertion.lnet))

(* ----- Golden output -----

   Digests of the generated netlists and of the rendered Tables I/II,
   recorded before the one-pass FF grouping and the linear generator
   liveness pass replaced their quadratic predecessors.  Any change to a
   netlist byte or a table cell shows up here. *)

let digest s = Digest.to_hex (Digest.string s)

let golden_specs =
  [
    ("s1238", "bf56144de032fd58dbce37badb69c15f");
    ("s5378", "f3b36c0328f6ad73561d5ed991e2e75f");
    ("s9234", "1345608cab9cf67a8c5e44db5c280052");
    ("s13207", "40f0f4b8f09e60c2ebf132637f0aa19b");
    ("s15850", "7bd7633929ddb320a22e2aba26e79e42");
    ("s38417", "33b357c36756f29c7aaed1fe6f3d5109");
    ("s38584", "512249588ec622fa158c786527615d29");
  ]

(* (seed, n_pi, n_po, n_ff, n_gates, depth, ff_depth_bias) *)
let golden_configs =
  [
    ((1, 4, 3, 5, 30, 4, 0.3), "245fd43c32b12a111e1e8132f92310e5");
    ((2, 8, 70, 12, 120, 6, 0.5), "041859fd285104489d91502a44bd9c4d");
    ((3, 16, 130, 40, 400, 9, 0.2), "d49c868ff50b694ed40318e3ede345a1");
    ((4, 2, 1, 0, 10, 1, 0.0), "9ec87093eccde987d3c3f2a246774f2f");
    ((5, 5, 64, 64, 200, 12, 0.8), "eeb112aac253f0b3581cb214572ef4eb");
    ((6, 3, 2, 1, 15, 2, 1.0), "d0ed9637c3ca6ec9055f5b4bf3bc275e");
    ((7, 10, 20, 20, 300, 20, 0.4), "e08a034dc384aac7bba222afeb570ffd");
    ((8, 1, 63, 3, 50, 3, 0.6), "936d153c6e3063f21dcfbecafe6fb858");
    ((9, 6, 6, 100, 500, 15, 0.1), "b5f5561e055f84bfd784a853d51feb3a");
    ((10, 12, 127, 30, 250, 8, 0.7), "bb9552ef8f0a891f708e6cb1eabbaccf");
  ]

let test_golden_netlists () =
  List.iter
    (fun (name, want) ->
      Alcotest.(check string) name want
        (digest (Bench_format.print (Benchmarks.by_name name))))
    golden_specs;
  Alcotest.(check string) "tiny" "cdac20f7c984636eee92d41f89ad73bf"
    (digest (Bench_format.print (Benchmarks.tiny ())));
  List.iter
    (fun ((seed, n_pi, n_po, n_ff, n_gates, depth, ff_depth_bias), want) ->
      let net =
        Generator.generate
          {
            Generator.gen_name = Printf.sprintf "gold%d" seed;
            seed;
            n_pi;
            n_po;
            n_ff;
            n_gates;
            depth;
            ff_depth_bias;
          }
      in
      Alcotest.(check string) (Printf.sprintf "config seed %d" seed) want
        (digest (Bench_format.print net)))
    golden_configs

let test_golden_tables () =
  Alcotest.(check string) "Table I" "38313364ef5e7239dd9e0d510b2f3534"
    (digest (Report.table1 (Experiments.table1 ())));
  Alcotest.(check string) "Table II" "fa9c20cc04e0bf55d768b0a733bad4c4"
    (digest (Report.table2 (Experiments.table2 ())));
  Alcotest.(check string) "Table II buffers" "5ddd5beadf8e112a7cd2cddca7db7028"
    (digest (Report.table2 (Experiments.table2 ~profile:`Buffers_only ())))

let suites =
  [
    ( "integration.tables",
      [
        tc "table1 s5378" `Slow test_table1_s5378;
        tc "table1 full" `Slow test_table1_full;
        tc "table2 s5378 shape" `Slow test_table2_s5378;
        tc "sat-attack row" `Slow test_sat_attack_row;
      ] );
    ( "integration.golden",
      [
        tc "generated netlists" `Quick test_golden_netlists;
        tc "tables I/II" `Slow test_golden_tables;
      ] );
    ( "integration.figures",
      [
        tc "fig4" `Quick test_fig4_content;
        tc "fig6" `Quick test_fig6_content;
        tc "fig7" `Quick test_fig7_content;
        tc "fig9" `Quick test_fig9_content;
      ] );
    ( "integration.ablations",
      [
        tc "glitch length monotone" `Slow test_ablation_glitch_monotone;
        tc "profile ordering" `Slow test_ablation_profile_order;
      ] );
    ("integration.corruptibility", [ tc "key classes" `Slow test_corruptibility ]);
    ("integration.pipeline", [ tc "lock/verify/attack" `Quick test_full_pipeline ]);
  ]
