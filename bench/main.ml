(* Regenerates every table and figure of the paper, the ablations of
   DESIGN.md, and finishes with bechamel micro-benchmarks of the core
   machinery.  `dune exec bench/main.exe` prints everything; pass
   `--quick` to skip the slowest section, the attack comparison.  Tables
   I and II always run in full (together about a second). *)

let section title =
  Printf.printf "\n%s\n%s\n\n" title (String.make (String.length title) '=')

let quick = Array.exists (fun a -> a = "--quick") Sys.argv

let tables () =
  section "Table I — available flip-flops for GK encryption";
  print_string (Report.table1 (Experiments.table1 ()));
  section "Table II — cell/area overhead of GK encryption";
  print_string (Report.table2 (Experiments.table2 ()));
  section "SAT attack on GK-encrypted benchmarks (Sec. VI)";
  print_string (Report.sat_attack (Experiments.sat_attack_table ()));
  if not quick then begin
    section "Attack comparison across schemes (Secs. I & V)";
    print_string (Report.comparison (Experiments.attack_comparison ()))
  end

let figures () =
  section "Figure reproductions";
  print_string (Experiments.fig4 ());
  print_newline ();
  print_string (Experiments.fig6 ());
  print_newline ();
  print_string (Experiments.fig7 ());
  print_newline ();
  print_string (Experiments.fig9 ())

let scan_section () =
  section "Scan attack (Sec. VI BIST discussion)";
  let net = Benchmarks.tiny () in
  let clock = Sta.clock_for net ~margin:4.5 in
  let d = Insertion.lock ~seed:3 net ~clock_ps:clock ~n_gks:2 in
  let stripped, _ = Insertion.strip_keygens d in
  let stripped_comb, _ = Combinationalize.run stripped in
  let oracle_comb, _ = Combinationalize.run net in
  let oracle = Sat_attack.oracle_of_netlist ~partial:true oracle_comb in
  let verdicts = Scan_attack.run ~stripped_comb ~oracle () in
  let show tag vs decrypted =
    Printf.printf "%-28s located=%d decided=%d decrypted=%s\n" tag
      (List.length vs)
      (List.length
         (List.filter (fun v -> v.Scan_attack.v_behaviour <> `Unknown) vs))
      decrypted
  in
  show "GK-only (tiny, 2 GKs)" verdicts
    (match Scan_attack.decrypt ~stripped_comb verdicts with
    | Some _ -> "yes (no SAT needed)"
    | None -> "no");
  let spec = List.nth Benchmarks.specs 1 in
  let big = Benchmarks.load spec in
  let bclock = Sta.clock_for big ~margin:spec.Benchmarks.clk_margin in
  let h = Hybrid.lock ~seed:4 big ~clock_ps:bclock ~n_gks:4 ~n_xors:8 in
  let hstripped, _ = Insertion.strip_keygens h.Hybrid.design in
  let hcomb, _ = Combinationalize.run hstripped in
  let horacle_comb, _ = Combinationalize.run big in
  let horacle = Sat_attack.oracle_of_netlist ~partial:true horacle_comb in
  let hv =
    Scan_attack.run ~unknown:h.Hybrid.xor_key_inputs ~stripped_comb:hcomb
      ~oracle:horacle ()
  in
  show "hybrid 4GK+8XOR (s5378)" hv
    (match Scan_attack.decrypt ~stripped_comb:hcomb hv with
    | Some _ -> "yes"
    | None -> "NO (verdicts blinded)")

let extended_attacks () =
  section "Extended attack zoo (no-scan sequential SAT, AppSAT, sensitization)";
  let net = Benchmarks.tiny () in
  let clock = Sta.clock_for net ~margin:4.5 in
  let d = Insertion.lock ~seed:3 net ~clock_ps:clock ~n_gks:2 in
  let stripped, gk_keys = Insertion.strip_keygens d in
  let oracle_comb, _ = Combinationalize.run net in
  let oracle = Sat_attack.oracle_of_netlist oracle_comb in
  (* sequential SAT (unrolled, no scan access) *)
  let xor_seq = Xor_lock.lock ~seed:2 net ~n_keys:5 in
  let sxor =
    Seq_attack.run ~k:4 ~locked:xor_seq.Locked.net
      ~key_inputs:xor_seq.Locked.key_inputs
      ~oracle_step:(Seq_attack.oracle_of_netlist net) ()
  in
  let sgk =
    Seq_attack.run ~k:4 ~locked:stripped ~key_inputs:gk_keys
      ~oracle_step:(Seq_attack.oracle_of_netlist net) ()
  in
  let status o =
    match o.Seq_attack.sat.Sat_attack.status with
    | Sat_attack.Key_recovered _ ->
      Printf.sprintf "key recovered in %d DIPs" o.Seq_attack.sat.Sat_attack.iterations
    | Sat_attack.Unsat_at_first_iteration _ -> "UNSAT at first DIP"
    | Sat_attack.Budget_exhausted -> "budget exhausted"
  in
  Printf.printf "%-44s %s\n" "seq-SAT (k=4, no scan) on XOR locking:" (status sxor);
  Printf.printf "%-44s %s\n" "seq-SAT (k=4, no scan) on GK locking:" (status sgk);
  (* AppSAT vs a SARLock + XOR compound *)
  let cmp =
    Generator.generate
      { Generator.gen_name = "bx"; seed = 22; n_pi = 12; n_po = 5; n_ff = 0;
        n_gates = 40; depth = 5; ff_depth_bias = 0.0 }
  in
  let sar = Sarlock.lock ~seed:23 cmp ~n_keys:8 in
  let compound = Xor_lock.lock ~seed:22 sar.Locked.net ~n_keys:6 in
  let keys = sar.Locked.key_inputs @ compound.Locked.key_inputs in
  let coracle = Sat_attack.oracle_of_netlist cmp in
  let a = Appsat.run ~locked:compound.Locked.net ~key_inputs:keys ~oracle:coracle () in
  let p =
    Sat_attack.run ~max_iterations:400 ~locked:compound.Locked.net
      ~key_inputs:keys ~oracle:coracle ()
  in
  Printf.printf
    "%-44s %d DIPs + %d queries (error %.3f)\n"
    "AppSAT on SARLock(8)+XOR(6) compound:" a.Appsat.dips a.Appsat.random_queries
    a.Appsat.error_rate;
  Printf.printf "%-44s %d DIPs\n" "exact SAT on the same compound:"
    p.Sat_attack.iterations;
  (* sensitization *)
  let scomb, _ = Combinationalize.run stripped in
  let sens_gk =
    Sensitization.run ~locked:scomb ~key_inputs:gk_keys ~oracle ()
  in
  Printf.printf "%-44s %d recovered / %d unresolved\n"
    "sensitization on GK locking:"
    (List.length sens_gk.Sensitization.recovered)
    (List.length sens_gk.Sensitization.unresolved)

let corruptibility_ber () =
  section "Wrong-key corruptibility (bit-error rate, stable logic)";
  let net =
    Generator.generate
      { Generator.gen_name = "ber"; seed = 22; n_pi = 12; n_po = 8; n_ff = 0;
        n_gates = 60; depth = 6; ff_depth_bias = 0.0 }
  in
  let show label lk =
    let p = Metrics.wrong_key_profile ~reference:net lk in
    Format.printf "%-28s %a@." label Metrics.pp_profile p
  in
  show "XOR/XNOR (8 keys)" (Xor_lock.lock ~seed:3 net ~n_keys:8);
  show "fault-guided XOR (8 keys)" (Fault_lock.lock ~seed:3 ~samples:32 net ~n_keys:8);
  show "MUX (8 keys)" (Mux_lock.lock ~seed:3 net ~n_keys:8);
  show "SARLock (8 keys)" (Sarlock.lock ~seed:3 net ~n_keys:8);
  show "Anti-SAT (2x8 keys)" (Antisat.lock ~seed:3 net ~n:8);
  print_endline
    "(SARLock/Anti-SAT corrupt a vanishing fraction of outputs — the low\n\
     corruptibility the paper's Sec. I criticises; GK corruptibility is\n\
     timing-borne, see the timing-true table below)"

let ablations () =
  section "Ablation A1 — glitch length vs available sites";
  print_string (Report.ablation_glitch (Experiments.ablation_glitch_length ()));
  section "Ablation A2 — delay-element composition";
  print_string (Report.ablation_profile (Experiments.ablation_delay_profile ()));
  section "Corruptibility of wrong keys (timing-true simulation)";
  print_string (Report.corruptibility (Experiments.corruptibility ()))

(* ----- bechamel micro-benchmarks ----- *)

let micro () =
  section "Micro-benchmarks (bechamel)";
  let open Bechamel in
  let open Toolkit in
  let spec = List.nth Benchmarks.specs 1 (* s5378 *) in
  let net = Benchmarks.load spec in
  let clock = Sta.clock_for net ~margin:spec.Benchmarks.clk_margin in
  let comb, _ = Combinationalize.run net in
  let locked = Xor_lock.lock ~seed:1 comb ~n_keys:16 in
  let oracle = Sat_attack.oracle_of_netlist comb in
  let design = Insertion.lock ~seed:1 net ~clock_ps:clock ~n_gks:4 in
  let cfg_sim = { Timing_sim.clock_ps = clock; cycles = 4 } in
  let drive = Stimuli.edge_aligned ~seed:2 net ~clock_ps:clock ~cycles:4 in
  let tests =
    Test.make_grouped ~name:"gklock" ~fmt:"%s %s"
      [
        Test.make ~name:"generate-s5378"
          (Staged.stage (fun () -> ignore (Benchmarks.load spec)));
        Test.make ~name:"sta-s5378"
          (Staged.stage (fun () -> ignore (Sta.analyze net ~clock_ps:clock)));
        Test.make ~name:"timing-sim-4cy-s5378"
          (Staged.stage (fun () -> ignore (Timing_sim.run ~drive net cfg_sim)));
        Test.make ~name:"lock-4gk-s5378"
          (Staged.stage (fun () ->
               ignore (Insertion.lock ~seed:1 net ~clock_ps:clock ~n_gks:4)));
        Test.make ~name:"sat-attack-xor16-s5378"
          (Staged.stage (fun () ->
               ignore
                 (Sat_attack.run ~locked:locked.Locked.net
                    ~key_inputs:locked.Locked.key_inputs ~oracle ())));
        Test.make ~name:"strip-keygens"
          (Staged.stage (fun () -> ignore (Insertion.strip_keygens design)));
      ]
  in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) ~kde:(Some 100) ()
  in
  let raw = Benchmark.all cfg instances tests in
  let results =
    List.map (fun instance -> Analyze.all ols instance raw) instances
  in
  let merged = Analyze.merge ols instances results in
  Hashtbl.iter
    (fun measure per_test ->
      let rows = Hashtbl.fold (fun k v acc -> (k, v) :: acc) per_test [] in
      List.iter
        (fun (name, ols_result) ->
          match Analyze.OLS.estimates ols_result with
          | Some [ est ] ->
            Printf.printf "%-40s %12.1f ns/run (%s)\n" name est measure
          | Some _ | None -> Printf.printf "%-40s (no estimate)\n" name)
        (List.sort compare rows))
    merged

let () =
  tables ();
  figures ();
  scan_section ();
  extended_attacks ();
  corruptibility_ber ();
  ablations ();
  micro ();
  print_newline ();
  print_endline "bench: all sections completed"
