(* The observability layer (lib/obs) and the regression tests for the
   bugfix sweep that shipped with it: expired budgets, relaxed-oracle
   default reads, VCD identifier escaping and same-time event ordering. *)

let tc = Alcotest.test_case

let comb_circuit seed =
  let net =
    Generator.generate
      {
        Generator.gen_name = Printf.sprintf "obs%d" seed;
        seed;
        n_pi = 8;
        n_po = 5;
        n_ff = 6;
        n_gates = 50;
        depth = 7;
        ff_depth_bias = 0.2;
      }
  in
  fst (Combinationalize.run net)

let tmp_file suffix = Filename.temp_file "gklock_obs" suffix

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let count_lines_with path needles =
  let ic = open_in path in
  let n = ref 0 in
  (try
     while true do
       let line = input_line ic in
       if List.for_all (Astring_contains.contains line) needles then incr n
     done
   with End_of_file -> ());
  close_in ic;
  !n

(* ----- Metrics ----- *)

let test_metrics_counters () =
  let c = Obs.Metrics.counter "test.counter_a" in
  let before = Obs.Metrics.value c in
  Obs.Metrics.incr c;
  Obs.Metrics.add c 41;
  Alcotest.(check int) "incr + add" (before + 42) (Obs.Metrics.value c);
  (* registry returns the same instrument for the same name *)
  let c' = Obs.Metrics.counter "test.counter_a" in
  Obs.Metrics.incr c';
  Alcotest.(check int) "shared handle" (before + 43) (Obs.Metrics.value c)

let test_metrics_snapshot () =
  let c = Obs.Metrics.counter "test.snap_counter" in
  let g = Obs.Metrics.gauge "test.snap_gauge" in
  let h = Obs.Metrics.histogram "test.snap_hist" in
  Obs.Metrics.add c 7;
  Obs.Metrics.set g 2.5;
  Obs.Metrics.observe h 0.25;
  Obs.Metrics.observe h 4.0;
  let dump = Obs.Metrics.dump () in
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("dump has " ^ needle) true
        (Astring_contains.contains dump needle))
    [
      "\"test.snap_counter\"";
      "\"test.snap_gauge\":2.5";
      "\"test.snap_hist\"";
      "\"count\":2";
    ];
  (* parseable as one JSON object *)
  (match Cjson.of_string dump with
  | Ok (Cjson.Obj _) -> ()
  | Ok _ -> Alcotest.fail "metrics dump is not a JSON object"
  | Error e -> Alcotest.fail ("metrics dump unparseable: " ^ e));
  let path = tmp_file ".json" in
  Obs.Metrics.write_file path;
  Alcotest.(check bool) "write_file round-trips" true
    (String.trim (read_file path) = String.trim dump);
  Sys.remove path

(* ----- Trace emission + validation ----- *)

let test_trace_spans_validate () =
  let path = tmp_file ".jsonl" in
  Obs.Trace.enable ~file:path ();
  Alcotest.(check bool) "enabled" true (Obs.Trace.enabled ());
  Obs.Trace.with_span ~args:[ ("k", Cjson.Str "v") ] "outer" (fun () ->
      Obs.Trace.with_span "inner" (fun () ->
          Obs.Trace.instant ~args:[ ("n", Cjson.Int 1) ] "tick");
      Obs.Trace.counter_event "series" [ ("x", 1.0) ]);
  Obs.Trace.disable ();
  Alcotest.(check bool) "disabled" false (Obs.Trace.enabled ());
  (match Obs.Trace.validate_file path with
  | Ok c ->
    Alcotest.(check int) "two spans" 2 c.Obs.Trace.v_spans;
    Alcotest.(check int) "nested depth" 2 c.Obs.Trace.v_max_depth;
    Alcotest.(check bool) "all records counted" true
      (c.Obs.Trace.v_events >= 6)
  | Error e -> Alcotest.fail ("trace should validate: " ^ e));
  Sys.remove path

let test_trace_span_closed_on_raise () =
  let path = tmp_file ".jsonl" in
  Obs.Trace.enable ~file:path ();
  (try
     Obs.Trace.with_span "doomed" (fun () -> failwith "boom")
   with Failure _ -> ());
  Obs.Trace.disable ();
  (match Obs.Trace.validate_file path with
  | Ok c -> Alcotest.(check int) "span still closed" 1 c.Obs.Trace.v_spans
  | Error e -> Alcotest.fail ("trace should validate: " ^ e));
  Sys.remove path

let test_trace_validator_rejects () =
  let write_lines lines =
    let path = tmp_file ".jsonl" in
    let oc = open_out path in
    List.iter (fun l -> output_string oc (l ^ "\n")) lines;
    close_out oc;
    path
  in
  let expect_invalid what lines =
    let path = write_lines lines in
    (match Obs.Trace.validate_file path with
    | Ok _ -> Alcotest.fail (what ^ " should be rejected")
    | Error _ -> ());
    Sys.remove path
  in
  expect_invalid "unclosed span"
    [ {|{"name":"a","ph":"B","ts":1,"pid":1,"tid":0}|} ];
  expect_invalid "mismatched close"
    [
      {|{"name":"a","ph":"B","ts":1,"pid":1,"tid":0}|};
      {|{"name":"b","ph":"E","ts":2,"pid":1,"tid":0}|};
    ];
  expect_invalid "stray close"
    [ {|{"name":"a","ph":"E","ts":1,"pid":1,"tid":0}|} ];
  expect_invalid "time went backwards"
    [
      {|{"name":"a","ph":"i","ts":5,"pid":1,"tid":0}|};
      {|{"name":"b","ph":"i","ts":4,"pid":1,"tid":0}|};
    ];
  expect_invalid "unknown phase"
    [ {|{"name":"a","ph":"Q","ts":1,"pid":1,"tid":0}|} ];
  expect_invalid "missing field" [ {|{"name":"a","ph":"i","ts":1}|} ];
  expect_invalid "not json" [ "nonsense" ]

let test_trace_attack_iteration_spans () =
  let comb = comb_circuit 70 in
  let lk = Xor_lock.lock ~seed:70 comb ~n_keys:6 in
  let path = tmp_file ".jsonl" in
  Obs.Trace.enable ~file:path ();
  let o =
    Attack.run ~name:"sat" ~locked:lk.Locked.net
      ~key_inputs:lk.Locked.key_inputs
      ~oracle:(Oracle.of_netlist comb)
      ()
  in
  Obs.Trace.disable ();
  (match Obs.Trace.validate_file path with
  | Ok _ -> ()
  | Error e -> Alcotest.fail ("attack trace should validate: " ^ e));
  (* the acceptance contract: attack.iteration spans == reported
     iteration telemetry, exactly *)
  Alcotest.(check int) "iteration spans match telemetry" o.Attack.iterations
    (count_lines_with path [ {|"attack.iteration"|}; {|"ph":"B"|} ]);
  Alcotest.(check int) "one attack.run span" 1
    (count_lines_with path [ {|"attack.run"|}; {|"ph":"B"|} ]);
  Sys.remove path

(* [(name, parent)] for every span "B" record of a single-domain trace,
   in file order; the parent is the innermost span open at that point. *)
let span_parents path =
  let stack = ref [] and acc = ref [] in
  let ic = open_in path in
  (try
     while true do
       match Cjson.of_string (input_line ic) with
       | Ok j -> (
         let field k = Option.bind (Cjson.member k j) Cjson.to_str in
         match (field "name", field "ph") with
         | Some name, Some "B" ->
           acc := (name, match !stack with p :: _ -> p | [] -> "") :: !acc;
           stack := name :: !stack
         | Some _, Some "E" -> stack := List.tl !stack
         | _ -> ())
       | Error e -> Alcotest.fail ("unparseable trace line: " ^ e)
     done
   with End_of_file -> ());
  close_in ic;
  List.rev !acc

let test_trace_table_spans () =
  (* the spans that attribute Table I/II job time: generation, FF
     grouping (inside GK insertion and on its own) under a caller span *)
  let path = tmp_file ".jsonl" in
  Obs.Trace.enable ~file:path ();
  Obs.Trace.with_span "job" (fun () ->
      let net = Benchmarks.tiny () in
      let clock_ps = Sta.clock_for net ~margin:4.5 in
      ignore (Insertion.lock ~seed:3 net ~clock_ps ~n_gks:2);
      ignore (Topo.group_ffs_by_cone net));
  Obs.Trace.disable ();
  (match Obs.Trace.validate_file path with
  | Ok _ -> ()
  | Error e -> Alcotest.fail ("trace should validate: " ^ e));
  let parents = span_parents path in
  let has name parent = List.mem (name, parent) parents in
  Alcotest.(check bool) "netlist.generate under job" true
    (has "netlist.generate" "job");
  Alcotest.(check bool) "locking.insert under job" true
    (has "locking.insert" "job");
  Alcotest.(check bool) "topo.ff_groups under locking.insert" true
    (has "topo.ff_groups" "locking.insert");
  Alcotest.(check bool) "topo.ff_groups under job" true
    (has "topo.ff_groups" "job");
  Sys.remove path

(* ----- Budget: zero/expired deadline (regression) ----- *)

let test_budget_zero_deadline_structured () =
  (* deadline_s:0.0 is already expired: the very first check must trip —
     deterministically, not depending on clock resolution *)
  let b = Budget.create ~deadline_s:0.0 () in
  Alcotest.check_raises "first check trips" (Budget.Exhausted Budget.Deadline)
    (fun () -> Budget.check b);
  let b2 = Budget.create ~deadline_s:(-5.0) () in
  Alcotest.check_raises "negative deadline trips"
    (Budget.Exhausted Budget.Deadline) (fun () -> Budget.tick b2);
  Alcotest.(check int) "no iterations charged" 0 (Budget.iterations b2)

let attack_with_zero_deadline name =
  let comb = comb_circuit 71 in
  let lk = Xor_lock.lock ~seed:71 comb ~n_keys:8 in
  let budget = Budget.create ~deadline_s:0.0 () in
  let oracle = Oracle.of_netlist ~budget comb in
  let o =
    Attack.run ~budget ~name ~locked:lk.Locked.net
      ~key_inputs:lk.Locked.key_inputs ~oracle ()
  in
  (match o.Attack.verdict with
  | Attack.Out_of_budget Budget.Deadline -> ()
  | v ->
    Alcotest.fail
      (name ^ ": expected out_of_budget_deadline, got "
     ^ Attack.verdict_name v));
  Alcotest.(check int) (name ^ ": zero iterations") 0 o.Attack.iterations;
  (* the structured verdict must arrive before the first oracle query *)
  Alcotest.(check int) (name ^ ": zero oracle queries") 0 o.Attack.queries

let test_sat_zero_deadline () = attack_with_zero_deadline "sat"
let test_appsat_zero_deadline () = attack_with_zero_deadline "appsat"

(* ----- Oracle: relaxed default reads (regression) ----- *)

let seq_circuit () =
  (* one FF whose init is undefined in the source: combinationalized it
     becomes the pseudo-input ppi_f *)
  let n = Netlist.create "obsseq" in
  let a = Netlist.add_input n "a" in
  let f = Netlist.add_ff n ~name:"f" a in
  let g = Netlist.add_gate n ~name:"g" Cell.Xor [| a; f |] in
  Netlist.add_output n "o" g;
  fst (Combinationalize.run n)

let test_oracle_partial_default_consistent () =
  let comb = seq_circuit () in
  let o = Oracle.of_netlist comb in
  let names = Oracle.input_names o in
  Alcotest.(check bool) "ppi exposed" true (List.mem "ppi_f" names);
  let strict_q = List.map (fun nm -> (nm, nm = "a")) names in
  let strict = Oracle.query o strict_q in
  let defaults_c = Obs.Metrics.counter "oracle.partial_defaults" in
  let defaults_before = Obs.Metrics.value defaults_c in
  (* same query through the relaxed path, without naming the FF: the
     unmentioned ppi must read false — the same assignment — and land on
     the same memo entry *)
  let relaxed = Oracle.query (Oracle.relax o) [ ("a", true) ] in
  Alcotest.(check bool) "relaxed default = explicit false" true
    (strict = relaxed);
  Alcotest.(check int) "no second evaluation (shared memo key)" 1
    (Oracle.queries o);
  Alcotest.(check int) "memo hit recorded" 1 (Oracle.memo_hits o);
  Alcotest.(check bool) "defaulted reads are counted, not silent" true
    (Obs.Metrics.value defaults_c > defaults_before)

(* ----- VCD identifier escaping (regression) ----- *)

let test_vcd_escapes_identifiers () =
  let n = Netlist.create "bad design" in
  let a = Netlist.add_input n "in put" in
  let b = Netlist.add_input n "x$y" in
  let g1 = Netlist.add_gate n ~name:"a b" Cell.And [| a; b |] in
  let g2 = Netlist.add_gate n ~name:"a$b" Cell.Or [| a; b |] in
  let g3 = Netlist.add_gate n ~name:"tab\there" Cell.Xor [| g1; g2 |] in
  Netlist.add_output n "o" g3;
  let r = Timing_sim.run n { Timing_sim.clock_ps = 5000; cycles = 1 } in
  let vcd = Vcd.of_result n r ~signals:[] in
  let lines = String.split_on_char '\n' vcd in
  let var_names = ref [] in
  List.iter
    (fun line ->
      if String.length line >= 4 && String.sub line 0 4 = "$var" then begin
        (* a well-formed declaration is exactly
           "$var wire 1 <code> <name> $end": six space-free tokens *)
        let toks =
          List.filter (fun t -> t <> "") (String.split_on_char ' ' line)
        in
        Alcotest.(check int) ("tokens in " ^ line) 6 (List.length toks);
        let name = List.nth toks 4 in
        Alcotest.(check bool) ("no $ in " ^ name) false
          (String.contains name '$');
        var_names := name :: !var_names
      end;
      if String.length line >= 6 && String.sub line 0 6 = "$scope" then
        Alcotest.(check int) "scope tokens" 4
          (List.length
             (List.filter (fun t -> t <> "") (String.split_on_char ' ' line))))
    lines;
  (* "a b" and "a$b" both sanitize to a_b: uniquified, not collided *)
  let sorted = List.sort_uniq compare !var_names in
  Alcotest.(check int) "var names stay distinct" (List.length !var_names)
    (List.length sorted);
  Alcotest.(check bool) "collision got a suffix" true
    (List.mem "a_b" sorted && List.mem "a_b_2" sorted)

(* ----- Event queue: same-time FIFO (regression) ----- *)

let test_event_queue_same_time_fifo () =
  let q = Event_queue.create () in
  Event_queue.add q ~time:5 0;
  Event_queue.add q ~time:3 100;
  for i = 1 to 49 do
    Event_queue.add q ~time:5 i
  done;
  Event_queue.add q ~time:7 200;
  (match Event_queue.pop_min q with
  | Some (3, 100) -> ()
  | _ -> Alcotest.fail "earliest time first");
  for i = 0 to 49 do
    match Event_queue.pop_min q with
    | Some (5, j) when j = i -> ()
    | Some (t, j) ->
      Alcotest.fail
        (Printf.sprintf "same-time pop %d returned (%d, %d)" i t j)
    | None -> Alcotest.fail "queue drained early"
  done;
  (match Event_queue.pop_min q with
  | Some (7, 200) -> ()
  | _ -> Alcotest.fail "latest time last");
  Alcotest.(check bool) "drained" true (Event_queue.is_empty q)

let test_sim_same_time_edges () =
  (* two inputs of one XOR gate toggle at the same instant: the gate sees
     two same-time re-evaluation events.  FIFO ordering makes the second
     (fully updated) evaluation win, so the gate settles back to 0 —
     LIFO would leave it stuck at 1.  Waveform.make then collapses the
     zero-width T excursion (same-time last-write-wins), so the wave
     must show no transition at all. *)
  let n = Netlist.create "tie" in
  let a = Netlist.add_input n "a" in
  let b = Netlist.add_input n "b" in
  let g = Netlist.add_gate n ~name:"g" Cell.Xor [| a; b |] in
  Netlist.add_output n "o" g;
  let wave = Waveform.make ~initial:Logic.F [ (1000, Logic.T) ] in
  let r =
    Timing_sim.run
      ~drive:(fun _ -> Timing_sim.Wave wave)
      n
      { Timing_sim.clock_ps = 5000; cycles = 1 }
  in
  let gw = Timing_sim.wave_of r n "g" in
  Alcotest.(check char) "settles to 0"
    (Logic.to_char Logic.F)
    (Logic.to_char (Waveform.value_at gw 2000));
  Alcotest.(check int) "zero-width excursion collapsed" 0
    (List.length (Waveform.transitions gw))

let suites =
  [
    ( "obs.metrics",
      [
        tc "counters" `Quick test_metrics_counters;
        tc "snapshot/dump/write" `Quick test_metrics_snapshot;
      ] );
    ( "obs.trace",
      [
        tc "spans validate" `Quick test_trace_spans_validate;
        tc "span closed on raise" `Quick test_trace_span_closed_on_raise;
        tc "validator rejects bad files" `Quick test_trace_validator_rejects;
        tc "attack iteration spans" `Quick test_trace_attack_iteration_spans;
        tc "table job spans nest" `Quick test_trace_table_spans;
      ] );
    ( "obs.regressions",
      [
        tc "budget zero deadline" `Quick test_budget_zero_deadline_structured;
        tc "sat attack, expired budget" `Quick test_sat_zero_deadline;
        tc "appsat, expired budget" `Quick test_appsat_zero_deadline;
        tc "oracle relaxed defaults" `Quick
          test_oracle_partial_default_consistent;
        tc "vcd identifier escaping" `Quick test_vcd_escapes_identifiers;
        tc "event queue same-time FIFO" `Quick
          test_event_queue_same_time_fifo;
        tc "sim same-time edges" `Quick test_sim_same_time_edges;
      ] );
  ]
