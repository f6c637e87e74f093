(* The two SAT-attack workloads.

   gk_sat  - the paper's Sec. VI rows: GK-lock each circuit with 8 GKs,
             strip the KEYGENs, combinationalize, run the SAT attack.
             One hard UNSAT solve per attack, no DIP loop.
   sar_dip - SARLock on combinationalized s1238: one cheap solve per DIP
             over a clause database that grows by two circuit copies per
             DIP, so the same solver is used the opposite way. *)

open Common

type instance = {
  bench : string;
  lock_seed : int;
  locked : Netlist.t;  (** combinational, key inputs as PIs *)
  keys : string list;
  chip : Netlist.t;  (** combinationalized unlocked circuit *)
}

(* Seconds spent per set-up stage, reported as per-layer metrics. *)
type setup_times = {
  load : float;
  clock : float;
  lock : float;
  strip : float;
  comb : float;
}

let zero_times = { load = 0.0; clock = 0.0; lock = 0.0; strip = 0.0; comb = 0.0 }

(* s38417 and s38584 are left out: one attack each takes 40-60 s, longer
   than a whole run may measure. *)
let gk_circuits = [ "s1238"; "s5378"; "s9234"; "s13207"; "s15850" ]

(* Lock seeds per circuit.  Solve cost varies by ~30 % between lock
   seeds, so every pass attacks several locks per circuit and a run's
   figure does not hinge on one seed. *)
let gk_locks = 4
let sar_circuit = "s1238"
let sar_keys = 6
let sar_locks = 8

let gk_setup seed =
  let t = ref zero_times in
  let stage f add =
    let r, dt = timed f in
    t := add !t dt;
    r
  in
  let insts =
    List.concat_map
      (fun bench ->
        let spec = Option.get (Benchmarks.find_spec bench) in
        let net =
          stage (fun () -> Benchmarks.load spec) (fun t d -> { t with load = t.load +. d })
        in
        let clock =
          stage
            (fun () -> Sta.clock_for net ~margin:spec.Benchmarks.clk_margin)
            (fun t d -> { t with clock = t.clock +. d })
        in
        let comb n = stage (fun () -> fst (Combinationalize.run n)) (fun t d -> { t with comb = t.comb +. d }) in
        let chip = comb net in
        List.init gk_locks (fun i ->
            let lock_seed = seed + i in
            let d =
              stage
                (fun () -> Insertion.lock ~seed:lock_seed net ~clock_ps:clock ~n_gks:8)
                (fun t d -> { t with lock = t.lock +. d })
            in
            let stripped, keys =
              stage (fun () -> Insertion.strip_keygens d) (fun t d -> { t with strip = t.strip +. d })
            in
            { bench; lock_seed; locked = comb stripped; keys; chip }))
      gk_circuits
  in
  (insts, !t)

let sar_setup seed =
  let net, load = timed (fun () -> Benchmarks.by_name sar_circuit) in
  let (chip, _), comb = timed (fun () -> Combinationalize.run net) in
  let insts, lock =
    timed (fun () ->
        List.init sar_locks (fun i ->
            let lock_seed = seed + i in
            let lk = Sarlock.lock ~seed:lock_seed chip ~n_keys:sar_keys in
            {
              bench = sar_circuit;
              lock_seed;
              locked = lk.Locked.net;
              keys = lk.Locked.key_inputs;
              chip;
            }))
  in
  (insts, { zero_times with load; comb; lock })

type attack_result = {
  inst : instance;
  outcome : Attack.outcome;
  wall : float;
  queries : int;  (** real chip evaluations *)
  memo_hits : int;
  query_s : float;  (** time inside the chip oracle (traced runs) *)
}

(* The attack's oracle wrapped from outside, so the time an attack spends
   waiting on the chip shows without tracing inside the library. *)
let timed_oracle inner =
  let acc = ref 0.0 in
  let time f =
    let r, dt = timed f in
    acc := !acc +. dt;
    r
  in
  let o =
    Oracle.of_fn ~memo:false
      ~batch:(fun qs -> time (fun () -> Oracle.query_batch inner qs))
      (fun q -> time (fun () -> Oracle.query inner q))
  in
  (o, acc)

let attack ~seed ~traced inst =
  let inner = Oracle.of_netlist inst.chip in
  let oracle, query_s =
    if traced then timed_oracle inner else (inner, ref 0.0)
  in
  let outcome, wall =
    timed (fun () ->
        Attack.run ~seed ~name:"sat" ~locked:inst.locked ~key_inputs:inst.keys
          ~oracle ())
  in
  {
    inst;
    outcome;
    wall;
    queries = Oracle.queries inner;
    memo_hits = Oracle.memo_hits inner;
    query_s = !query_s;
  }

let describe r =
  Printf.sprintf "%s lock seed %d: %s after %d iterations" r.inst.bench
    r.inst.lock_seed
    (Attack.verdict_name r.outcome.Attack.verdict)
    r.outcome.Attack.iterations

(* The paper's claim: UNSAT at the first DIP search, and the key the
   attacker extracts anyway is wrong on the chip. *)
let check_gk r =
  match r.outcome.Attack.verdict with
  | Attack.No_dip { mismatches; _ }
    when mismatches > 0 && r.outcome.Attack.iterations = 0 ->
    None
  | _ -> Some (describe r ^ " (expected no_dip at iteration 0, mismatches > 0)")

(* SARLock rules out one wrong key per DIP. *)
let check_sar r =
  let dips = (1 lsl sar_keys) - 1 in
  match r.outcome.Attack.verdict with
  | Attack.Key_recovered _ when r.outcome.Attack.iterations = dips -> None
  | _ ->
    Some (Printf.sprintf "%s (expected key_recovered after %d DIPs)" (describe r) dips)

let pass_counts rs =
  List.concat_map
    (fun r -> [ r.outcome.Attack.conflicts; r.outcome.Attack.iterations; r.queries ])
    rs

(* Per-layer numbers of one traced pass.  The k-th attack.run span is
   the k-th attack of the pass: attacks run one after another. *)
let layer_metrics ~setup ~untraced_s rs spans =
  let solve_in run =
    Measure.within run "attack.solve" spans |> List.map Measure.duration |> sum
  in
  let solve_per =
    List.filter (fun s -> s.Measure.name = "attack.run") spans |> List.map solve_in
  in
  let paired =
    List.mapi (fun i r -> (r, Option.value (List.nth_opt solve_per i) ~default:0.0)) rs
  in
  let solve_s = sum solve_per in
  let iter_s = Measure.total_of "attack.iteration" spans in
  let run_s = Measure.total_of "attack.run" spans in
  let calls = Measure.count_of "attack.solve" spans in
  let conflicts = sum_int (List.map (fun r -> r.outcome.Attack.conflicts) rs) in
  let queries = sum_int (List.map (fun r -> r.queries) rs) in
  let hits = sum_int (List.map (fun r -> r.memo_hits) rs) in
  let traced_s = sum (List.map (fun r -> r.wall) rs) in
  [
    metric "sat.solve_s" "s" solve_s;
    metric "sat.solve_calls" "count" (float_of_int calls);
    metric "sat.solve_ms_per_call" "ms"
      (if calls = 0 then 0.0 else 1000.0 *. solve_s /. float_of_int calls);
    metric "sat.conflicts" "count" (float_of_int conflicts);
    metric "sat.conflicts_per_s" "1/s"
      (if solve_s > 0.0 then float_of_int conflicts /. solve_s else 0.0);
    metric "attack.run_s" "s" run_s;
    metric "attack.iteration_s" "s" iter_s;
    metric "attack.other_s" "s" (run_s -. solve_s -. iter_s);
    metric "attack.dips" "count"
      (float_of_int (sum_int (List.map (fun r -> r.outcome.Attack.iterations) rs)));
    metric "oracle.query_s" "s" (sum (List.map (fun r -> r.query_s) rs));
    metric "oracle.queries" "count" (float_of_int queries);
    metric "oracle.memo_hit_frac" "ratio"
      (if queries + hits = 0 then 0.0
       else float_of_int hits /. float_of_int (queries + hits));
    metric "engine.compile_s" "s" (Measure.total_of "engine.compile" spans);
    metric "netlist.load_s" "s" setup.load;
    metric "netlist.combinationalize_s" "s" setup.comb;
    metric "locking.lock_s" "s" setup.lock;
    metric "locking.strip_s" "s" setup.strip;
    metric "sta.clock_s" "s" setup.clock;
    metric "trace.overhead_frac" "ratio" ((traced_s /. untraced_s) -. 1.0);
  ]
  @ List.concat_map
      (fun b ->
        let mine = List.filter (fun (r, _) -> r.inst.bench = b) paired in
        [
          metric ("sat.solve_s." ^ b) "s" (sum (List.map snd mine));
          metric ("sat.conflicts." ^ b) "count"
            (float_of_int
               (sum_int (List.map (fun (r, _) -> r.outcome.Attack.conflicts) mine)));
        ])
      (List.sort_uniq compare (List.map (fun r -> r.inst.bench) rs))

let run_workload ~setup ~check (o : opts) =
  let (insts, times), setup_s = setup_median (fun () -> setup o.seed) in
  let pass ~traced () = List.map (attack ~seed:o.seed ~traced) insts in
  let wall rs = sum (List.map (fun r -> r.wall) rs) in
  let rss = ref 0.0 in
  let results, layers, spans =
    if o.trace then begin
      (* a warm-up pass, then the untraced reference for the overhead *)
      let warm = pass ~traced:false () in
      let untraced = pass ~traced:false () in
      let file = Filename.concat o.work_dir "attack_trace.jsonl" in
      Obs.Trace.enable ~file ();
      let traced = pass ~traced:true () in
      Obs.Trace.disable ();
      let spans = Measure.spans_of_file file in
      ( [ warm; untraced; traced ],
        layer_metrics ~setup:times ~untraced_s:(wall untraced) traced spans,
        spans )
    end
    else begin
      let acc = ref [] in
      let _, r =
        passes ~seconds:o.seconds ~rss:self_rss_mb (fun () ->
            let rs = pass ~traced:false () in
            acc := rs :: !acc;
            wall rs)
      in
      rss := r;
      (List.rev !acc, [], [])
    end
  in
  let all = List.concat results in
  let problems =
    List.filter_map check all
    @ same_counts "attacks" (List.map pass_counts results)
  in
  let failed = List.length (List.filter (fun r -> check r <> None) all) in
  let work = List.map wall results in
  (* Each instance's median over the passes, summed: one pass's worth of
     attacks, robust to a slow stretch of the host that hits a few
     attacks of one pass. *)
  let attack_s =
    List.mapi
      (fun i _ -> Measure.median (List.map (fun rs -> (List.nth rs i).wall) results))
      insts
    |> sum
  in
  let last = List.nth results (List.length results - 1) in
  ( {
    attempted = List.length all;
    passes = work;
    failed;
    problems;
    e2e =
      [
        metric "setup_s" "s" setup_s;
        metric "work_s" "s" attack_s;
        metric "peak_rss_mb" "MB" !rss;
      ];
    summary =
      [
        (metric "attack_s" "s" attack_s, List.length work);
        ( metric "fail_rate" "ratio"
            (float_of_int failed /. float_of_int (List.length all)),
          List.length all );
      ];
    layers;
    counts =
      List.concat_map
        (fun r ->
          let k = Printf.sprintf "%s.%d" r.inst.bench r.inst.lock_seed in
          [
            ("sat.conflicts." ^ k, r.outcome.Attack.conflicts);
            ("attack.dips." ^ k, r.outcome.Attack.iterations);
            ("oracle.queries." ^ k, r.queries);
          ])
        last;
  },
    spans )

let gk_sat = run_workload ~setup:gk_setup ~check:check_gk
let sar_dip = run_workload ~setup:sar_setup ~check:check_sar
