(* campaign: a fresh-store Campaign.run with two workers over Table I,
   Table II (standard and buffers profiles) and a small attack matrix that
   succeeds on every job, then the same matrix under a sibling campaign
   name on the same store, which must adopt every result and execute
   nothing.  The only workload that reaches the flow/sta layers (Table
   II), the worker pool and the content-addressed store. *)

open Common

let workers = 2

let matrix ~name seed =
  {
    Campaign_job.m_name = name;
    m_tables = [ "table1"; "table2"; "table2:buffers" ];
    m_benches = [ "s27"; "tiny" ];
    m_schemes = [ "xor"; "mux"; "sarlock"; "antisat" ];
    m_widths = [ 4 ];
    m_attacks = [ "sat"; "appsat"; "removal" ];
    m_seeds = [ seed; seed + 1 ];
  }

let kind (j : Campaign_job.t) =
  match j.Campaign_job.spec with
  | Campaign_job.Table1 _ -> "table1"
  | Campaign_job.Table2 _ -> "table2"
  | Campaign_job.Attack _ -> "attack"

(* Job executions timed from outside: Campaign.run ~exec wrapping the real
   executor.  Workers are domains, hence the mutex. *)
let timed_exec () =
  let mu = Mutex.create () in
  let log = ref [] in
  let exec job =
    let r, dt = timed (fun () -> Campaign_exec.run job.Campaign_job.spec) in
    Mutex.protect mu (fun () -> log := (kind job, dt) :: !log);
    r
  in
  (exec, fun () -> Mutex.protect mu (fun () -> !log))

let rec dir_usage path =
  match Sys.is_directory path with
  | true ->
    Array.fold_left
      (fun (n, b) e ->
        let n', b' = dir_usage (Filename.concat path e) in
        (n + n', b + b'))
      (0, 0) (Sys.readdir path)
  | false -> (1, (Unix.stat path).Unix.st_size)
  | exception Sys_error _ -> (0, 0)

type pass = {
  fresh : Campaign_runner.stats;
  rerun : Campaign_runner.stats;
  wall : float;  (** the fresh run *)
  adopt_s : float;  (** the sibling rerun *)
  report_s : float;
  execs : (string * float) list;
  objects : int;
  bytes : int;
  dir : string;
}

let run_pass (o : opts) seed i =
  let root = Filename.concat o.work_dir (Printf.sprintf "pass%d" i) in
  Fs.rm_rf root;
  Fs.mkdir_p root;
  let fresh_dir = Filename.concat root "fresh" in
  let exec, execs = timed_exec () in
  let fresh, wall =
    timed (fun () ->
        Campaign.run ~workers ~exec ~dir:fresh_dir (matrix ~name:"fresh" seed))
  in
  let rerun, adopt_s =
    timed (fun () ->
        Campaign.run ~workers
          ~dir:(Filename.concat root "sibling")
          (matrix ~name:"sibling" seed))
  in
  let report_s =
    snd (timed (fun () -> Campaign.report ~dir:fresh_dir (matrix ~name:"fresh" seed)))
  in
  let objects, bytes = dir_usage (Filename.concat (Filename.concat root "store") "objects") in
  { fresh; rerun; wall; adopt_s; report_s; execs = execs (); objects; bytes; dir = fresh_dir }

let check_pass n_jobs p =
  let s = p.fresh and r = p.rerun in
  List.filter_map
    (fun (ok, what) -> if ok then None else Some what)
    [
      ( s.Campaign_runner.ok = n_jobs && s.Campaign_runner.failed = 0
        && s.Campaign_runner.timed_out = 0,
        Printf.sprintf "fresh run: %d/%d jobs ok, %d failed, %d timed out"
          s.Campaign_runner.ok n_jobs s.Campaign_runner.failed
          s.Campaign_runner.timed_out );
      ( r.Campaign_runner.ran = 0 && r.Campaign_runner.skipped = n_jobs,
        Printf.sprintf "sibling rerun executed %d jobs and adopted %d of %d"
          r.Campaign_runner.ran r.Campaign_runner.skipped n_jobs );
    ]

(* Tables I/II read back from the store must render exactly like the
   rows Experiments computes directly. *)
let check_views dir =
  let buffers = Option.get (Experiments.profile_of_name "buffers") in
  List.filter_map
    (fun (what, got, want) -> if got = want then None else Some (what ^ " view differs from Experiments"))
    [
      ("Table I", Report.table1 (Campaign.table1_view dir), Report.table1 (Experiments.table1 ()));
      ("Table II", Report.table2 (Campaign.table2_view dir), Report.table2 (Experiments.table2 ()));
      ( "Table II buffers",
        Report.table2 (Campaign.table2_view ~profile:"buffers" dir),
        Report.table2 (Experiments.table2 ~profile:buffers ()) );
    ]

let pass_counts p =
  [
    p.fresh.Campaign_runner.ran;
    p.rerun.Campaign_runner.ran;
    p.rerun.Campaign_runner.skipped;
    p.objects;
  ]

let run (o : opts) =
  let n_jobs, setup_s =
    setup_median (fun () ->
        List.length (Campaign_job.expand (matrix ~name:"fresh" o.seed)))
  in
  let run_n i = run_pass o o.seed i in
  let rss = ref 0.0 in
  let ps, spans =
    if o.trace then begin
      (* a warm-up pass, then the untraced reference for the overhead *)
      let warm = run_n 0 in
      let untraced = run_n 1 in
      let file = Filename.concat o.work_dir "campaign_trace.jsonl" in
      Obs.Trace.enable ~file ();
      let traced = run_n 2 in
      Obs.Trace.disable ();
      ([ warm; untraced; traced ], Measure.spans_of_file file)
    end
    else begin
      let acc = ref [] in
      let _, r =
        passes ~seconds:o.seconds ~rss:self_rss_mb (fun () ->
            let p = run_n (List.length !acc) in
            acc := p :: !acc;
            p.wall)
      in
      rss := r;
      (List.rev !acc, [])
    end
  in
  let last = List.nth ps (List.length ps - 1) in
  let problems =
    List.concat_map (check_pass n_jobs) ps
    @ check_views last.dir
    @ same_counts "campaign" (List.map pass_counts ps)
  in
  let failed =
    sum_int
      (List.map
         (fun p ->
           p.fresh.Campaign_runner.failed + p.fresh.Campaign_runner.timed_out
           + p.rerun.Campaign_runner.ran)
         ps)
  in
  let attempted = List.length ps * n_jobs in
  let exec_s k = sum (List.filter_map (fun (k', d) -> if k = k' then Some d else None) last.execs) in
  let layers =
    if not o.trace then []
    else
      let untraced = List.nth ps 1 in
      (* the attack jobs' SAT and DIP-loop time, from their spans *)
      let solve_s = Measure.total_of "attack.solve" spans in
      let calls = Measure.count_of "attack.solve" spans in
      let iter_s = Measure.total_of "attack.iteration" spans in
      let run_s = Measure.total_of "attack.run" spans in
      [
        metric "campaign.exec_s.table1" "s" (exec_s "table1");
        metric "campaign.exec_s.table2" "s" (exec_s "table2");
        metric "campaign.exec_s.attack" "s" (exec_s "attack");
        metric "campaign.worker_busy_frac" "ratio"
          (sum (List.map snd last.execs) /. (float_of_int workers *. last.wall));
        metric "campaign.jobs_ran" "count" (float_of_int last.fresh.Campaign_runner.ran);
        metric "campaign.jobs_adopted" "count" (float_of_int last.rerun.Campaign_runner.skipped);
        metric "cas.objects" "count" (float_of_int last.objects);
        metric "cas.bytes" "B" (float_of_int last.bytes);
        metric "cas.adopt_s" "s" last.adopt_s;
        metric "campaign.report_s" "s" last.report_s;
        metric "sat.solve_s" "s" solve_s;
        metric "sat.solve_calls" "count" (float_of_int calls);
        metric "sat.solve_ms_per_call" "ms" (1000.0 *. solve_s /. float_of_int (max 1 calls));
        metric "attack.run_s" "s" run_s;
        metric "attack.iteration_s" "s" iter_s;
        metric "attack.other_s" "s" (run_s -. solve_s -. iter_s);
        metric "attack.dips" "count" (float_of_int (Measure.count_of "attack.iteration" spans));
        metric "engine.compile_s" "s" (Measure.total_of "engine.compile" spans);
        metric "trace.overhead_frac" "ratio" ((last.wall /. untraced.wall) -. 1.0);
      ]
  in
  let walls = List.map (fun p -> p.wall) ps in
  ( {
      attempted;
      failed;
      passes = walls;
      problems;
      e2e =
        [
          metric "setup_s" "s" setup_s;
          metric "work_s" "s" (Measure.median walls);
          metric "peak_rss_mb" "MB" !rss;
        ];
      summary =
        [
          (metric "campaign_s" "s" (Measure.median walls), List.length walls);
          (metric "fail_rate" "ratio" (float_of_int failed /. float_of_int attempted), attempted);
        ];
      layers;
      counts =
        [
          ("campaign.jobs_ran", last.fresh.Campaign_runner.ran);
          ("campaign.jobs_adopted", last.rerun.Campaign_runner.skipped);
          ("cas.objects", last.objects);
        ];
    },
    spans )
