(* gkbench: run one workload of the gklock benchmark and print its
   metrics.  Usually started through run.py, which builds this program and
   the gklockd daemon first:

     gkbench.exe --workload gk_sat|sar_dip|oracle_service|campaign
                 [--seed N] [--seconds S] [--trace 0|1] --gklockd PATH

   The measuring window --seconds defaults to run_seconds in
   BENCHMARK.json.  GKLOCK_TRACE is ignored: only --trace 1 traces, so an
   untraced run never carries tracing cost.

   The last line of standard output is one JSON object: correct,
   attempted, failed and metrics.  With --trace 0 the metrics are the
   end_to_end ones BENCHMARK.json declares; with --trace 1, its per_layer
   ones, where a layer the workload does not touch reads 0.  Lines before
   it are for people: the workload's own figures with sample counts, every
   metric it measured (declared or not), and in traced runs the total and
   self time of every span. *)

open Common

let workloads =
  [
    ("gk_sat", Wl_attack.gk_sat);
    ("sar_dip", Wl_attack.sar_dip);
    ("oracle_service", Wl_oracle.run);
    ("campaign", Wl_campaign.run);
  ]

let die fmt = Printf.ksprintf (fun s -> prerr_endline ("gkbench: " ^ s); exit 2) fmt

(* (name, unit) pairs of one metric list in BENCHMARK.json *)
let declared json key =
  match Cjson.mem_list key json with
  | None -> die "BENCHMARK.json has no %s list" key
  | Some l ->
    List.map
      (fun m ->
        match (Cjson.mem_str "name" m, Cjson.mem_str "unit" m) with
        | Some n, Some u when Measure.valid_name n && Measure.valid_unit u -> (n, u)
        | Some n, _ -> die "BENCHMARK.json: invalid metric %S in %s" n key
        | None, _ -> die "BENCHMARK.json: unnamed metric in %s" key)
      l

(* Exact counts must repeat for a given build, workload and seed.  The
   first run records them under .perfbench_state/, keyed by a digest of
   this executable (a rebuilt program or benchmark starts afresh); later
   runs compare. *)
let count_drift ~workload ~seed counts =
  if counts = [] then []
  else begin
    let dir = ".perfbench_state" in
    Fs.mkdir_p dir;
    let build = String.sub (Digest.to_hex (Digest.file Sys.executable_name)) 0 12 in
    let file = Filename.concat dir (Printf.sprintf "%s-%d-%s.json" workload seed build) in
    match Cjson.of_string (Fs.read_file file) with
    | Ok (Cjson.Obj before) ->
      List.filter_map
        (fun (k, v) ->
          match List.assoc_opt k before with
          | Some (Cjson.Int v') when v' = v -> None
          | Some (Cjson.Int v') ->
            Some (Printf.sprintf "exact count %s is %d; an earlier run with this seed had %d" k v v')
          | _ -> Some (Printf.sprintf "exact count %s is missing from an earlier run with this seed" k))
        counts
    | Ok _ | Error _ | (exception Sys_error _) ->
      Fs.write_atomic ~path:file
        (Cjson.to_string (Cjson.Obj (List.map (fun (k, v) -> (k, Cjson.Int v)) counts)) ^ "\n");
      []
  end

let num v = if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v else Printf.sprintf "%.17g" v

let print_metric ?n m =
  Printf.printf "  %-34s %16s %-6s%s\n" m.m_name (num m.m_value) m.m_unit
    (match n with Some n -> Printf.sprintf " (n=%d)" n | None -> "")

let () =
  (* before anything reads it: Obs latches GKLOCK_TRACE on first use,
     and "" means off *)
  Unix.putenv "GKLOCK_TRACE" "";
  let workload = ref "" and seed = ref 42 and seconds = ref None in
  let trace = ref 0 and gklockd = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed (default 42, the paper's lock seed)");
      ("--seconds", Arg.Float (fun s -> seconds := Some s),
       "S measuring window (default: run_seconds in BENCHMARK.json)");
      ("--trace", Arg.Set_int trace, "0|1 traced run (per-layer metrics)");
      ("--gklockd", Arg.Set_string gklockd, "PATH gklockd binary");
    ]
    (fun a -> die "unexpected argument %S" a)
    "gkbench --workload NAME [--seed N] [--seconds S] [--trace 0|1] --gklockd PATH";
  let run =
    match List.assoc_opt !workload workloads with
    | Some r -> r
    | None ->
      die "unknown workload %S (one of %s)" !workload
        (String.concat ", " (List.map fst workloads))
  in
  if !trace <> 0 && !trace <> 1 then die "--trace must be 0 or 1";
  let json =
    match Cjson.of_string (Fs.read_file "BENCHMARK.json") with
    | Ok j -> j
    | Error e -> die "BENCHMARK.json: %s" e
    | exception Sys_error e -> die "%s" e
  in
  let seconds =
    match (!seconds, Cjson.mem_int "run_seconds" json) with
    | Some s, _ -> s
    | None, Some n -> float_of_int n
    | None, None -> die "BENCHMARK.json has no run_seconds"
  in
  if seconds <= 0.0 then die "--seconds must be positive";
  let wanted = declared json (if !trace = 1 then "per_layer" else "end_to_end") in
  let work_dir = Filename.concat ".perfbench_work" !workload in
  Fs.rm_rf work_dir;
  Fs.mkdir_p work_dir;
  let opts =
    {
      seed = !seed;
      seconds;
      trace = !trace = 1;
      work_dir;
      gklockd = !gklockd;
    }
  in
  let r, spans = run opts in
  Fs.rm_rf work_dir;
  Printf.printf "workload %s  seed %d  %s\n" !workload !seed
    (if opts.trace then "traced" else "untraced");
  List.iter (fun (m, n) -> print_metric ~n m) r.summary;
  Printf.printf "  %-34s %s s\n" "passes"
    (String.concat " " (List.map (Printf.sprintf "%.3f") r.passes));
  let measured = if opts.trace then r.layers else r.e2e in
  List.iter (fun m -> print_metric m) measured;
  if spans <> [] then begin
    Printf.printf "  %-34s %8s %12s %12s\n" "span" "count" "total_s" "self_s";
    List.iter
      (fun (name, t) ->
        Printf.printf "  %-34s %8d %12.6f %12.6f\n" name t.Measure.st_count
          t.Measure.st_total t.Measure.st_self)
      (Measure.span_table spans)
  end;
  let problems =
    r.problems
    @ count_drift ~workload:!workload ~seed:!seed r.counts
    @ List.filter_map
        (fun m ->
          if not (Float.is_finite m.m_value) then Some (m.m_name ^ " is not a finite number")
          else
            match List.assoc_opt m.m_name wanted with
            | Some u when u <> m.m_unit -> Some (Printf.sprintf "%s: unit %s, declared %s" m.m_name m.m_unit u)
            | Some _ | None -> None)
        measured
  in
  List.iter (fun p -> Printf.printf "CHECK FAILED: %s\n" p) problems;
  let missing =
    List.filter (fun (n, _) -> not (List.exists (fun m -> m.m_name = n) measured)) wanted
  in
  if (not opts.trace) && missing <> [] then
    die "end-to-end metrics not measured: %s" (String.concat ", " (List.map fst missing));
  let metrics =
    List.map
      (fun (n, u) ->
        let v =
          match List.find_opt (fun m -> m.m_name = n) measured with
          | Some m when Float.is_finite m.m_value -> m.m_value
          | _ -> 0.0
        in
        (* every digit: Cjson's float format rounds to 12 *)
        Printf.sprintf {|"%s": {"value": %s, "unit": "%s"}|} n (num v) u)
      wanted
  in
  Printf.printf {|{"correct": %b, "attempted": %d, "failed": %d, "metrics": {%s}}|}
    (problems = []) r.attempted r.failed (String.concat ", " metrics);
  print_newline ()
