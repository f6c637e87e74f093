(* oracle_service: one gklockd serving s5378 with --no-memo on a unix
   socket, loaded by a closed loop of two client threads in this process.
   Each pass runs a scalar phase (one Query frame per call, coalesced by
   the daemon into 63-lane words) and a batch phase (63-query
   Query_batch frames).  About 95 % of a call is wire and daemon time,
   and no other workload reaches that layer. *)

open Common

let design = "s5378"
let clients = 2
let scalar_per_client = 700
let frames_per_client = 60
let lanes = 63
let pool_size = 4096

(* Every [sample_every]-th answer is kept and compared, after the timed
   window, with the in-process oracle's answer. *)
let sample_every = 16

type daemon = { pid : int; sock : string; log : Unix.file_descr }

let spawn_daemon (o : opts) ?(env = []) ?metrics_out () =
  let sock = Filename.concat o.work_dir "gklockd.sock" in
  (try Sys.remove sock with Sys_error _ -> ());
  let log =
    Unix.openfile
      (Filename.concat o.work_dir "gklockd.log")
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ]
      0o644
  in
  let args =
    [ o.gklockd; "--listen"; "unix:" ^ sock; "--no-memo" ]
    @ (match metrics_out with Some f -> [ "--metrics-out"; f ] | None -> [])
    @ [ design ]
  in
  let env =
    Array.append (Array.of_list env)
      (Array.of_list
         (List.filter
            (fun kv -> not (String.starts_with ~prefix:"GKLOCK_TRACE=" kv))
            (Array.to_list (Unix.environment ()))))
  in
  let pid =
    Unix.create_process_env o.gklockd (Array.of_list args) env Unix.stdin log log
  in
  Procs.register pid;
  { pid; sock; log }

let connect_all d =
  let addr = Frame_io.Unix_path d.sock in
  let deadline = now () +. 30.0 in
  let rec dial name =
    match Remote_oracle.connect ~client:name ~design ~memo:false addr with
    | r -> r
    | exception Unix.Unix_error _ when now () < deadline ->
      Thread.delay 0.002;
      dial name
  in
  List.init clients (fun i -> dial (Printf.sprintf "bench%d" i))

let stop_daemon d conns =
  (match conns with c :: _ -> Remote_oracle.shutdown_server c | [] -> ());
  List.iter Remote_oracle.close conns;
  Procs.reap d.pid;
  Unix.close d.log

type phase = {
  wall : float;
  latencies : float list;  (** seconds per call (per frame in batch) *)
  answered : int;  (** queries answered *)
  samples : (int * (string * bool) list) list;  (** pool index, answer *)
  errors : string list;
}

(* Run [body client i] on one thread per client and time the phase. *)
let phase conns body =
  let results = Array.make clients None in
  let t0 = now () in
  let threads =
    List.mapi
      (fun i c -> Thread.create (fun () -> results.(i) <- Some (body i c)) ())
      conns
  in
  List.iter Thread.join threads;
  let wall = now () -. t0 in
  Array.fold_left
    (fun acc r ->
      match r with
      | None -> { acc with errors = "client thread died" :: acc.errors }
      | Some (lat, n, smp, errs) ->
        {
          acc with
          latencies = lat @ acc.latencies;
          answered = acc.answered + n;
          samples = smp @ acc.samples;
          errors = errs @ acc.errors;
        })
    { wall; latencies = []; answered = 0; samples = []; errors = [] }
    results

let guarded f =
  match f () with
  | r -> Ok r
  | exception (Remote_oracle.Remote_error (code, detail)) ->
    Error (Wire.error_code_name code ^ ": " ^ detail)
  | exception (Unix.Unix_error (e, fn, _)) -> Error (fn ^ ": " ^ Unix.error_message e)

let scalar_phase pool conns ~offset =
  phase conns (fun i c ->
      let o = Remote_oracle.oracle c in
      let lat = ref [] and smp = ref [] and errs = ref [] and n = ref 0 in
      for j = 0 to scalar_per_client - 1 do
        let k = (offset + (i * scalar_per_client) + j) mod pool_size in
        let t0 = now () in
        match guarded (fun () -> Oracle.query o pool.(k)) with
        | Ok ans ->
          lat := (now () -. t0) :: !lat;
          incr n;
          if k mod sample_every = 0 then smp := (k, ans) :: !smp
        | Error e -> errs := e :: !errs
      done;
      (!lat, !n, !smp, !errs))

let batch_phase pool conns ~offset =
  phase conns (fun i c ->
      let o = Remote_oracle.oracle c in
      let lat = ref [] and smp = ref [] and errs = ref [] and n = ref 0 in
      for f = 0 to frames_per_client - 1 do
        let base = offset + (((i * frames_per_client) + f) * lanes) in
        let idx = List.init lanes (fun l -> (base + l) mod pool_size) in
        let t0 = now () in
        match
          guarded (fun () -> Oracle.query_batch o (List.map (fun k -> pool.(k)) idx))
        with
        | Ok answers ->
          lat := (now () -. t0) :: !lat;
          n := !n + List.length answers;
          List.iter2
            (fun k a -> if k mod sample_every = 0 then smp := (k, a) :: !smp)
            idx answers
        | Error e -> errs := e :: !errs
      done;
      (!lat, !n, !smp, !errs))

type pass = { scalar : phase; batch : phase }

(* Pass [n] starts at its own place in the pool, and its batch phase
   reads another slice than its scalar phase, so consecutive passes do
   not replay the same queries in the same order. *)
let run_pass pool conns n =
  let offset = n * 7919 in
  let scalar = scalar_phase pool conns ~offset in
  let batch = batch_phase pool conns ~offset:(offset + 3 * pool_size / 7) in
  { scalar; batch }

let pass_wall p = p.scalar.wall +. p.batch.wall

(* Wire codec cost on a recorded s5378 round trip: the request frame and
   its reply, in microseconds per round trip. *)
let wire_costs pool chip_oracle =
  let qs = List.init lanes (fun k -> pool.(k)) in
  let req = Wire.Query_batch { design; assignments = qs } in
  let rep = Wire.Batch_result (Oracle.query_batch chip_oracle qs) in
  let per_round f =
    let n = ref 0 in
    let t0 = now () in
    while now () -. t0 < 0.25 do
      f ();
      incr n
    done;
    1e6 *. (now () -. t0) /. float_of_int !n
  in
  let req_b = Wire.encode ~id:1 req and rep_b = Wire.encode ~id:1 rep in
  let enc = per_round (fun () -> ignore (Wire.encode ~id:1 req); ignore (Wire.encode ~id:1 rep)) in
  let dec = per_round (fun () -> ignore (Wire.decode req_b); ignore (Wire.decode rep_b)) in
  (enc, dec)

(* In-process batched evaluation of the daemon's design over the same
   query stream: the floor under the batch-phase latency. *)
let engine_us_per_query pool chip =
  let o = Oracle.of_netlist ~memo:false chip in
  let n = ref 0 in
  let t0 = now () in
  while now () -. t0 < 0.5 do
    let base = !n mod pool_size in
    ignore (Oracle.query_batch o (List.init lanes (fun l -> pool.((base + l) mod pool_size))));
    n := !n + lanes
  done;
  1e6 *. (now () -. t0) /. float_of_int !n

let histogram_mean metrics name =
  match Cjson.member name metrics with
  | Some h -> (
    match (Cjson.mem_float "sum" h, Cjson.mem_int "count" h) with
    | Some s, Some c when c > 0 -> s /. float_of_int c
    | _ -> 0.0)
  | None -> 0.0

let run (o : opts) =
  let net, load_s = timed (fun () -> Benchmarks.by_name design) in
  let (chip, _), comb_s = timed (fun () -> Combinationalize.run net) in
  let chip_oracle = Oracle.of_netlist ~memo:false chip in
  let inputs = Oracle.input_names chip_oracle in
  let rng = Random.State.make [| o.seed; 5378 |] in
  let pool =
    Array.init pool_size (fun _ ->
        List.map (fun n -> (n, Random.State.bool rng)) inputs)
  in
  (* set-up: spawn the daemon and complete both clients' handshakes *)
  let setup () =
    let d = spawn_daemon o () in
    (d, connect_all d)
  in
  let (d, conns), setup_s =
    setup_median ~release:(fun (d, c) -> stop_daemon d c) setup
  in
  let passes_done, layers =
    if o.trace then begin
      (* a warm-up pass, then the untraced reference for the overhead and
         the traced pass, each on a fresh daemon so both start equally
         cold *)
      let warm = run_pass pool conns 0 in
      stop_daemon d conns;
      let d1 = spawn_daemon o () in
      let conns1 = connect_all d1 in
      let untraced = run_pass pool conns1 1 in
      stop_daemon d1 conns1;
      let tfile = Filename.concat o.work_dir "gklockd_trace.jsonl" in
      let mfile = Filename.concat o.work_dir "gklockd_metrics.json" in
      let d2 = spawn_daemon o ~env:[ "GKLOCK_TRACE=" ^ tfile ] ~metrics_out:mfile () in
      let conns2 = connect_all d2 in
      let traced = run_pass pool conns2 2 in
      let rss = peak_rss_mb (string_of_int d2.pid) in
      stop_daemon d2 conns2;
      let spans = Measure.spans_of_file tfile in
      let metrics =
        match Cjson.of_string (Fs.read_file mfile) with
        | Ok j -> j
        | Error _ | (exception Sys_error _) -> Cjson.Obj []
      in
      let enc, dec = wire_costs pool chip_oracle in
      ( ([ warm; untraced; traced ], rss, spans),
        [
          metric "wire.encode_us.batch" "us" enc;
          metric "wire.decode_us.batch" "us" dec;
          metric "gklockd.handle_s" "s" (Measure.total_of "gklockd.request" spans);
          metric "gklockd.flush_s" "s" (Measure.total_of "gklockd.flush" spans);
          metric "gklockd.queue_wait_us" "us"
            (1e6 *. histogram_mean metrics "gklockd.queue_wait_s");
          metric "gklockd.batch_fill_frac" "ratio"
            (histogram_mean metrics "gklockd.batch_fill" /. float_of_int lanes);
          metric "engine.batch_us_per_query" "us" (engine_us_per_query pool chip);
          metric "engine.compile_s" "s" (Measure.total_of "engine.compile" spans);
          metric "netlist.load_s" "s" load_s;
          metric "netlist.combinationalize_s" "s" comb_s;
          metric "trace.overhead_frac" "ratio"
            ((pass_wall traced /. pass_wall untraced) -. 1.0);
        ] )
    end
    else begin
      let acc = ref [] in
      let _, rss =
        passes ~seconds:o.seconds
          ~rss:(fun () -> peak_rss_mb (string_of_int d.pid))
          (fun () ->
            let p = run_pass pool conns (List.length !acc) in
            acc := p :: !acc;
            pass_wall p)
      in
      stop_daemon d conns;
      ((List.rev !acc, rss, []), [])
    end
  in
  let ps, rss, spans = passes_done in
  (* output check, outside the timed window *)
  let phases = List.concat_map (fun p -> [ p.scalar; p.batch ]) ps in
  let samples = List.concat_map (fun ph -> ph.samples) phases in
  let expected =
    Oracle.query_batch chip_oracle (List.map (fun (k, _) -> pool.(k)) samples)
  in
  let norm a = List.sort compare a in
  let wrong =
    List.filter_map
      (fun ((k, got), want) ->
        if norm got = norm want then None
        else Some (Printf.sprintf "query %d: daemon answer differs from in-process oracle" k))
      (List.combine samples expected)
  in
  let errors = List.concat_map (fun ph -> ph.errors) phases in
  let answered = sum_int (List.map (fun ph -> ph.answered) phases) in
  let failed = List.length wrong + List.length errors in
  let phase_stats name sel =
    let phs = List.map sel ps in
    let lat = List.concat_map (fun ph -> ph.latencies) phs in
    let n = List.length lat in
    let qps =
      float_of_int (sum_int (List.map (fun ph -> ph.answered) phs))
      /. sum (List.map (fun ph -> ph.wall) phs)
    in
    [ (metric ("oracle_qps." ^ name) "1/s" qps, n) ]
    @ (if n = 0 then []
       else [ (metric ("oracle_p50_us." ^ name) "us" (1e6 *. Measure.median lat), n) ])
    @
    match Measure.tail lat with
    | Some (p, v) ->
      [ (metric (Printf.sprintf "oracle_p%g_us.%s" p name) "us" (1e6 *. v), n) ]
    | None -> []
  in
  let work = List.map pass_wall ps in
  ( {
      attempted = answered + failed;
      passes = work;
      failed;
      problems = wrong @ errors;
      e2e =
        [
          metric "setup_s" "s" setup_s;
          metric "work_s" "s" (Measure.median work);
          metric "peak_rss_mb" "MB" rss;
        ];
      summary =
        phase_stats "scalar" (fun p -> p.scalar)
        @ phase_stats "batch" (fun p -> p.batch)
        @ [
            ( metric "fail_rate" "ratio"
                (float_of_int failed /. float_of_int (max 1 (answered + failed))),
              answered + failed );
          ];
      layers;
      counts = [];
    },
    spans )
