exception Abort
exception Transient of string

type config = { workers : int; timeout_s : float; max_retries : int }

let default_config =
  { workers = Parallel.default_domains (); timeout_s = 300.0; max_retries = 1 }

type stats = {
  ran : int;
  ok : int;
  failed : int;
  timed_out : int;
  skipped : int;
  retries : int;
  aborted : bool;
  abandoned : int;
}

type worker_outcome =
  | W_ok of Cjson.t
  | W_transient of string
  | W_abort
  | W_exn of string

type slot = {
  sl_job : Campaign_job.t;
  sl_attempt : int;
  sl_started : float;
  sl_deadline : float;
  sl_cell : worker_outcome option Atomic.t;
  sl_domain : unit Domain.t;
}

let now () = Unix.gettimeofday ()

let m_jobs_ok = Obs.Metrics.counter "campaign.jobs_ok"
let m_jobs_failed = Obs.Metrics.counter "campaign.jobs_failed"
let m_jobs_timed_out = Obs.Metrics.counter "campaign.jobs_timed_out"
let m_jobs_retried = Obs.Metrics.counter "campaign.jobs_retried"
let m_jobs_skipped = Obs.Metrics.counter "campaign.jobs_skipped"
let m_jobs_adopted = Obs.Metrics.counter "campaign.jobs_adopted"
let h_job_wall = Obs.Metrics.histogram "campaign.job_wall_s"

(* Integer metrics worth surfacing in the telemetry trace alongside the
   lifecycle event (attack iterations, DIP counts, ...). *)
let lift_metrics payload =
  List.filter_map
    (fun name ->
      match Cjson.mem_int name payload with
      | Some v -> Some (name, Cjson.Int v)
      | None -> None)
    [ "iterations"; "dips"; "mismatches"; "conflicts" ]

(* ----- scheduler wake-ups -----

   A worker writes one byte to a self-pipe after publishing its outcome,
   and the scheduler waits on the pipe in [select], so it reacts to a
   finished job at once instead of on a polling tick.  A full pipe
   (EAGAIN) means a wake-up is already pending.  A domain abandoned past
   its timeout may finish after the run returns; [wk_closed], under the
   mutex, keeps it from writing to a closed (and possibly reused) fd. *)

type wake = {
  wk_r : Unix.file_descr;
  wk_w : Unix.file_descr;
  wk_mu : Mutex.t;
  mutable wk_closed : bool;
}

let wake_byte = Bytes.make 1 '!'

let wake_create () =
  let r, w = Unix.pipe ~cloexec:true () in
  Unix.set_nonblock r;
  Unix.set_nonblock w;
  { wk_r = r; wk_w = w; wk_mu = Mutex.create (); wk_closed = false }

let wake_signal wk =
  Mutex.protect wk.wk_mu (fun () ->
      if not wk.wk_closed then
        try ignore (Unix.single_write wk.wk_w wake_byte 0 1)
        with Unix.Unix_error _ -> ())

let wake_close wk =
  Mutex.protect wk.wk_mu (fun () ->
      if not wk.wk_closed then begin
        wk.wk_closed <- true;
        Unix.close wk.wk_r;
        Unix.close wk.wk_w
      end)

(* Block until a worker's byte arrives or [timeout] seconds pass, then
   drain the pipe.  An interrupted or failed [select] only costs an early
   re-check. *)
let wake_await wk timeout =
  (try ignore (Unix.select [ wk.wk_r ] [] [] (Float.max 0.0 timeout))
   with Unix.Unix_error _ -> ());
  let buf = Bytes.create 64 in
  let rec drain () =
    match Unix.read wk.wk_r buf 0 (Bytes.length buf) with
    | 0 -> ()
    | _ -> drain ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> drain ()
    | exception Unix.Unix_error _ -> ()  (* EAGAIN: drained *)
  in
  drain ()

(* Longest wait between two [should_abort] polls while jobs run. *)
let abort_check_s = 0.05

let run ~store ?(telemetry = Telemetry.null ()) ?(should_abort = fun () -> false)
    config ~jobs ~exec =
  if config.workers < 1 then
    invalid_arg "Campaign_runner.run: workers must be >= 1";
  if config.max_retries < 0 then
    invalid_arg "Campaign_runner.run: max_retries must be >= 0";
  let pending = Queue.create () in
  let skipped = ref 0 in
  List.iter
    (fun (j : Campaign_job.t) ->
      (* consult the whole store, not just this campaign: a result
         computed by any sibling campaign is adopted instead of re-run *)
      match Job_store.find store j.Campaign_job.id with
      | Some (_, `Own) ->
        incr skipped;
        Obs.Metrics.incr m_jobs_skipped;
        Telemetry.emit telemetry ~job:j.Campaign_job.id ~event:"skipped" []
      | Some (_, `Adopted) ->
        incr skipped;
        Obs.Metrics.incr m_jobs_adopted;
        Telemetry.emit telemetry ~job:j.Campaign_job.id ~event:"adopted" []
      | None ->
        Telemetry.emit telemetry ~job:j.Campaign_job.id ~event:"queued"
          [ ("spec", Campaign_job.spec_to_json j.Campaign_job.spec) ];
        Queue.add (j, 1) pending)
    jobs;
  let ran = ref 0 and ok = ref 0 and failed = ref 0 in
  let timed_out = ref 0 and retries = ref 0 and abandoned = ref 0 in
  let aborted = ref false in
  let in_flight = ref [] in
  let wake = wake_create () in
  Fun.protect ~finally:(fun () -> wake_close wake) @@ fun () ->
  let spawn ((job : Campaign_job.t), attempt) =
    let cell = Atomic.make None in
    let dom =
      Domain.spawn (fun () ->
          (* One span per job attempt, emitted from the worker domain, so
             a trace shows per-worker lanes with job occupancy. *)
          let r =
            match
              Obs.Trace.with_span
                ~args:
                  [
                    ("job", Cjson.Str job.Campaign_job.id);
                    ("attempt", Cjson.Int attempt);
                  ]
                "campaign.job"
                (fun () -> Parallel.run_sequentially (fun () -> exec job))
            with
            | payload -> W_ok payload
            | exception Abort -> W_abort
            | exception Transient msg -> W_transient msg
            | exception e -> W_exn (Printexc.to_string e)
          in
          Atomic.set cell (Some r);
          wake_signal wake)
    in
    Telemetry.emit telemetry ~job:job.Campaign_job.id ~attempt ~event:"started"
      [];
    let t0 = now () in
    {
      sl_job = job;
      sl_attempt = attempt;
      sl_started = t0;
      sl_deadline =
        (if config.timeout_s > 0.0 then t0 +. config.timeout_s else infinity);
      sl_cell = cell;
      sl_domain = dom;
    }
  in
  let record sl outcome =
    incr ran;
    Job_store.append store
      {
        Job_store.r_id = sl.sl_job.Campaign_job.id;
        r_spec = Campaign_job.spec_to_json sl.sl_job.Campaign_job.spec;
        r_outcome = outcome;
        r_wall_s = now () -. sl.sl_started;
      }
  in
  let handle sl r =
    let wall_s = now () -. sl.sl_started in
    let job = sl.sl_job.Campaign_job.id in
    Obs.Metrics.observe h_job_wall wall_s;
    match r with
    | W_ok payload ->
      incr ok;
      Obs.Metrics.incr m_jobs_ok;
      record sl (Job_store.Done payload);
      Telemetry.emit telemetry ~job ~attempt:sl.sl_attempt ~wall_s
        ~event:"finished" (lift_metrics payload)
    | W_transient msg when sl.sl_attempt <= config.max_retries ->
      incr retries;
      Obs.Metrics.incr m_jobs_retried;
      Obs.Trace.instant
        ~args:
          [
            ("job", Cjson.Str job);
            ("attempt", Cjson.Int sl.sl_attempt);
            ("cause", Cjson.Str msg);
          ]
        "campaign.retry";
      Telemetry.emit telemetry ~job ~attempt:sl.sl_attempt ~wall_s
        ~event:"retried"
        [ ("message", Cjson.Str msg) ];
      Queue.add (sl.sl_job, sl.sl_attempt + 1) pending
    | W_transient msg | W_exn msg ->
      incr failed;
      Obs.Metrics.incr m_jobs_failed;
      Obs.Trace.instant
        ~args:
          [
            ("job", Cjson.Str job);
            ("attempt", Cjson.Int sl.sl_attempt);
            ("cause", Cjson.Str msg);
          ]
        "campaign.failed";
      record sl
        (Job_store.Failed
           {
             kind = Job_store.Exception;
             message = msg;
             attempts = sl.sl_attempt;
           });
      Telemetry.emit telemetry ~job ~attempt:sl.sl_attempt ~wall_s
        ~event:"failed"
        [ ("message", Cjson.Str msg) ]
    | W_abort ->
      aborted := true;
      Telemetry.emit telemetry ~job ~attempt:sl.sl_attempt ~wall_s
        ~event:"aborted" []
  in
  let expire sl =
    (* The domain cannot be killed; leave it running detached and record
       the job as timed out. *)
    incr abandoned;
    incr timed_out;
    Obs.Metrics.incr m_jobs_timed_out;
    Obs.Trace.instant
      ~args:
        [
          ("job", Cjson.Str sl.sl_job.Campaign_job.id);
          ("attempt", Cjson.Int sl.sl_attempt);
          ("timeout_s", Cjson.Float config.timeout_s);
        ]
      "campaign.timeout";
    record sl
      (Job_store.Failed
         {
           kind = Job_store.Timeout;
           message = Printf.sprintf "timed out after %.1fs" config.timeout_s;
           attempts = sl.sl_attempt;
         });
    Telemetry.emit telemetry ~job:sl.sl_job.Campaign_job.id
      ~attempt:sl.sl_attempt
      ~wall_s:(now () -. sl.sl_started)
      ~event:"timeout" []
  in
  while (not (Queue.is_empty pending)) || !in_flight <> [] do
    (* the cooperative abort (a SIGINT handler's flag): stop dispatching,
       let in-flight jobs drain and checkpoint, report aborted — same
       semantics as an executor raising Abort, but checked here on the
       scheduler so it is safe from an asynchronous signal context *)
    if (not !aborted) && should_abort () then begin
      aborted := true;
      Obs.Trace.instant "campaign.abort_requested";
      Telemetry.emit telemetry ~job:"-" ~event:"abort_requested" []
    end;
    (* Reap finished and expired slots first, and refill the freed slots
       before recording them: the store's appends fsync, and a worker
       should not idle behind them. *)
    let finished =
      List.filter_map
        (fun sl ->
          match Atomic.get sl.sl_cell with
          | Some r ->
            Domain.join sl.sl_domain;
            Some (sl, r)
          | None -> None)
        !in_flight
    in
    let t = now () in
    let expired =
      List.filter
        (fun sl -> Option.is_none (Atomic.get sl.sl_cell) && t > sl.sl_deadline)
        !in_flight
    in
    let reaped = List.map fst finished @ expired in
    in_flight := List.filter (fun sl -> not (List.memq sl reaped)) !in_flight;
    (* an executor's Abort must stop dispatch before the refill *)
    let aborts, done_ =
      List.partition (fun (_, r) -> match r with W_abort -> true | _ -> false)
        finished
    in
    List.iter (fun (sl, r) -> handle sl r) aborts;
    if !aborted then Queue.clear pending;
    while
      (not !aborted)
      && List.length !in_flight < config.workers
      && not (Queue.is_empty pending)
    do
      in_flight := spawn (Queue.pop pending) :: !in_flight
    done;
    List.iter (fun (sl, r) -> handle sl r) done_;
    List.iter expire expired;
    if reaped = [] && !in_flight <> [] then
      let nearest =
        List.fold_left (fun d sl -> Float.min d sl.sl_deadline) infinity !in_flight
      in
      wake_await wake (Float.min abort_check_s (nearest -. now ()))
  done;
  {
    ran = !ran;
    ok = !ok;
    failed = !failed;
    timed_out = !timed_out;
    skipped = !skipped;
    retries = !retries;
    aborted = !aborted;
    abandoned = !abandoned;
  }
