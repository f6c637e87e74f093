(** The campaign worker pool: domains, timeouts, retries, checkpointing.

    Jobs already present in the campaign manifest are skipped (resume),
    results computed by a sibling campaign in the shared store are
    adopted; the rest are
    dispatched to up to [workers] concurrent OCaml 5 domains, one domain
    per job execution.  A worker wakes the scheduler through a self-pipe
    when it finishes, and the scheduler waits on that pipe no longer than
    the nearest in-flight deadline or 50 ms (the {!run} [should_abort]
    poll).  It refills the freed slots first, then records the finished
    jobs:

    - a finished job is recorded in the store as [Done] (payload) or
      [Failed] ([Exception] with the printed exception);
    - a job that raises {!Transient} is re-queued up to [max_retries]
      extra attempts before it is recorded as failed;
    - a job still running past [timeout_s] is recorded as [Failed]
      ([Timeout]) and its domain {e abandoned} — domains cannot be
      killed, so the stray computation keeps its core until it returns
      (its eventual result is discarded) but the campaign moves on.

    One crashing, hanging or sleeping job therefore never poisons its
    siblings or the campaign: every outcome lands in the store as data.

    Each job execution runs under {!Parallel.run_sequentially}, so
    library code that calls {!Parallel.map} does not oversubscribe the
    machine with nested domain fan-out. *)

(** Raised by an executor to stop the whole campaign gracefully: nothing
    is recorded for the raising job, queued jobs stay queued, other
    in-flight jobs drain normally.  This is how tests (and a SIGINT
    handler) model killing a campaign mid-run. *)
exception Abort

(** [Transient msg]: the attempt failed for a reason worth retrying
    (flaky I/O, resource exhaustion...).  Any other exception fails the
    job immediately. *)
exception Transient of string

type config = {
  workers : int;     (** concurrent job domains, >= 1 *)
  timeout_s : float; (** per-job wall-clock budget; <= 0 = no timeout *)
  max_retries : int; (** extra attempts for {!Transient} failures *)
}

val default_config : config

type stats = {
  ran : int;        (** jobs that reached a recorded outcome this run *)
  ok : int;
  failed : int;     (** recorded exception failures *)
  timed_out : int;  (** recorded timeouts *)
  skipped : int;    (** already in the store (own records + adopted) *)
  retries : int;    (** re-queued transient attempts *)
  aborted : bool;   (** an executor raised {!Abort} *)
  abandoned : int;  (** domains left running past their timeout *)
}

(** [run ~store ?telemetry ?should_abort config ~jobs ~exec] drives the
    pool until every job has an outcome (or {!Abort}).  [should_abort]
    is polled by the scheduler at least every 50 ms while jobs run; once
    it returns true the run behaves as if an executor raised {!Abort} —
    no new jobs start, in-flight jobs drain and checkpoint normally, and
    the stats report [aborted = true].  This is how `gklock campaign run` turns a
    SIGINT into a graceful, resumable stop: the handler only flips a
    flag, the scheduler does the shutdown at a safe point.
    @raise Invalid_argument on [workers < 1] or [max_retries < 0]. *)
val run :
  store:Job_store.t ->
  ?telemetry:Telemetry.t ->
  ?should_abort:(unit -> bool) ->
  config ->
  jobs:Campaign_job.t list ->
  exec:(Campaign_job.t -> Cjson.t) ->
  stats
