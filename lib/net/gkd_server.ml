let m_connections = Obs.Metrics.counter "gklockd.connections"
let m_queries = Obs.Metrics.counter "gklockd.queries"
let m_bad_frames = Obs.Metrics.counter "gklockd.bad_frames"
let m_over_quota = Obs.Metrics.counter "gklockd.over_quota"
let m_flushes = Obs.Metrics.counter "gklockd.flushes"
let m_flush_full = Obs.Metrics.counter "gklockd.flush_full"
let m_flush_complete = Obs.Metrics.counter "gklockd.flush_complete"
let m_flush_deadline = Obs.Metrics.counter "gklockd.flush_deadline"
let g_queue_depth = Obs.Metrics.gauge "gklockd.queue_depth"
let h_batch_fill = Obs.Metrics.histogram "gklockd.batch_fill"
let h_queue_wait = Obs.Metrics.histogram "gklockd.queue_wait_s"

(* One observation per frame and stage: payload decode (not the socket
   wait), engine evaluation (not the oracle-mutex wait) and reply
   encode (not the socket write). *)
let h_decode = Obs.Metrics.histogram "gklockd.decode_s"
let h_eval = Obs.Metrics.histogram "gklockd.eval_s"
let h_encode = Obs.Metrics.histogram "gklockd.encode_s"

let timed h f =
  let t0 = Unix.gettimeofday () in
  Fun.protect
    ~finally:(fun () -> Obs.Metrics.observe h (Unix.gettimeofday () -. t0))
    f

(* Per-client query counters are keyed by the client-chosen [Hello]
   name, which is attacker-controlled: cap how many distinct counters a
   long-running daemon will ever register, and fold the rest (and
   clients that never send a [Hello]) into one shared counter. *)
let max_client_counters = 256
let m_other_queries = Obs.Metrics.counter "gklockd.client_queries.other"

type config = {
  flush_lanes : int;
  flush_delay_s : float;
  max_queries_per_client : int option;
  client_deadline_s : float option;
  oracle_memo : bool;
  oracle_memo_cap : int option;
  strict_queries : bool;
  allow_tcp_shutdown : bool;
  metrics_out : string option;
  metrics_interval_s : float;
  server_name : string;
}

let default_config =
  {
    flush_lanes = Netlist.Engine.word_bits;
    flush_delay_s = 0.002;
    max_queries_per_client = None;
    client_deadline_s = None;
    oracle_memo = true;
    oracle_memo_cap = Some 65536;
    strict_queries = false;
    allow_tcp_shutdown = false;
    metrics_out = None;
    metrics_interval_s = 5.0;
    server_name = "gklockd/1";
  }

type conn = {
  c_fd : Unix.file_descr;
  mutable c_name : string;
  c_budget : Budget.t;
  c_wmu : Mutex.t;  (* serializes frame writes; guards c_closed *)
  mutable c_closed : bool;
  mutable c_counter : Obs.Metrics.counter;
  (* scalar flow state, guarded by [t.mu] (see the flush policy) *)
  mutable c_queued : int;  (* scalar queries queued, over all designs *)
  mutable c_design : string;  (* design of the latest queued query *)
  mutable c_answered : bool;  (* a scalar query has left a queue *)
  mutable c_pipelined : bool;  (* sticky: had two queued at once *)
}

type pending = {
  p_conn : conn;
  p_id : int;
  p_q : (string * bool) list;
  p_t : float;  (* arrival time, for queue-wait accounting *)
}

type design = {
  ds_name : string;
  ds_oracle : Oracle.t;
  ds_omu : Mutex.t;
      (* serializes every [Oracle.query_batch] on [ds_oracle]: the
         oracle's engine scratch and memo table are shared mutable
         state, and evaluations run both on reader threads (explicit
         [Query_batch] frames) and on the design's flusher thread *)
  ds_info : Wire.design_info;
  ds_mu : Mutex.t;  (* guards [ds_q] *)
  ds_q : pending Queue.t;
  ds_wake_r : Unix.file_descr;
  ds_wake_w : Unix.file_descr;
      (* self-pipe: a byte written here wakes the design's flusher *)
}

type t = {
  cfg : config;
  listen_fd : Unix.file_descr;
  bound : Frame_io.addr;
  designs : design list;
  by_name : (string, design) Hashtbl.t;
  client_counters : (string, Obs.Metrics.counter) Hashtbl.t;
      (* client-name -> counter, bounded by [max_client_counters] *)
  mu : Mutex.t;
      (* conns / readers / lifecycle state, and every connection's
         scalar flow state *)
  stop_cond : Condition.t;
  mutable conns : conn list;
  mutable readers : Thread.t list;
  mutable stopping : bool;
  mutable stopped : bool;
  mutable listener_closed : bool;
  mutable acceptor : Thread.t option;
  mutable flushers : Thread.t list;
  mutable dumper : Thread.t option;
  mutable next_conn : int;
}

(* ----- creation ----- *)

let combinational net =
  if Netlist.ffs net = [] then net else fst (Combinationalize.run net)

let mk_design cfg (name, net) =
  if name = "" then invalid_arg "Gkd_server.create: empty design name";
  let comb = combinational net in
  let wake_r, wake_w = Unix.pipe ~cloexec:true () in
  Unix.set_nonblock wake_r;
  Unix.set_nonblock wake_w;
  let oracle =
    Oracle.of_netlist ~partial:(not cfg.strict_queries) ~memo:cfg.oracle_memo
      ?memo_cap:cfg.oracle_memo_cap comb
  in
  {
    ds_name = name;
    ds_oracle = oracle;
    ds_omu = Mutex.create ();
    ds_info =
      {
        Wire.d_name = name;
        d_inputs = Oracle.input_names oracle;
        d_outputs = List.map fst (Netlist.outputs comb);
        d_cells = Netlist.num_nodes comb;
      };
    ds_mu = Mutex.create ();
    ds_q = Queue.create ();
    ds_wake_r = wake_r;
    ds_wake_w = wake_w;
  }

let close_wake_pipe ds =
  List.iter
    (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
    [ ds.ds_wake_r; ds.ds_wake_w ]

let create ~config ~listen designs =
  if config.flush_lanes < 1 then
    invalid_arg "Gkd_server.create: flush_lanes must be >= 1";
  if config.flush_delay_s <= 0.0 then
    invalid_arg "Gkd_server.create: flush_delay_s must be > 0";
  let by_name = Hashtbl.create 8 in
  let designs, listen_fd =
    try
      let designs =
        List.map
          (fun d ->
            let ds = mk_design config d in
            if Hashtbl.mem by_name ds.ds_name then begin
              close_wake_pipe ds;
              invalid_arg
                (Printf.sprintf "Gkd_server.create: duplicate design %S"
                   ds.ds_name)
            end;
            Hashtbl.replace by_name ds.ds_name ds;
            ds)
          designs
      in
      (designs, Frame_io.listen listen)
    with e ->
      Hashtbl.iter (fun _ ds -> close_wake_pipe ds) by_name;
      raise e
  in
  let bound =
    match listen with
    | Frame_io.Tcp (host, 0) -> (
      match Unix.getsockname listen_fd with
      | Unix.ADDR_INET (_, port) -> Frame_io.Tcp (host, port)
      | _ -> listen)
    | a -> a
  in
  {
    cfg = config;
    listen_fd;
    bound;
    designs;
    by_name;
    client_counters = Hashtbl.create 16;
    mu = Mutex.create ();
    stop_cond = Condition.create ();
    conns = [];
    readers = [];
    stopping = false;
    stopped = false;
    listener_closed = false;
    acceptor = None;
    flushers = [];
    dumper = None;
    next_conn = 0;
  }

let address t = t.bound

let live_connections t =
  Mutex.lock t.mu;
  let n = List.length t.conns in
  Mutex.unlock t.mu;
  n

let design_oracle t name =
  Option.map (fun ds -> ds.ds_oracle) (Hashtbl.find_opt t.by_name name)

(* ----- flusher wake-ups ----- *)

(* One byte on the self-pipe wakes the flusher from its [select].  A
   full pipe (EAGAIN) means a wake-up is already pending, so write
   errors are ignored. *)
let wake_byte = Bytes.make 1 '!'

let wake_flusher ds =
  try ignore (Unix.single_write ds.ds_wake_w wake_byte 0 1)
  with Unix.Unix_error _ -> ()

let drain_wakes ds =
  let buf = Bytes.create 64 in
  let rec go () =
    match Unix.read ds.ds_wake_r buf 0 (Bytes.length buf) with
    | 0 -> ()
    | _ -> go ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
    | exception Unix.Unix_error _ -> ()  (* EAGAIN: drained *)
  in
  go ()

(* ----- replies -----

   Writes to a connection come from its reader thread and from flusher
   threads, so they serialize on [c_wmu]; the same mutex guards
   [c_closed], which the close path sets before releasing the fd, so a
   late reply to a dead client is a silent no-op instead of a write to a
   recycled descriptor.

   [reply] must never raise: it runs on flusher threads, where an
   escaping exception would kill the flusher and permanently hang every
   scalar client of the design.  Beyond socket errors, [Wire.encode]
   raises [Invalid_argument] when the reply itself cannot be framed — a
   [Batch_result] can exceed [Wire.max_payload] even though the request
   fit (a design whose output names and bits outweigh its inputs') — so
   that case degrades to a structured [Server_error] frame telling the
   client to split its batch.  Encoding runs before the write lock is
   taken: only the socket write needs it. *)

let reply conn ~id msg =
  let frame =
    match timed h_encode (fun () -> Wire.encode ~id msg) with
    | b -> Some b
    | exception Invalid_argument _ -> (
      match msg with
      | Wire.Error _ -> None  (* unencodable error frame: give up *)
      | _ ->
        Some
          (Wire.encode ~id
             (Wire.Error
                {
                  code = Wire.Server_error;
                  detail =
                    Printf.sprintf
                      "reply (%s) exceeds the %d-byte frame cap; split the \
                       batch into smaller chunks"
                      (Wire.msg_type_name msg) Wire.max_payload;
                })))
  in
  Mutex.lock conn.c_wmu;
  (try
     match frame with
     | Some b when not conn.c_closed -> Frame_io.write_bytes conn.c_fd b
     | _ -> ()
   with Unix.Unix_error _ | Sys_error _ -> ());
  Mutex.unlock conn.c_wmu

let reply_error conn ~id code detail =
  reply conn ~id (Wire.Error { code; detail })

let quota_code = function
  | Budget.Queries | Budget.Iterations -> Wire.Over_quota_queries
  | Budget.Deadline -> Wire.Over_quota_deadline

(* ----- shutdown plumbing ----- *)

(* Only ever close the listener once; the acceptor thread normally does
   it on exit (closing the fd under a blocked [accept] in another thread
   would not wake it and risks fd reuse). *)
let close_listener t =
  Mutex.lock t.mu;
  if not t.listener_closed then begin
    t.listener_closed <- true;
    (try Unix.close t.listen_fd with Unix.Unix_error _ -> ())
  end;
  Mutex.unlock t.mu

let initiate_stop t =
  Mutex.lock t.mu;
  let first = not t.stopping in
  if first then begin
    t.stopping <- true;
    Condition.broadcast t.stop_cond
  end;
  Mutex.unlock t.mu;
  if first then begin
    (* wake the acceptor: shutdown unblocks a pending [accept] on
       Linux, and the nudge connection covers platforms where it does
       not — the acceptor sees [stopping] either way and exits *)
    (try Unix.shutdown t.listen_fd Unix.SHUTDOWN_ALL
     with Unix.Unix_error _ -> ());
    (try Unix.close (Frame_io.connect t.bound) with
    | Unix.Unix_error _ | Sys_error _ -> ());
    List.iter wake_flusher t.designs
  end

(* Reader-side connection teardown.  Membership in [t.conns] is the
   invariant "fd is open": both close (here) and the shutdown wake-up in
   [wait] run under [t.mu], so neither ever touches a recycled fd. *)
let close_conn t conn =
  Mutex.lock t.mu;
  let live = List.memq conn t.conns in
  if live then begin
    t.conns <- List.filter (fun c -> c != conn) t.conns;
    Mutex.lock conn.c_wmu;
    conn.c_closed <- true;
    (try Unix.close conn.c_fd with Unix.Unix_error _ -> ());
    Mutex.unlock conn.c_wmu
  end;
  Mutex.unlock t.mu;
  (* a word that was waiting on this connection may now be complete *)
  if live then List.iter wake_flusher t.designs

(* ----- request handling (reader threads) ----- *)

let sanitize_name s =
  let s = if String.length s > 64 then String.sub s 0 64 else s in
  String.map
    (fun ch ->
      match ch with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' | '_' | '.' -> ch
      | _ -> '_')
    s

let find_design t name = Hashtbl.find_opt t.by_name name

(* All engine work on a design funnels through here: reader threads
   (explicit batches) and the design's flusher contend on [ds_omu], so
   the oracle's scratch buffers and memo are only ever touched by one
   thread at a time. *)
let oracle_batch ds qs =
  Mutex.lock ds.ds_omu;
  match timed h_eval (fun () -> Oracle.query_batch ds.ds_oracle qs) with
  | rs ->
    Mutex.unlock ds.ds_omu;
    rs
  | exception e ->
    Mutex.unlock ds.ds_omu;
    raise e

let client_counter t name =
  Mutex.lock t.mu;
  let c =
    match Hashtbl.find_opt t.client_counters name with
    | Some c -> c
    | None ->
      if Hashtbl.length t.client_counters >= max_client_counters then
        m_other_queries
      else begin
        let c = Obs.Metrics.counter ("gklockd.client_queries." ^ name) in
        Hashtbl.replace t.client_counters name c;
        c
      end
  in
  Mutex.unlock t.mu;
  c

(* ----- the flush policy -----

   A design's pending word flushes at once when it is [Full]
   ([flush_lanes] lanes) or [Complete]: every live connection has a
   scalar query in this design's queue, each has had an earlier scalar
   query answered, and none has ever had two scalar queries queued at
   once.  Such a client is strictly request/reply ([Remote_oracle]
   sends its next query only after the reply), so no further lane can
   arrive and waiting would add latency without adding lanes.  A client
   proves it is request/reply only by querying again after a reply;
   until then (idle connections, pipelining clients, each connection's
   first query) the word waits until [flush_delay_s] after its oldest
   entry ([Deadline], which also covers the drain at shutdown).

   Lock order: [ds.ds_mu], then [t.mu], then [c_wmu].  Pushes and pops
   update the connections' flow state while holding both [ds.ds_mu]
   and [t.mu], so the completeness test sees the queue, the live
   connections and their flow state at one instant. *)

type flush_reason = Full | Complete | Deadline

(* Caller holds [ds.ds_mu] and [t.mu].  A complete word holds one entry
   per live connection, so the scan is bounded by [flush_lanes]. *)
let word_ready t ds =
  let n = Queue.length ds.ds_q in
  if n >= t.cfg.flush_lanes then Some Full
  else if
    t.conns <> []
    && List.compare_length_with t.conns n <= 0
    && List.for_all
         (fun c ->
           c.c_answered && (not c.c_pipelined) && c.c_queued = 1
           && c.c_design = ds.ds_name)
         t.conns
  then Some Complete
  else None

(* Queue a scalar query; [false] when the server is stopping.  Checking
   [t.stopping] under [ds.ds_mu] means no query is queued after the
   flusher's final drain. *)
let enqueue t ds conn ~id q =
  Mutex.lock ds.ds_mu;
  Mutex.lock t.mu;
  if t.stopping then begin
    Mutex.unlock t.mu;
    Mutex.unlock ds.ds_mu;
    false
  end
  else begin
    (* the first entry sets the flusher's deadline *)
    let wake_first = Queue.is_empty ds.ds_q in
    Queue.push
      { p_conn = conn; p_id = id; p_q = q; p_t = Unix.gettimeofday () }
      ds.ds_q;
    conn.c_queued <- conn.c_queued + 1;
    if conn.c_queued > 1 then conn.c_pipelined <- true;
    conn.c_design <- ds.ds_name;
    let wake = wake_first || word_ready t ds <> None in
    Mutex.unlock t.mu;
    let depth = Queue.length ds.ds_q in
    Mutex.unlock ds.ds_mu;
    Obs.Metrics.set g_queue_depth (float_of_int depth);
    if wake then wake_flusher ds;
    true
  end

(* Returns [false] when the reader loop should stop. *)
let handle t conn ~id msg =
  Obs.Trace.with_span
    ~args:
      [
        ("type", Cjson.Str (Wire.msg_type_name msg));
        ("client", Cjson.Str conn.c_name);
      ]
    "gklockd.request"
    (fun () ->
      match msg with
      | Wire.Hello { client; proto } ->
        if proto <> Wire.protocol_version then begin
          reply_error conn ~id Wire.Unsupported_version
            (Printf.sprintf "server speaks protocol %d, client asked for %d"
               Wire.protocol_version proto);
          true
        end
        else begin
          conn.c_name <- sanitize_name client;
          conn.c_counter <- client_counter t conn.c_name;
          reply conn ~id
            (Wire.Hello_ack
               { server = t.cfg.server_name; proto = Wire.protocol_version });
          true
        end
      | Wire.List_designs ->
        reply conn ~id (Wire.Designs (List.map (fun d -> d.ds_info) t.designs));
        true
      | Wire.Ping ->
        reply conn ~id Wire.Pong;
        true
      | Wire.Shutdown -> (
        (* on a unix: socket, anyone who can open the path may stop the
           daemon (same trust domain as the process); on tcp: any
           reachable host could, so remote shutdown is opt-in there *)
        match t.bound with
        | Frame_io.Tcp _ when not t.cfg.allow_tcp_shutdown ->
          reply_error conn ~id Wire.Not_permitted
            "shutdown over tcp is disabled (start the server with \
             allow_tcp_shutdown / --allow-tcp-shutdown to enable it)";
          true
        | Frame_io.Unix_path _ | Frame_io.Tcp _ ->
          reply conn ~id Wire.Shutdown_ack;
          initiate_stop t;
          false)
      | Wire.Query { design; assignment } -> (
        match find_design t design with
        | None ->
          reply_error conn ~id Wire.Unknown_design
            (Printf.sprintf "design %S is not hosted here" design);
          true
        | Some ds ->
          if not (enqueue t ds conn ~id assignment) then
            reply_error conn ~id Wire.Shutting_down "server is shutting down";
          true)
      | Wire.Query_batch { design; assignments } -> (
        match find_design t design with
        | None ->
          reply_error conn ~id Wire.Unknown_design
            (Printf.sprintf "design %S is not hosted here" design);
          true
        | Some ds -> (
          let n = List.length assignments in
          match Budget.note_queries conn.c_budget n with
          | exception Budget.Exhausted r ->
            Obs.Metrics.incr m_over_quota;
            reply_error conn ~id (quota_code r)
              (Printf.sprintf "batch of %d refused: client %s quota exhausted"
                 n (Budget.reason_name r));
            true
          | () -> (
            Obs.Metrics.add m_queries n;
            Obs.Metrics.add conn.c_counter n;
            match oracle_batch ds assignments with
            | rs ->
              reply conn ~id (Wire.Batch_result rs);
              true
            | exception Invalid_argument m ->
              reply_error conn ~id Wire.Bad_query m;
              true
            | exception e ->
              reply_error conn ~id Wire.Server_error (Printexc.to_string e);
              true)))
      | Wire.Hello_ack _ | Wire.Designs _ | Wire.Result _
      | Wire.Batch_result _ | Wire.Pong | Wire.Shutdown_ack | Wire.Error _ ->
        (* server-to-client messages arriving at the server *)
        reply_error conn ~id Wire.Bad_payload
          (Printf.sprintf "unexpected %s frame from a client"
             (Wire.msg_type_name msg));
        true)

let reader t conn () =
  (* hostile or corrupt bytes: answer with a structured error frame and
     drop the connection — a byte stream cannot be resynced *)
  let bad w =
    Obs.Metrics.incr m_bad_frames;
    reply_error conn ~id:0
      (Wire.error_code_of_wire_error w)
      (Wire.wire_error_message w)
  in
  let rec loop () =
    match Frame_io.read_raw conn.c_fd with
    | Ok (h, payload) -> (
      match timed h_decode (fun () -> Wire.decode_payload h payload) with
      | Ok { Wire.id; msg } -> if handle t conn ~id msg then loop ()
      | Error w -> bad w)
    | Error `Eof | Error (`Unix _) -> ()
    | Error (`Wire w) -> bad w
  in
  (try loop () with _ -> ());
  close_conn t conn

(* ----- the coalescing flusher (one thread per design) ----- *)

let flush ds lanes =
  let n_lanes = List.length lanes in
  Obs.Metrics.incr m_flushes;
  Obs.Metrics.observe h_batch_fill (float_of_int n_lanes);
  Obs.Trace.with_span
    ~args:
      [ ("design", Cjson.Str ds.ds_name); ("lanes", Cjson.Int n_lanes) ]
    "gklockd.flush"
    (fun () ->
      let now = Unix.gettimeofday () in
      (* charge each lane against its client's own budget; a quota that
         expired while the query sat in the queue drops the lane here,
         before any engine work, without disturbing its word-mates *)
      let survivors =
        List.filter
          (fun p ->
            Obs.Metrics.observe h_queue_wait (now -. p.p_t);
            match Budget.note_queries p.p_conn.c_budget 1 with
            | () -> true
            | exception Budget.Exhausted r ->
              Obs.Metrics.incr m_over_quota;
              reply_error p.p_conn ~id:p.p_id (quota_code r)
                (Printf.sprintf
                   "query dropped at flush: client %s quota exhausted"
                   (Budget.reason_name r));
              false)
          lanes
      in
      if survivors <> [] then begin
        Obs.Metrics.add m_queries (List.length survivors);
        List.iter
          (fun p -> Obs.Metrics.incr p.p_conn.c_counter)
          survivors;
        match oracle_batch ds (List.map (fun p -> p.p_q) survivors) with
        | rs ->
          List.iter2
            (fun p r -> reply p.p_conn ~id:p.p_id (Wire.Result r))
            survivors rs
        | exception Invalid_argument m ->
          List.iter
            (fun p -> reply_error p.p_conn ~id:p.p_id Wire.Bad_query m)
            survivors
        | exception e ->
          let m = Printexc.to_string e in
          List.iter
            (fun p -> reply_error p.p_conn ~id:p.p_id Wire.Server_error m)
            survivors
      end)

(* Caller holds [ds.ds_mu] and [t.mu]: pop up to [flush_lanes] entries
   and record that each connection's query has left the queue. *)
let take_word t ds =
  let lanes = ref [] in
  let k = ref 0 in
  while !k < t.cfg.flush_lanes && not (Queue.is_empty ds.ds_q) do
    let p = Queue.pop ds.ds_q in
    p.p_conn.c_queued <- p.p_conn.c_queued - 1;
    p.p_conn.c_answered <- true;
    lanes := p :: !lanes;
    incr k
  done;
  List.rev !lanes

(* Caller holds [ds.ds_mu] and [t.mu]. *)
let next_step t ds =
  if Queue.is_empty ds.ds_q then if t.stopping then `Exit else `Sleep None
  else
    match word_ready t ds with
    | Some r -> `Flush r
    | None ->
      let due = (Queue.peek ds.ds_q).p_t +. t.cfg.flush_delay_s in
      let left = due -. Unix.gettimeofday () in
      if t.stopping || left <= 0.0 then `Flush Deadline else `Sleep (Some left)

(* Block until a wake-up byte arrives or [timeout] seconds pass.  A
   failed [select] only costs an early re-check: the flusher must never
   die, or every scalar client of the design would hang. *)
let await ds timeout =
  let timeout = Option.value timeout ~default:(-1.0) in
  (try ignore (Unix.select [ ds.ds_wake_r ] [] [] timeout)
   with Unix.Unix_error _ -> ());
  drain_wakes ds

let flusher t ds () =
  let rec loop () =
    Mutex.lock ds.ds_mu;
    Mutex.lock t.mu;
    let step = next_step t ds in
    let lanes = match step with `Flush _ -> take_word t ds | _ -> [] in
    Mutex.unlock t.mu;
    let depth = Queue.length ds.ds_q in
    Mutex.unlock ds.ds_mu;
    match step with
    | `Exit -> ()
    | `Sleep timeout ->
      await ds timeout;
      loop ()
    | `Flush reason ->
      Obs.Metrics.set g_queue_depth (float_of_int depth);
      Obs.Metrics.incr
        (match reason with
        | Full -> m_flush_full
        | Complete -> m_flush_complete
        | Deadline -> m_flush_deadline);
      (* the flusher must outlive any single bad word: [flush] handles
         engine and reply errors itself, so anything escaping is a bug —
         answer the word's lanes with a structured error rather than
         dying and hanging every future scalar query on this design *)
      (try flush ds lanes
       with e ->
         let m = Printexc.to_string e in
         List.iter
           (fun p -> reply_error p.p_conn ~id:p.p_id Wire.Server_error m)
           lanes);
      loop ()
  in
  loop ()

(* ----- accept loop / metrics dumper ----- *)

let acceptor t () =
  let rec loop () =
    match Unix.accept t.listen_fd with
    | fd, _ ->
      if t.stopping then begin
        (try Unix.close fd with Unix.Unix_error _ -> ());
        close_listener t
      end
      else begin
        Obs.Metrics.incr m_connections;
        Mutex.lock t.mu;
        let num = t.next_conn in
        t.next_conn <- num + 1;
        let name = Printf.sprintf "client-%d" num in
        let conn =
          {
            c_fd = fd;
            c_name = name;
            c_budget =
              Budget.create ?max_queries:t.cfg.max_queries_per_client
                ?deadline_s:t.cfg.client_deadline_s ();
            c_wmu = Mutex.create ();
            c_closed = false;
            (* shared until a [Hello] names the client: a fresh counter
               per connection would grow the registry without bound *)
            c_counter = m_other_queries;
            c_queued = 0;
            c_design = "";
            c_answered = false;
            c_pipelined = false;
          }
        in
        t.conns <- conn :: t.conns;
        t.readers <- Thread.create (reader t conn) () :: t.readers;
        Mutex.unlock t.mu;
        loop ()
      end
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
    | exception Unix.Unix_error _ ->
      (* listener shut down by [initiate_stop] (or died): stop accepting *)
      close_listener t;
      if not t.stopping then initiate_stop t
  in
  loop ()

let write_metrics t =
  match t.cfg.metrics_out with
  | None -> ()
  | Some path -> ( try Obs.Metrics.write_file path with Sys_error _ -> ())

let dumper t () =
  let rec loop () =
    if not t.stopping then begin
      (* sliced sleep so shutdown is not delayed by a long interval *)
      let slept = ref 0.0 in
      while (not t.stopping) && !slept < t.cfg.metrics_interval_s do
        Thread.delay 0.05;
        slept := !slept +. 0.05
      done;
      write_metrics t;
      loop ()
    end
  in
  loop ()

let start t =
  Mutex.lock t.mu;
  if t.acceptor = None && not t.stopping then begin
    t.acceptor <- Some (Thread.create (acceptor t) ());
    t.flushers <- List.map (fun ds -> Thread.create (flusher t ds) ()) t.designs;
    if t.cfg.metrics_out <> None then
      t.dumper <- Some (Thread.create (dumper t) ())
  end;
  Mutex.unlock t.mu

let wait t =
  Mutex.lock t.mu;
  while not t.stopping do
    Condition.wait t.stop_cond t.mu
  done;
  if t.stopped then Mutex.unlock t.mu
  else begin
    Mutex.unlock t.mu;
    (match t.acceptor with Some th -> Thread.join th | None -> ());
    close_listener t;
    List.iter Thread.join t.flushers;
    (* wake readers blocked in [read]: shutdown their sockets under
       [t.mu] (fd still open — the conn is still in [t.conns]) *)
    Mutex.lock t.mu;
    List.iter
      (fun c ->
        try Unix.shutdown c.c_fd Unix.SHUTDOWN_ALL
        with Unix.Unix_error _ -> ())
      t.conns;
    let readers = t.readers in
    Mutex.unlock t.mu;
    List.iter Thread.join readers;
    (match t.dumper with Some th -> Thread.join th | None -> ());
    (match t.bound with
    | Frame_io.Unix_path p -> (
      try if Sys.file_exists p then Sys.remove p with Sys_error _ -> ())
    | Frame_io.Tcp _ -> ());
    write_metrics t;
    Mutex.lock t.mu;
    if not t.stopped then begin
      (* every thread that could wake a flusher has been joined *)
      List.iter close_wake_pipe t.designs;
      t.stopped <- true
    end;
    Mutex.unlock t.mu
  end

let stop t =
  initiate_stop t;
  wait t

let run ~config ~listen designs =
  let t = create ~config ~listen designs in
  start t;
  wait t
