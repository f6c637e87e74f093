(* Child processes this benchmark started.  Every one is waited for, and
   any still running when the benchmark exits (normally, on an exception
   or on SIGTERM/SIGINT) is killed and reaped first. *)

let live = ref []

let register pid = live := pid :: !live

let rec wait_exit pid deadline =
  match Unix.waitpid [ Unix.WNOHANG ] pid with
  | 0, _ when Unix.gettimeofday () < deadline ->
    Unix.sleepf 0.01;
    wait_exit pid deadline
  | 0, _ ->
    (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
    ignore (Unix.waitpid [] pid)
  | _ -> ()
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait_exit pid deadline
  | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()

(* Wait up to 10 s for [pid] to exit on its own, then kill it. *)
let reap pid =
  wait_exit pid (Unix.gettimeofday () +. 10.0);
  live := List.filter (( <> ) pid) !live

let kill_all () =
  List.iter
    (fun pid ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
    !live;
  live := []

let () =
  at_exit kill_all;
  List.iter
    (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> exit 2)))
    [ Sys.sigterm; Sys.sigint ]
