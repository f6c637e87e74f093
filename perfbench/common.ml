(* What every workload shares: the run options, the result record, the
   timed pass loop and process-level measurements. *)

type opts = {
  seed : int;
  seconds : float;  (** the measuring window of one run *)
  trace : bool;  (** traced run: per-layer metrics instead of end-to-end *)
  work_dir : string;  (** scratch space inside the checkout *)
  gklockd : string;  (** path of the built daemon binary *)
}

type metric = { m_name : string; m_value : float; m_unit : string }

let metric m_name m_unit m_value = { m_name; m_value; m_unit }

type result = {
  attempted : int;  (** attacks, oracle calls or campaign jobs *)
  failed : int;  (** of those, the ones whose output check failed *)
  problems : string list;  (** every failed check, in words *)
  e2e : metric list;  (** untraced runs: setup_s, work_s, peak_rss_mb *)
  passes : float list;  (** seconds of every timed pass, in order *)
  summary : (metric * int) list;
      (** the workload's own end-to-end figures with their sample counts,
          printed for people (attack_s, oracle_qps.scalar, ...) *)
  layers : metric list;  (** traced runs only *)
  counts : (string * int) list;
      (** exact counts that must repeat for a given seed *)
}

let now = Unix.gettimeofday

let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* Repeat [f] at least five times and until half a second of set-up has
   been timed, and keep the median duration and the last result: set-up
   ranges from sub-millisecond to a few hundred milliseconds, and the
   median of many repetitions keeps setup_s steady at both ends.  Every
   result but the last is passed to [release], outside the timer. *)
let setup_median ?(release = ignore) f =
  let rec go n spent acc =
    let r, dt = timed f in
    let acc = dt :: acc and spent = spent +. dt in
    if n + 1 >= 5 && spent >= 0.5 then (r, Measure.median acc)
    else begin
      release r;
      go (n + 1) spent acc
    end
  in
  go 0 0.0 []

(* Run [pass] (returning its own measured seconds) at least once and then
   again while another pass is predicted to finish inside the window.
   Returns the pass times in order and [rss ()] read right after the
   first pass: a peak read at the end would grow with the number of
   passes, and so shrink when the program gets slower. *)
let passes ~seconds ~rss pass =
  let start = now () in
  let rec go acc first_rss =
    let dt = pass () in
    let acc = dt :: acc in
    let first_rss = match first_rss with None -> Some (rss ()) | r -> r in
    let mean = List.fold_left ( +. ) 0.0 acc /. float_of_int (List.length acc) in
    if now () -. start +. mean <= seconds then go acc first_rss
    else (List.rev acc, Option.get first_rss)
  in
  go [] None

(* Peak resident set of a process, from /proc (Linux). *)
let peak_rss_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error _ -> 0.0
  | text ->
    String.split_on_char '\n' text
    |> List.find_map (fun l ->
           match String.split_on_char ':' l with
           | [ "VmHWM"; v ] ->
             Scanf.sscanf_opt (String.trim v) "%d kB" (fun kb ->
                 float_of_int kb /. 1024.0)
           | _ -> None)
    |> Option.value ~default:0.0

let self_rss_mb () = peak_rss_mb "self"

(* Same exact counts in every pass, or a problem naming the drift. *)
let same_counts what per_pass =
  match per_pass with
  | [] -> []
  | first :: rest ->
    List.filter (fun c -> c <> first) rest
    |> List.map (fun c ->
           Printf.sprintf "%s: exact counts differ between passes (%s vs %s)"
             what
             (String.concat "," (List.map string_of_int first))
             (String.concat "," (List.map string_of_int c)))

let sum = List.fold_left ( +. ) 0.0
let sum_int = List.fold_left ( + ) 0
