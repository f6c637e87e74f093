(* Statistics, trace reading and metric naming for the gklock benchmark.
   Kept free of workload code so the tests in test/ can pin each rule. *)

(* ----- order statistics ----- *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

let median xs =
  match sorted xs with
  | [||] -> invalid_arg "Measure.median: no samples"
  | a ->
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* 1-based nearest rank of percentile [p] among [n] samples; the epsilon
   keeps 99.9 % of 10000 at rank 9990 despite float rounding. *)
let rank p n = int_of_float (Float.ceil ((p *. float_of_int n /. 100.0) -. 1e-9))

(* Nearest-rank percentile: the smallest sample with at least [p]% of the
   samples at or below it. *)
let percentile xs p =
  match sorted xs with
  | [||] -> invalid_arg "Measure.percentile: no samples"
  | a ->
    let n = Array.length a in
    a.(max 0 (min (n - 1) (rank p n - 1)))

let tail_candidates = [ 99.9; 99.0; 95.0; 90.0; 75.0 ]

(* The highest candidate percentile that still has at least ten samples
   strictly beyond its rank, with its value; [None] when even p75 has
   fewer than ten samples beyond it. *)
let tail xs =
  let n = List.length xs in
  List.find_map
    (fun p ->
      if n - rank p n >= 10 then Some (p, percentile xs p) else None)
    tail_candidates

(* ----- spans ----- *)

type span = {
  name : string;
  tid : int;
  t0 : float;  (** seconds since the trace was enabled *)
  t1 : float;
}

let duration s = s.t1 -. s.t0

(* Pair "B"/"E" records of a Chrome-trace JSONL file into spans.  Records
   are paired per (tid, name): system threads of one domain share a tid,
   so two threads' spans of different names may interleave, and pairing
   by name keeps every span's total exact even then. *)
let spans_of_lines lines =
  let open_ = Hashtbl.create 16 in
  let out = ref [] in
  List.iter
    (fun line ->
      if String.trim line <> "" then
        match Cjson.of_string line with
        | Error _ -> ()
        | Ok j -> (
          match
            ( Cjson.mem_str "name" j,
              Cjson.mem_str "ph" j,
              Cjson.mem_int "ts" j,
              Cjson.mem_int "tid" j )
          with
          | Some name, Some "B", Some ts, Some tid ->
            let k = (tid, name) in
            let stack = Option.value (Hashtbl.find_opt open_ k) ~default:[] in
            Hashtbl.replace open_ k ((float_of_int ts /. 1e6) :: stack)
          | Some name, Some "E", Some ts, Some tid -> (
            let k = (tid, name) in
            match Hashtbl.find_opt open_ k with
            | Some (t0 :: rest) ->
              Hashtbl.replace open_ k rest;
              out := { name; tid; t0; t1 = float_of_int ts /. 1e6 } :: !out
            | _ -> ())
          | _ -> ()))
    lines;
  List.stable_sort (fun a b -> compare a.t0 b.t0) (List.rev !out)

let spans_of_file path =
  if Sys.file_exists path then
    spans_of_lines (Fs.fold_lines path (fun acc l -> l :: acc) [] |> List.rev)
  else []

(* Self time of every span: its duration minus the time its direct
   children cover.  A child is a span on the same tid that lies inside
   the parent's interval; siblings nest LIFO, so direct children never
   overlap one another.  Result is in the order of [spans]. *)
let self_times spans =
  let indexed = List.mapi (fun i s -> (i, s)) spans in
  let order =
    List.stable_sort
      (fun (_, a) (_, b) ->
        match compare a.tid b.tid with
        | 0 -> (
          match compare a.t0 b.t0 with 0 -> compare b.t1 a.t1 | c -> c)
        | c -> c)
      indexed
  in
  let self = Array.of_list (List.map duration spans) in
  let stack = ref [] in
  List.iter
    (fun (i, s) ->
      let rec pop () =
        match !stack with
        | (_, p) :: rest when p.tid <> s.tid || p.t1 < s.t1 || p.t1 <= s.t0 ->
          stack := rest;
          pop ()
        | _ -> ()
      in
      pop ();
      (match !stack with
       | (j, _) :: _ -> self.(j) <- self.(j) -. duration s
       | [] -> ());
      stack := (i, s) :: !stack)
    order;
  List.map2 (fun s t -> (s, t)) spans (Array.to_list self)

type span_total = { st_count : int; st_total : float; st_self : float }

(* Per-name count, total and self time, sorted by total time, largest
   first. *)
let span_table spans =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (s, self) ->
      let c =
        Option.value (Hashtbl.find_opt tbl s.name)
          ~default:{ st_count = 0; st_total = 0.0; st_self = 0.0 }
      in
      Hashtbl.replace tbl s.name
        {
          st_count = c.st_count + 1;
          st_total = c.st_total +. duration s;
          st_self = c.st_self +. self;
        })
    (self_times spans);
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  |> List.sort (fun (_, a) (_, b) -> compare b.st_total a.st_total)

let total_of name spans =
  List.fold_left
    (fun acc s -> if s.name = name then acc +. duration s else acc)
    0.0 spans

let count_of name spans =
  List.length (List.filter (fun s -> s.name = name) spans)

(* Spans named [name] inside [outer]'s interval on the same tid. *)
let within outer name spans =
  List.filter
    (fun s ->
      s.name = name && s.tid = outer.tid && s.t0 >= outer.t0 && s.t1 <= outer.t1)
    spans

(* ----- metric names ----- *)

let valid_name s =
  let n = String.length s in
  n >= 1 && n <= 64
  && (match s.[0] with
      | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' -> true
      | _ -> false)
  && String.for_all
       (function
         | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '.' | '-' -> true
         | _ -> false)
       s

let valid_unit s =
  let n = String.length s in
  n >= 1 && n <= 16
  && String.for_all
       (function
         | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '/' | '%' | '.' | '-' ->
           true
         | _ -> false)
       s
