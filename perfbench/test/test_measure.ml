(* The benchmark's own rules: the tail-percentile choice, self time from
   spans, and metric-name validation. *)

let floats n = List.init n (fun i -> float_of_int (i + 1))

let check_tail n expected () =
  Alcotest.(check (option (pair (float 0.0) (float 0.0))))
    (Printf.sprintf "%d samples" n) expected
    (Measure.tail (floats n))

let tail_cases =
  [
    (* p99 of 1000 leaves exactly 10 beyond it; p99.9 leaves 1 *)
    ("p99 at 1000", `Quick, check_tail 1000 (Some (99.0, 990.0)));
    (* 999 samples: p99's rank is 990, only 9 beyond, so p95 *)
    ("p95 at 999", `Quick, check_tail 999 (Some (95.0, 950.0)));
    ("p99.9 at 10000", `Quick, check_tail 10000 (Some (99.9, 9990.0)));
    ("p75 at 40", `Quick, check_tail 40 (Some (75.0, 30.0)));
    ("none at 39", `Quick, check_tail 39 None);
    ( "median",
      `Quick,
      fun () ->
        Alcotest.(check (float 0.0)) "odd" 2.0 (Measure.median [ 3.0; 1.0; 2.0 ]);
        Alcotest.(check (float 0.0)) "even" 2.5 (Measure.median [ 4.0; 1.0; 3.0; 2.0 ]) );
  ]

let span ?(tid = 0) name t0 t1 = { Measure.name; tid; t0; t1 }

let self_of name table =
  match List.assoc_opt name table with
  | Some t -> (t.Measure.st_count, t.Measure.st_total, t.Measure.st_self)
  | None -> Alcotest.failf "no span %s" name

let triple = Alcotest.(triple int (float 1e-9) (float 1e-9))

let test_self_time () =
  (* run [0,10] holds solve [1,4] and iteration [5,9]; the iteration holds
     a query [6,7]; a span on another tid inside the same interval is not
     a child *)
  let spans =
    [
      span "run" 0.0 10.0;
      span "solve" 1.0 4.0;
      span "iteration" 5.0 9.0;
      span "query" 6.0 7.0;
      span ~tid:1 "other" 2.0 8.0;
    ]
  in
  let t = Measure.span_table spans in
  Alcotest.check triple "run" (1, 10.0, 3.0) (self_of "run" t);
  Alcotest.check triple "iteration" (1, 4.0, 3.0) (self_of "iteration" t);
  Alcotest.check triple "query" (1, 1.0, 1.0) (self_of "query" t);
  Alcotest.check triple "other tid" (1, 6.0, 6.0) (self_of "other" t)

let test_siblings () =
  (* back-to-back siblings and a repeated name sum per name *)
  let spans =
    [ span "run" 0.0 6.0; span "solve" 0.0 2.0; span "solve" 2.0 5.0 ]
  in
  let t = Measure.span_table spans in
  Alcotest.check triple "run" (1, 6.0, 1.0) (self_of "run" t);
  Alcotest.check triple "solve" (2, 5.0, 5.0) (self_of "solve" t)

let test_spans_of_lines () =
  (* two threads of one domain share a tid: pairing by name keeps both
     spans' totals exact although they interleave *)
  let line name ph ts =
    Printf.sprintf {|{"name":"%s","ph":"%s","ts":%d,"pid":1,"tid":0}|} name ph ts
  in
  let spans =
    Measure.spans_of_lines
      [
        line "request" "B" 0;
        line "flush" "B" 1_000_000;
        line "request" "E" 2_000_000;
        line "flush" "E" 3_000_000;
        "not json";
      ]
  in
  Alcotest.(check (float 1e-9)) "request" 2.0 (Measure.total_of "request" spans);
  Alcotest.(check (float 1e-9)) "flush" 2.0 (Measure.total_of "flush" spans)

let test_names () =
  List.iter
    (fun (s, ok) -> Alcotest.(check bool) s ok (Measure.valid_name s))
    [
      ("sat.solve_s", true);
      ("oracle_p99_us.batch", true);
      ("gklockd.queue-wait", true);
      ("0ms", true);
      ("", false);
      (".hidden", false);
      ("_x", false);
      ("a b", false);
      ("sat/solve", false);
      ("oracle:qps", false);
      (String.make 64 'a', true);
      (String.make 65 'a', false);
    ];
  List.iter
    (fun (u, ok) -> Alcotest.(check bool) u ok (Measure.valid_unit u))
    [ ("s", true); ("1/s", true); ("%", true); ("count", true); ("", false); ("m s", false) ]

let () =
  Alcotest.run "perfbench"
    [
      ("percentile", tail_cases);
      ( "spans",
        [
          ("self time", `Quick, test_self_time);
          ("siblings", `Quick, test_siblings);
          ("pairing", `Quick, test_spans_of_lines);
        ] );
      ("names", [ ("metric names and units", `Quick, test_names) ]);
    ]
