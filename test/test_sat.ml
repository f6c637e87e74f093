(* Tests for the SAT stack: literals, CNF, the CDCL solver (cross-checked
   against brute force), Tseitin encoding and equivalence checking. *)

let tc = Alcotest.test_case

let qcheck ?(count = 100) name arb law = Qc.qcheck ~count name arb law

(* ----- Lit ----- *)

let test_lit_roundtrips () =
  for v = 0 to 20 do
    let p = Lit.pos v and n = Lit.neg v in
    Alcotest.(check int) "var pos" v (Lit.var p);
    Alcotest.(check int) "var neg" v (Lit.var n);
    Alcotest.(check bool) "polarity" true (Lit.is_pos p && not (Lit.is_pos n));
    Alcotest.(check int) "negate" n (Lit.negate p);
    Alcotest.(check int) "dimacs pos" p (Lit.of_dimacs (Lit.to_dimacs p));
    Alcotest.(check int) "dimacs neg" n (Lit.of_dimacs (Lit.to_dimacs n))
  done;
  Alcotest.check_raises "dimacs 0" (Invalid_argument "Lit.of_dimacs: zero")
    (fun () -> ignore (Lit.of_dimacs 0))

(* ----- Cnf ----- *)

let test_cnf_eval () =
  let f = Cnf.create () in
  let a = Cnf.new_var f and b = Cnf.new_var f in
  Cnf.add_clause f [ Lit.pos a; Lit.pos b ];
  Cnf.add_clause f [ Lit.neg a ];
  Alcotest.(check bool) "sat assignment" true
    (Cnf.eval f (fun v -> v = b));
  Alcotest.(check bool) "unsat assignment" false (Cnf.eval f (fun _ -> false));
  (match Cnf.brute_force f with
  | Some model ->
    Alcotest.(check bool) "model" true (model.(b) && not model.(a))
  | None -> Alcotest.fail "should be sat")

(* ----- Solver ----- *)

let test_solver_trivial () =
  let s = Solver.create () in
  Alcotest.(check bool) "empty sat" true (Solver.solve s = Solver.Sat);
  let a = Solver.new_var s in
  ignore (Solver.add_clause s [ Lit.pos a ]);
  Alcotest.(check bool) "unit sat" true (Solver.solve s = Solver.Sat);
  Alcotest.(check bool) "value" true (Solver.value s a);
  Alcotest.(check bool) "conflicting unit" false
    (Solver.add_clause s [ Lit.neg a ]);
  Alcotest.(check bool) "now unsat" true (Solver.solve s = Solver.Unsat)

let test_solver_empty_clause () =
  let s = Solver.create () in
  Alcotest.(check bool) "empty clause" false (Solver.add_clause s []);
  Alcotest.(check bool) "unsat forever" true (Solver.solve s = Solver.Unsat)

let test_solver_tautology_dup () =
  let s = Solver.create () in
  let a = Solver.new_var s in
  Alcotest.(check bool) "tautology ok" true
    (Solver.add_clause s [ Lit.pos a; Lit.neg a ]);
  Alcotest.(check bool) "dup lits ok" true
    (Solver.add_clause s [ Lit.pos a; Lit.pos a ]);
  Alcotest.(check bool) "sat" true (Solver.solve s = Solver.Sat);
  Alcotest.(check bool) "forced" true (Solver.value s a)

let pigeonhole holes =
  (* holes+1 pigeons into `holes` holes: unsatisfiable *)
  let s = Solver.create () in
  let v = Array.init (holes + 1) (fun _ -> Array.init holes (fun _ -> Solver.new_var s)) in
  Array.iter
    (fun row -> ignore (Solver.add_clause s (Array.to_list (Array.map Lit.pos row))))
    v;
  for h = 0 to holes - 1 do
    for p1 = 0 to holes do
      for p2 = p1 + 1 to holes do
        ignore (Solver.add_clause s [ Lit.neg v.(p1).(h); Lit.neg v.(p2).(h) ])
      done
    done
  done;
  s

let test_solver_pigeonhole () =
  List.iter
    (fun n ->
      Alcotest.(check bool)
        (Printf.sprintf "php %d" n)
        true
        (Solver.solve (pigeonhole n) = Solver.Unsat))
    [ 2; 3; 4; 5 ]

let test_solver_assumptions () =
  let s = Solver.create () in
  let a = Solver.new_var s and b = Solver.new_var s in
  ignore (Solver.add_clause s [ Lit.neg a; Lit.pos b ]);
  Alcotest.(check bool) "a & ~b unsat" true
    (Solver.solve ~assumptions:[ Lit.pos a; Lit.neg b ] s = Solver.Unsat);
  Alcotest.(check bool) "a sat" true
    (Solver.solve ~assumptions:[ Lit.pos a ] s = Solver.Sat);
  Alcotest.(check bool) "implied" true (Solver.value s b);
  Alcotest.(check bool) "assumptions retract" true (Solver.solve s = Solver.Sat)

let random_cnf_arb =
  QCheck.make
    ~print:(fun (nv, cls) ->
      Printf.sprintf "%d vars, %d clauses" nv (List.length cls))
    QCheck.Gen.(
      int_range 3 10 >>= fun nv ->
      list_size (int_range 1 (4 * nv))
        (list_size (int_range 1 3)
           (map2 (fun v pos -> Lit.make (v mod nv) pos) (int_bound (nv - 1)) bool))
      >>= fun cls -> return (nv, cls))

let solver_vs_brute_law (nv, cls) =
  let cnf = Cnf.create () in
  for _ = 1 to nv do ignore (Cnf.new_var cnf) done;
  let s = Solver.create () in
  for _ = 1 to nv do ignore (Solver.new_var s) done;
  let ok = ref true in
  List.iter
    (fun c ->
      Cnf.add_clause cnf c;
      if not (Solver.add_clause s c) then ok := false)
    cls;
  let expected = Cnf.brute_force cnf <> None in
  let got = !ok && Solver.solve s = Solver.Sat in
  expected = got
  && ((not got) || Cnf.eval cnf (fun v -> Solver.value s v))

let solver_incremental_law (nv, cls) =
  (* Adding clauses one solve at a time agrees with adding them all. *)
  let mk () =
    let s = Solver.create () in
    for _ = 1 to nv do ignore (Solver.new_var s) done;
    s
  in
  let s_all = mk () and s_inc = mk () in
  let ok_all = List.for_all (fun c -> Solver.add_clause s_all c) cls in
  let r_all = if ok_all then Solver.solve s_all else Solver.Unsat in
  let r_inc =
    List.fold_left
      (fun acc c ->
        if acc = Solver.Unsat then Solver.Unsat
        else if not (Solver.add_clause s_inc c) then Solver.Unsat
        else Solver.solve s_inc)
      Solver.Sat cls
  in
  r_all = r_inc

(* ----- Tseitin ----- *)

let exhaustive_gate_check fn arity =
  let net = Netlist.create "g" in
  let pis = Array.init arity (fun i -> Netlist.add_input net (Printf.sprintf "i%d" i)) in
  let g = Netlist.add_gate net fn pis in
  Netlist.add_output net "y" g;
  let ok = ref true in
  for row = 0 to (1 lsl arity) - 1 do
    let bit i = row land (1 lsl i) <> 0 in
    let solver = Solver.create () in
    let vars = Tseitin.encode_simple solver net in
    Array.iteri
      (fun i pi -> ignore (Solver.add_clause solver [ Lit.make vars.(pi) (bit i) ]))
      pis;
    (match Solver.solve solver with
    | Solver.Sat ->
      let expected = Cell.eval fn (Array.init arity bit) in
      if Solver.value solver vars.(g) <> expected then ok := false
    | Solver.Unsat -> ok := false)
  done;
  !ok

let test_tseitin_gates () =
  List.iter
    (fun (fn, arity) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s/%d" (Cell.fn_name fn) arity)
        true
        (exhaustive_gate_check fn arity))
    [
      (Cell.Not, 1); (Cell.Buf, 1); (Cell.And, 2); (Cell.And, 4);
      (Cell.Or, 3); (Cell.Nand, 2); (Cell.Nand, 3); (Cell.Nor, 2);
      (Cell.Xor, 2); (Cell.Xor, 3); (Cell.Xor, 4); (Cell.Xnor, 2);
      (Cell.Xnor, 3); (Cell.Mux, 3);
    ]

let test_tseitin_lut () =
  let net = Netlist.create "l" in
  let a = Netlist.add_input net "a" in
  let b = Netlist.add_input net "b" in
  let c = Netlist.add_input net "c" in
  let truth = Array.init 8 (fun i -> i = 1 || i = 6 || i = 7) in
  let l = Netlist.add_lut net ~truth [| a; b; c |] in
  Netlist.add_output net "y" l;
  let ok = ref true in
  for row = 0 to 7 do
    let bit i = row land (1 lsl i) <> 0 in
    let solver = Solver.create () in
    let vars = Tseitin.encode_simple solver net in
    List.iteri
      (fun i pi -> ignore (Solver.add_clause solver [ Lit.make vars.(pi) (bit i) ]))
      [ a; b; c ];
    (match Solver.solve solver with
    | Solver.Sat -> if Solver.value solver vars.(l) <> truth.(row) then ok := false
    | Solver.Unsat -> ok := false)
  done;
  Alcotest.(check bool) "lut rows" true !ok

let test_tseitin_rejects_ffs () =
  let net = Benchmarks.s27 () in
  let solver = Solver.create () in
  Alcotest.check_raises "ff guard"
    (Invalid_argument "Tseitin: netlist has flip-flops (combinationalize first)")
    (fun () -> ignore (Tseitin.encode_simple solver net))

let tseitin_vs_eval_law seed =
  let net =
    Generator.generate
      {
        Generator.gen_name = "tv";
        seed;
        n_pi = 5;
        n_po = 3;
        n_ff = 0;
        n_gates = 20;
        depth = 5;
        ff_depth_bias = 0.0;
      }
  in
  let rng = Random.State.make [| seed; 5 |] in
  let assignment = List.map (fun pi -> (pi, Random.State.bool rng)) (Netlist.inputs net) in
  let solver = Solver.create () in
  let vars = Tseitin.encode_simple solver net in
  List.iter
    (fun (pi, b) -> ignore (Solver.add_clause solver [ Lit.make vars.(pi) b ]))
    assignment;
  Solver.solve solver = Solver.Sat
  &&
  let values = Netlist.eval_comb net (fun id -> List.assoc id assignment) in
  List.for_all
    (fun (_, d) -> values.(d) = Solver.value solver vars.(d))
    (Netlist.outputs net)

let test_to_cnf () =
  let net = Netlist.create "c" in
  let a = Netlist.add_input net "a" in
  let g = Netlist.add_gate net Cell.Not [| a |] in
  Netlist.add_output net "y" g;
  let cnf, vars = Tseitin.to_cnf net in
  Alcotest.(check int) "clauses" 2 (Cnf.num_clauses cnf);
  Alcotest.(check bool) "vars assigned" true (vars.(a) >= 0 && vars.(g) >= 0)

(* ----- Equiv ----- *)

let test_equiv_basic () =
  let mk invert =
    let n = Netlist.create (if invert then "b" else "a") in
    let x = Netlist.add_input n "x" in
    let y = Netlist.add_input n "y" in
    let g = Netlist.add_gate n Cell.And [| x; y |] in
    let out = if invert then Netlist.add_gate n Cell.Not [| g |] else g in
    Netlist.add_output n "o" out;
    n
  in
  Alcotest.(check bool) "equal" true (Equiv.check (mk false) (mk false) = Equiv.Equivalent);
  (match Equiv.check (mk false) (mk true) with
  | Equiv.Different w -> Alcotest.(check int) "witness arity" 2 (List.length w)
  | Equiv.Equivalent -> Alcotest.fail "inverted said equivalent")

let test_equiv_fixed_keys () =
  (* y = x xor k: equivalent to buffer iff k = 0 *)
  let locked = Netlist.create "lk" in
  let x = Netlist.add_input locked "x" in
  let k = Netlist.add_input locked "k" in
  let g = Netlist.add_gate locked Cell.Xor [| x; k |] in
  Netlist.add_output locked "o" g;
  let plain = Netlist.create "pl" in
  let x2 = Netlist.add_input plain "x" in
  let b = Netlist.add_gate plain Cell.Buf [| x2 |] in
  Netlist.add_output plain "o" b;
  Alcotest.(check bool) "k=0 equivalent" true
    (Equiv.check ~fixed_a:[ ("k", false) ] locked plain = Equiv.Equivalent);
  Alcotest.(check bool) "k=1 different" true
    (Equiv.check ~fixed_a:[ ("k", true) ] locked plain <> Equiv.Equivalent)

let test_equiv_po_mismatch () =
  let a = Netlist.create "a" in
  let x = Netlist.add_input a "x" in
  Netlist.add_output a "o1" x;
  let b = Netlist.create "b" in
  let y = Netlist.add_input b "x" in
  Netlist.add_output b "o2" y;
  Alcotest.check_raises "po names"
    (Invalid_argument "Equiv.check: primary-output name sets differ")
    (fun () -> ignore (Equiv.check a b))

(* ----- Miter ----- *)

(* Two copies of [a] and [b] over shared inputs, outputs paired by
   position. *)
let miter_solve a b =
  let solver = Solver.create () in
  let shared = Hashtbl.create 8 in
  let bind name =
    match Hashtbl.find_opt shared name with
    | Some v -> Some v
    | None ->
      let v = Solver.new_var solver in
      Hashtbl.replace shared name v;
      Some v
  in
  let va = Miter.encode solver a ~bind in
  let vb = Miter.encode solver b ~bind in
  Miter.differ solver
    (List.map2
       (fun (_, da) (_, db) -> (va.(da), vb.(db)))
       (Netlist.outputs a) (Netlist.outputs b));
  Solver.solve solver

let miter_net ~invert =
  let n = Netlist.create "m" in
  let x = Netlist.add_input n "x" in
  let y = Netlist.add_input n "y" in
  let g = Netlist.add_gate n Cell.Xor [| x; y |] in
  let h = Netlist.add_gate n Cell.And [| x; y |] in
  let inv id = if invert then Netlist.add_gate n Cell.Not [| id |] else id in
  Netlist.add_output n "o1" g;
  Netlist.add_output n "o2" (inv h);
  n

let test_miter_differ () =
  let net = miter_net ~invert:false in
  Alcotest.(check bool) "self: unsat" true
    (miter_solve net net = Solver.Unsat);
  Alcotest.(check bool) "inverted output: sat" true
    (miter_solve net (miter_net ~invert:true) = Solver.Sat)

(* y = x xor k: observing y = x and y = not x at the same x leaves no
   key. *)
let test_miter_keys_inconsistent () =
  let net = Netlist.create "lk" in
  let x = Netlist.add_input net "x" in
  let k = Netlist.add_input net "k" in
  Netlist.add_output net "y" (Netlist.add_gate net Cell.Xor [| x; k |]);
  let m = Miter.create ~who:"test" net ~key_inputs:[ "k" ] in
  let keys = Miter.Keys.create m in
  Miter.Keys.constrain keys [ ("x", true) ] [ ("y", true) ];
  Alcotest.(check (option (list (pair string bool))))
    "one observation" (Some [ ("k", false) ]) (Miter.Keys.model keys);
  Miter.Keys.constrain keys [ ("x", true) ] [ ("y", false) ];
  Alcotest.(check (option (list (pair string bool))))
    "contradiction" None (Miter.Keys.model keys)

(* ----- Dimacs ----- *)

let test_dimacs_roundtrip () =
  let cnf = Cnf.create () in
  let a = Cnf.new_var cnf and b = Cnf.new_var cnf and c = Cnf.new_var cnf in
  Cnf.add_clause cnf [ Lit.pos a; Lit.neg b ];
  Cnf.add_clause cnf [ Lit.neg a; Lit.pos b; Lit.pos c ];
  Cnf.add_clause cnf [ Lit.neg c ];
  let text = Dimacs.to_string cnf in
  let cnf2 = Dimacs.of_string text in
  Alcotest.(check int) "vars" (Cnf.num_vars cnf) (Cnf.num_vars cnf2);
  Alcotest.(check int) "clauses" (Cnf.num_clauses cnf) (Cnf.num_clauses cnf2);
  Alcotest.(check string) "stable" text (Dimacs.to_string cnf2)

let test_dimacs_parse () =
  let cnf = Dimacs.of_string "c comment\np cnf 3 2\n1 -2 0\n2 3 0\n" in
  Alcotest.(check int) "vars" 3 (Cnf.num_vars cnf);
  Alcotest.(check int) "clauses" 2 (Cnf.num_clauses cnf)

let suites =
  [
    ("sat.lit", [ tc "round trips" `Quick test_lit_roundtrips ]);
    ("sat.cnf", [ tc "eval/brute" `Quick test_cnf_eval ]);
    ( "sat.solver",
      [
        tc "trivial" `Quick test_solver_trivial;
        tc "empty clause" `Quick test_solver_empty_clause;
        tc "tautology/dups" `Quick test_solver_tautology_dup;
        tc "pigeonhole" `Quick test_solver_pigeonhole;
        tc "assumptions" `Quick test_solver_assumptions;
        qcheck ~count:300 "agrees with brute force" random_cnf_arb
          solver_vs_brute_law;
        qcheck ~count:100 "incremental = batch" random_cnf_arb
          solver_incremental_law;
      ] );
    ( "sat.miter",
      [
        tc "differ" `Quick test_miter_differ;
        tc "keys: inconsistent oracle" `Quick test_miter_keys_inconsistent;
      ] );
    ( "sat.tseitin",
      [
        tc "all gate types (exhaustive)" `Quick test_tseitin_gates;
        tc "lut" `Quick test_tseitin_lut;
        tc "rejects flip-flops" `Quick test_tseitin_rejects_ffs;
        tc "to_cnf" `Quick test_to_cnf;
        qcheck ~count:50 "encoding matches eval"
          (QCheck.make ~print:string_of_int QCheck.Gen.(int_bound 500))
          tseitin_vs_eval_law;
      ] );
    ( "sat.equiv",
      [
        tc "basic" `Quick test_equiv_basic;
        tc "fixed keys" `Quick test_equiv_fixed_keys;
        tc "po mismatch" `Quick test_equiv_po_mismatch;
      ] );
    ( "sat.dimacs",
      [
        tc "round trip" `Quick test_dimacs_roundtrip;
        tc "parse" `Quick test_dimacs_parse;
      ] );
  ]
