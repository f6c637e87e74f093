(* Tests for the netlist substrate: cells, the graph, .bench I/O, the
   generator, structural analyses and the FF-boundary cut. *)

let tc = Alcotest.test_case

let qcheck ?(count = 100) name arb law = Qc.qcheck ~count name arb law

(* Small deterministic generated circuits for property tests. *)
let gen_circuit_arb =
  QCheck.make
    ~print:(fun seed -> Printf.sprintf "circuit seed %d" seed)
    QCheck.Gen.(map (fun s -> s) (int_bound 1000))

let small_circuit seed =
  Generator.generate
    {
      Generator.gen_name = Printf.sprintf "t%d" seed;
      seed;
      n_pi = 4 + (seed mod 4);
      n_po = 2 + (seed mod 3);
      n_ff = seed mod 6;
      n_gates = 15 + (seed mod 30);
      depth = 4 + (seed mod 5);
      ff_depth_bias = 0.3;
    }

(* ----- Cell ----- *)

let test_cell_eval_unary () =
  Alcotest.(check bool) "not 1" false (Cell.eval Cell.Not [| true |]);
  Alcotest.(check bool) "not 0" true (Cell.eval Cell.Not [| false |]);
  Alcotest.(check bool) "buf 1" true (Cell.eval Cell.Buf [| true |])

let test_cell_eval_binary () =
  let t = true and f = false in
  Alcotest.(check bool) "and" false (Cell.eval Cell.And [| t; f |]);
  Alcotest.(check bool) "nand" true (Cell.eval Cell.Nand [| t; f |]);
  Alcotest.(check bool) "or" true (Cell.eval Cell.Or [| t; f |]);
  Alcotest.(check bool) "nor" false (Cell.eval Cell.Nor [| t; f |]);
  Alcotest.(check bool) "xor" true (Cell.eval Cell.Xor [| t; f |]);
  Alcotest.(check bool) "xnor" false (Cell.eval Cell.Xnor [| t; f |])

let test_cell_eval_wide () =
  Alcotest.(check bool) "and3" true (Cell.eval Cell.And [| true; true; true |]);
  Alcotest.(check bool) "nor4" true
    (Cell.eval Cell.Nor [| false; false; false; false |]);
  (* wide xor = parity *)
  Alcotest.(check bool) "xor3 parity" true
    (Cell.eval Cell.Xor [| true; true; true |]);
  Alcotest.(check bool) "xnor3" false
    (Cell.eval Cell.Xnor [| true; true; true |])

let test_cell_eval_mux () =
  (* mux sel a b = if sel then b else a *)
  Alcotest.(check bool) "sel0" true (Cell.eval Cell.Mux [| false; true; false |]);
  Alcotest.(check bool) "sel1" false (Cell.eval Cell.Mux [| true; true; false |])

let test_cell_arity () =
  Alcotest.(check bool) "not/1" true (Cell.arity_ok Cell.Not 1);
  Alcotest.(check bool) "not/2" false (Cell.arity_ok Cell.Not 2);
  Alcotest.(check bool) "mux/3" true (Cell.arity_ok Cell.Mux 3);
  Alcotest.(check bool) "mux/2" false (Cell.arity_ok Cell.Mux 2);
  Alcotest.(check bool) "and/5" true (Cell.arity_ok Cell.And 5);
  Alcotest.(check bool) "and/1" false (Cell.arity_ok Cell.And 1);
  Alcotest.check_raises "eval arity"
    (Invalid_argument "Cell.eval: arity 1 illegal for this function")
    (fun () -> ignore (Cell.eval Cell.And [| true |]))

let test_cell_names () =
  List.iter
    (fun fn ->
      match Cell.fn_of_name (Cell.fn_name fn) with
      | Some fn' -> Alcotest.(check bool) (Cell.fn_name fn) true (fn = fn')
      | None -> Alcotest.fail "name round trip")
    [ Cell.Not; Cell.Buf; Cell.And; Cell.Or; Cell.Nand; Cell.Nor; Cell.Xor;
      Cell.Xnor; Cell.Mux ];
  Alcotest.(check bool) "INV alias" true (Cell.fn_of_name "inv" = Some Cell.Not);
  Alcotest.(check bool) "unknown" true (Cell.fn_of_name "FROB" = None)

(* ----- Cell_lib ----- *)

let test_cell_lib_bind () =
  let c = Cell_lib.bind Cell.Nand 2 in
  Alcotest.(check string) "nand2" "NAND2X1" c.Cell.cell_name;
  let c3 = Cell_lib.bind Cell.Nand 3 in
  Alcotest.(check int) "nand3 arity" 3 c3.Cell.arity;
  (* beyond the widest stocked cell: extrapolated *)
  let c6 = Cell_lib.bind Cell.Nand 6 in
  Alcotest.(check int) "nand6 arity" 6 c6.Cell.arity;
  Alcotest.(check bool) "nand6 slower" true
    (c6.Cell.delay_ps > c3.Cell.delay_ps);
  Alcotest.check_raises "mux arity"
    (Invalid_argument "Cell_lib.bind: arity 2 illegal for MUX") (fun () ->
      ignore (Cell_lib.bind Cell.Mux 2))

let test_cell_lib_find () =
  Alcotest.(check bool) "find inv" true (Cell_lib.find "INVX1" <> None);
  Alcotest.(check bool) "find dly8" true (Cell_lib.find "DLY8X1" <> None);
  Alcotest.(check bool) "find none" true (Cell_lib.find "NOPE" = None)

let test_cell_lib_delay_cells () =
  let std = Cell_lib.delay_cells `Standard in
  let bufs = Cell_lib.delay_cells `Buffers_only in
  Alcotest.(check bool) "std has dly" true
    (List.exists (fun c -> c.Cell.cell_name = "DLY8X1") std);
  Alcotest.(check bool) "bufs-only has no dly" true
    (not (List.exists (fun c -> c.Cell.delay_ps > 100) bufs));
  let c = Cell_lib.custom_delay_cell 1234 in
  Alcotest.(check int) "custom exact" 1234 c.Cell.delay_ps

let test_lut_costs () =
  Alcotest.(check bool) "lut area grows" true
    (Cell_lib.lut_area 4 > Cell_lib.lut_area 2);
  Alcotest.(check bool) "lut delay grows" true
    (Cell_lib.lut_delay_ps 6 > Cell_lib.lut_delay_ps 2)

(* ----- Netlist graph ----- *)

let test_netlist_build () =
  let n = Netlist.create "t" in
  let a = Netlist.add_input n "a" in
  let b = Netlist.add_input n "b" in
  let g = Netlist.add_gate n ~name:"g" Cell.And [| a; b |] in
  let f = Netlist.add_ff n ~name:"f" g in
  Netlist.add_output n "y" f;
  Netlist.validate n;
  Alcotest.(check int) "nodes" 4 (Netlist.num_nodes n);
  Alcotest.(check (list int)) "inputs" [ a; b ] (Netlist.inputs n);
  Alcotest.(check (list int)) "ffs" [ f ] (Netlist.ffs n);
  Alcotest.(check bool) "find" true (Netlist.find n "g" = Some g);
  Alcotest.(check (list (pair string int))) "outputs" [ ("y", f) ]
    (Netlist.outputs n)

let test_netlist_duplicate_names () =
  let n = Netlist.create "t" in
  ignore (Netlist.add_input n "a");
  Alcotest.check_raises "dup" (Invalid_argument "Netlist: duplicate node name \"a\"")
    (fun () -> ignore (Netlist.add_input n "a"))

let test_netlist_const_sharing () =
  let n = Netlist.create "t" in
  let c1 = Netlist.add_const n true in
  let c2 = Netlist.add_const n true in
  let c3 = Netlist.add_const n false in
  Alcotest.(check int) "shared" c1 c2;
  Alcotest.(check bool) "distinct" true (c1 <> c3)

let test_netlist_cycle_detection () =
  let n = Netlist.create "t" in
  let a = Netlist.add_input n "a" in
  let g1 = Netlist.add_gate n Cell.And [| a; a |] in
  let g2 = Netlist.add_gate n Cell.Or [| g1; a |] in
  (* create a combinational cycle g1 <- g2 *)
  Netlist.set_fanin n ~node_id:g1 ~pin:1 ~driver:g2;
  (match Netlist.validate n with
  | () -> Alcotest.fail "cycle not detected"
  | exception Failure _ -> ());
  (* sequential loop through a FF is fine *)
  let n2 = Netlist.create "t2" in
  let a2 = Netlist.add_input n2 "a" in
  let placeholder = Netlist.add_const n2 false in
  let f = Netlist.add_ff n2 placeholder in
  let g = Netlist.add_gate n2 Cell.Xor [| a2; f |] in
  Netlist.set_fanin n2 ~node_id:f ~pin:0 ~driver:g;
  Netlist.add_output n2 "y" g;
  Netlist.validate n2

let test_netlist_replace_uses () =
  let n = Netlist.create "t" in
  let a = Netlist.add_input n "a" in
  let b = Netlist.add_input n "b" in
  let g = Netlist.add_gate n Cell.And [| a; a |] in
  Netlist.add_output n "y" a;
  Netlist.replace_uses n ~old_id:a ~new_id:b;
  Alcotest.(check int) "pin0" b (Netlist.node n g).Netlist.fanins.(0);
  Alcotest.(check int) "pin1" b (Netlist.node n g).Netlist.fanins.(1);
  Alcotest.(check (list (pair string int))) "po" [ ("y", b) ] (Netlist.outputs n)

let test_netlist_copy_compact () =
  let net = small_circuit 17 in
  let c = Netlist.copy net in
  Alcotest.(check int) "copy size" (Netlist.num_nodes net) (Netlist.num_nodes c);
  (* kill an output-free node pattern: add a gate then kill it *)
  let a = List.hd (Netlist.inputs c) in
  let g = Netlist.add_gate c Cell.Not [| a |] in
  Netlist.kill c g;
  let c2, remap = Netlist.compact c in
  Netlist.validate c2;
  Alcotest.(check int) "compacted" (Netlist.num_nodes c) (Netlist.num_nodes c2 + 1);
  Alcotest.(check int) "dead remap" (-1) remap.(g)

let test_netlist_widen () =
  let n = Netlist.create "t" in
  let a = Netlist.add_input n "a" in
  let b = Netlist.add_input n "b" in
  let c = Netlist.add_input n "c" in
  let g = Netlist.add_gate n Cell.And [| a; b |] in
  Netlist.widen_gate n ~node_id:g ~extra_driver:c;
  Alcotest.(check int) "arity 3" 3 (Array.length (Netlist.node n g).Netlist.fanins);
  Alcotest.(check string) "rebound cell" "AND3X1"
    (Option.get (Netlist.node n g).Netlist.cell).Cell.cell_name;
  let m = Netlist.add_gate n Cell.Mux [| a; b; c |] in
  Alcotest.check_raises "mux fixed"
    (Invalid_argument "Netlist.widen_gate: not a variadic gate") (fun () ->
      Netlist.widen_gate n ~node_id:m ~extra_driver:a)

let test_eval_comb () =
  let n = Netlist.create "t" in
  let a = Netlist.add_input n "a" in
  let b = Netlist.add_input n "b" in
  let x = Netlist.add_gate n Cell.Xor [| a; b |] in
  let l = Netlist.add_lut n ~truth:[| true; false; false; true |] [| a; b |] in
  Netlist.add_output n "x" x;
  Netlist.add_output n "l" l;
  List.iter
    (fun (va, vb) ->
      let values = Netlist.eval_comb n (fun id -> if id = a then va else vb) in
      Alcotest.(check bool) "xor" (va <> vb) values.(x);
      Alcotest.(check bool) "lut=xnor" (va = vb) values.(l))
    [ (false, false); (false, true); (true, false); (true, true) ]

let topo_order_law seed =
  let net = small_circuit seed in
  let order = Netlist.comb_topo_order net in
  let position = Hashtbl.create 64 in
  List.iteri (fun i id -> Hashtbl.replace position id i) order;
  List.for_all
    (fun id ->
      let nd = Netlist.node net id in
      Array.for_all
        (fun f ->
          if Netlist.is_comb (Netlist.node net f) then
            Hashtbl.find position f < Hashtbl.find position id
          else true)
        nd.Netlist.fanins)
    order

(* ----- Bench_format ----- *)

let test_bench_roundtrip_s27 () =
  let net = Benchmarks.s27 () in
  let txt = Bench_format.print net in
  let net2 = Bench_format.parse ~name:"s27" txt in
  Alcotest.(check bool) "stats equal" true
    (Stats.of_netlist net = Stats.of_netlist net2);
  (* functional equivalence of the combinational views *)
  let c1, _ = Combinationalize.run net in
  let c2, _ = Combinationalize.run net2 in
  match Equiv.check c1 c2 with
  | Equiv.Equivalent -> ()
  | Equiv.Different _ -> Alcotest.fail "round trip changed the function"

let bench_roundtrip_law seed =
  let net = small_circuit seed in
  let txt = Bench_format.print net in
  let net2 = Bench_format.parse ~name:(Netlist.name net) txt in
  let c1, _ = Combinationalize.run net in
  let c2, _ = Combinationalize.run net2 in
  Equiv.check c1 c2 = Equiv.Equivalent

(* The fuzzer's adversarial generator reaches shapes the Generator never
   makes (small LUTs, MUXes, wide gates, repeated fanins); the full
   print/parse/unroll/miter pipeline is the sat-roundtrip oracle. *)
let bench_adversarial_roundtrip_law seed =
  let rng = Random.State.make [| seed; 0xbe5 |] in
  let case = Netlist_gen.case rng in
  Diff_oracle.check ~oracles:[ Diff_oracle.Sat_roundtrip ] ~seed case = []

(* Found by fuzzing: a 2-row truth table prints as one whole hex nibble,
   so the parser must trim the padding back to 2^arity rows. *)
let test_bench_lut_arity1 () =
  let net = Netlist.create "l1" in
  let a = Netlist.add_input net "a" in
  let l = Netlist.add_lut net ~name:"inv" ~truth:[| true; false |] [| a |] in
  Netlist.add_output net "y" l;
  let net2 = Bench_format.parse ~name:"l1" (Bench_format.print net) in
  (match Equiv.check net net2 with
  | Equiv.Equivalent -> ()
  | Equiv.Different _ -> Alcotest.fail "1-input LUT changed function");
  match Bench_format.parse ~name:"bad" "INPUT(a)\nOUTPUT(y)\ny = LUT 0xe (a)\n" with
  | exception Bench_format.Parse_error _ -> ()
  | _ -> Alcotest.fail "out-of-range LUT row accepted"

let test_bench_parse_errors () =
  let bad text msg =
    match Bench_format.parse ~name:"x" text with
    | _ -> Alcotest.fail ("no error for " ^ msg)
    | exception Bench_format.Parse_error (_, _) -> ()
  in
  bad "INPUT(a)\nOUTPUT(y)\n" "undefined output";
  bad "INPUT(a)\ny = FROB(a)\nOUTPUT(y)\n" "unknown gate";
  bad "INPUT(a)\ny = AND(a)\nOUTPUT(y)\n" "bad arity";
  bad "INPUT(a)\ny = AND(a, z)\nOUTPUT(y)\n" "undefined signal";
  bad "INPUT(a)\ny = AND(a, y)\nOUTPUT(y)\n" "combinational cycle";
  bad "INPUT(a)\nINPUT(a)\n" "duplicate input"

let test_bench_comments_and_lut () =
  let text =
    "# a comment\nINPUT(a)  # trailing\nINPUT(b)\nOUTPUT(y)\n\
     y = LUT 0x6 (a, b)\n"
  in
  let net = Bench_format.parse ~name:"l" text in
  let values b0 b1 =
    let a = Option.get (Netlist.find net "a") in
    (Netlist.eval_comb net (fun id -> if id = a then b0 else b1)).(Option.get (Netlist.find net "y"))
  in
  (* 0x6 = 0110 : XOR *)
  Alcotest.(check bool) "00" false (values false false);
  Alcotest.(check bool) "01" true (values true false);
  Alcotest.(check bool) "10" true (values false true);
  Alcotest.(check bool) "11" false (values true true)

let test_bench_dff_cycle () =
  (* two FFs feeding each other *)
  let text =
    "INPUT(a)\nOUTPUT(y)\nf1 = DFF(f2)\nf2 = DFF(g)\ng = AND(a, f1)\ny = NOT(f2)\n"
  in
  let net = Bench_format.parse ~name:"c" text in
  Netlist.validate net;
  Alcotest.(check int) "ffs" 2 (List.length (Netlist.ffs net))

(* ----- Generator ----- *)

let test_generator_deterministic () =
  let cfg = (List.hd Benchmarks.specs).Benchmarks.config in
  let a = Generator.generate cfg and b = Generator.generate cfg in
  Alcotest.(check string) "same netlist" (Bench_format.print a) (Bench_format.print b)

let test_generator_counts () =
  List.iter
    (fun spec ->
      let net = Benchmarks.load spec in
      let st = Stats.of_netlist net in
      Alcotest.(check int)
        (spec.Benchmarks.bname ^ " cells")
        spec.Benchmarks.cells st.Stats.cells;
      Alcotest.(check int)
        (spec.Benchmarks.bname ^ " ffs")
        spec.Benchmarks.ff_count st.Stats.ffs)
    [ List.hd Benchmarks.specs; List.nth Benchmarks.specs 1 ]

let generator_live_law seed =
  (* After the liveness pass every gate and FF output has a consumer or
     drives a primary output. *)
  let net = small_circuit seed in
  let fanouts = Netlist.fanout_table net in
  let drives_po id = List.exists (fun (_, d) -> d = id) (Netlist.outputs net) in
  List.for_all
    (fun id ->
      let nd = Netlist.node net id in
      match nd.Netlist.kind with
      | Netlist.Gate _ | Netlist.Ff -> fanouts.(id) <> [] || drives_po id
      | Netlist.Input | Netlist.Const _ | Netlist.Lut _ | Netlist.Dead -> true)
    (List.init (Netlist.num_nodes net) Fun.id)

(* ----- Topo ----- *)

let test_topo_levels_depth () =
  let n = Netlist.create "t" in
  let a = Netlist.add_input n "a" in
  let g1 = Netlist.add_gate n Cell.Not [| a |] in
  let g2 = Netlist.add_gate n Cell.Not [| g1 |] in
  let g3 = Netlist.add_gate n Cell.And [| g2; a |] in
  Netlist.add_output n "y" g3;
  let lv = Topo.levels n in
  Alcotest.(check int) "a" 0 lv.(a);
  Alcotest.(check int) "g1" 1 lv.(g1);
  Alcotest.(check int) "g2" 2 lv.(g2);
  Alcotest.(check int) "g3" 3 lv.(g3);
  Alcotest.(check int) "depth" 3 (Topo.depth n)

let test_topo_cones () =
  let net = Benchmarks.s27 () in
  let g11 = Option.get (Netlist.find net "G11") in
  let cone = Topo.output_cone net g11 in
  Alcotest.(check (list string)) "G11 reaches G17" [ "G17" ] cone;
  let fanin = Topo.fanin_cone net g11 in
  Alcotest.(check bool) "fanin contains itself" true (List.mem g11 fanin)

let test_topo_ff_groups () =
  let net = Benchmarks.s27 () in
  let groups = Topo.group_ffs_by_cone net in
  let total = List.fold_left (fun a g -> a + List.length g) 0 groups in
  Alcotest.(check int) "all ffs grouped" 3 total

(* Per-flip-flop BFS grouping, kept as the reference the one-pass bitset
   [Topo.group_ffs_by_cone] must reproduce exactly: same groups, same
   members order, same order of equal-size groups. *)
let reference_ff_groups t =
  let buckets = Hashtbl.create 16 in
  List.iter
    (fun ff ->
      let signature =
        String.concat "\x00" (List.sort compare (Topo.comb_output_cone t ff))
      in
      let existing = Option.value (Hashtbl.find_opt buckets signature) ~default:[] in
      Hashtbl.replace buckets signature (ff :: existing))
    (Netlist.ffs t);
  Hashtbl.fold (fun _ ffs acc -> List.rev ffs :: acc) buckets []
  |> List.sort (fun a b -> compare (List.length b) (List.length a))

let check_ff_groups label net =
  Alcotest.(check (list (list int)))
    label (reference_ff_groups net) (Topo.group_ffs_by_cone net)

(* Every benchmark, plain, GK-locked (up to 8 GKs), KEYGEN-stripped,
   XOR-locked and Hybrid-locked. *)
let test_topo_ff_groups_parity () =
  let benches =
    List.map
      (fun spec ->
        (spec.Benchmarks.bname, Benchmarks.load spec, spec.Benchmarks.clk_margin))
      Benchmarks.specs
    @ [ ("s27", Benchmarks.s27 (), 4.5); ("tiny", Benchmarks.tiny (), 4.5) ]
  in
  List.iter
    (fun (name, net, margin) ->
      check_ff_groups name net;
      let clock_ps = Sta.clock_for net ~margin in
      let n_sites =
        List.length (Insertion.available_sites net ~clock_ps ~l_glitch_ps:1000)
      in
      let n_gks = min 8 n_sites in
      if n_gks > 0 then begin
        let d = Insertion.lock ~seed:5 net ~clock_ps ~n_gks in
        check_ff_groups (name ^ " gk-locked") d.Insertion.lnet;
        check_ff_groups (name ^ " stripped") (fst (Insertion.strip_keygens d));
        match Hybrid.lock ~seed:5 net ~clock_ps ~n_gks ~n_xors:16 with
        | h -> check_ff_groups (name ^ " hybrid") h.Hybrid.design.Insertion.lnet
        | exception Invalid_argument _ -> ()
      end;
      check_ff_groups (name ^ " xor-locked")
        (Xor_lock.lock ~seed:5 net ~n_keys:8).Locked.net)
    benches

(* Random generated circuits, widened so the bitsets span several words
   ([n_po] up to 150), plus a PO driven straight by a flip-flop, a second
   PO sharing a driver, and a [Dead] slot left by bypassing one gate. *)
let ff_groups_parity_law (seed, n_po) =
  let net =
    Generator.generate
      {
        Generator.gen_name = Printf.sprintf "grp%d" seed;
        seed;
        n_pi = 3 + (seed mod 5);
        n_po;
        n_ff = 1 + (seed mod 20);
        n_gates = 40 + (seed mod 200);
        depth = 2 + (seed mod 9);
        ff_depth_bias = float_of_int (seed mod 10) /. 10.0;
      }
  in
  let rng = Random.State.make [| seed |] in
  let pick l = List.nth l (Random.State.int rng (List.length l)) in
  Netlist.add_output net "po_ff" (pick (Netlist.ffs net));
  Netlist.add_output net "po_shared" (snd (pick (Netlist.outputs net)));
  let gates =
    List.filter
      (fun id -> Netlist.is_comb (Netlist.node net id))
      (List.init (Netlist.num_nodes net) Fun.id)
  in
  let g = pick gates in
  Netlist.replace_uses net ~old_id:g ~new_id:(Netlist.node net g).Netlist.fanins.(0);
  Netlist.kill net g;
  Topo.group_ffs_by_cone net = reference_ff_groups net

(* ----- Stats ----- *)

let test_stats_overhead () =
  let net = Benchmarks.s27 () in
  let base = Stats.of_netlist net in
  let bigger = Netlist.copy net in
  let a = List.hd (Netlist.inputs bigger) in
  ignore (Netlist.add_gate bigger Cell.Not [| a |]);
  let locked = Stats.of_netlist bigger in
  let cell_oh, area_oh = Stats.overhead ~baseline:base ~locked in
  Alcotest.(check bool) "cell oh positive" true (cell_oh > 0.0);
  Alcotest.(check bool) "area oh positive" true (area_oh > 0.0)

(* ----- Combinationalize ----- *)

let test_combinationalize_structure () =
  let net = Benchmarks.s27 () in
  let comb, maps = Combinationalize.run net in
  Alcotest.(check int) "no ffs" 0 (List.length (Netlist.ffs comb));
  Alcotest.(check int) "3 mappings" 3 (List.length maps);
  Alcotest.(check int) "pis = 4 + 3" 7 (List.length (Netlist.inputs comb));
  Alcotest.(check int) "pos = 1 + 3" 4 (List.length (Netlist.outputs comb))

let combinationalize_step_law seed =
  (* One sequential step equals a combinational evaluation through the
     pseudo boundary. *)
  let net = small_circuit (seed + 3) in
  if Netlist.ffs net = [] then true
  else begin
    let comb, maps = Combinationalize.run net in
    let rng = Random.State.make [| seed |] in
    let pi_values = Hashtbl.create 16 in
    List.iter
      (fun pi ->
        Hashtbl.replace pi_values (Netlist.node net pi).Netlist.name
          (Random.State.bool rng))
      (Netlist.inputs net);
    (* sequential step from the all-zero state *)
    let sim = Cycle_sim.create net in
    let values =
      Cycle_sim.step sim ~inputs:(fun id ->
          Hashtbl.find pi_values (Netlist.node net id).Netlist.name)
    in
    (* combinational evaluation with ppi_* = 0 *)
    let comb_in id =
      let name = (Netlist.node comb id).Netlist.name in
      match Hashtbl.find_opt pi_values name with
      | Some v -> v
      | None -> false (* pseudo inputs: all-zero state *)
    in
    let comb_values = Netlist.eval_comb comb comb_in in
    List.for_all
      (fun m ->
        let ff = Option.get (Netlist.find net m.Combinationalize.ff_name) in
        let next_seq = List.assoc ff (Cycle_sim.state sim) in
        let ppo = List.assoc m.Combinationalize.ppo (Netlist.outputs comb) in
        ignore values;
        next_seq = comb_values.(ppo))
      maps
  end

let suites =
  [
    ( "netlist.cell",
      [
        tc "unary" `Quick test_cell_eval_unary;
        tc "binary" `Quick test_cell_eval_binary;
        tc "wide" `Quick test_cell_eval_wide;
        tc "mux" `Quick test_cell_eval_mux;
        tc "arity" `Quick test_cell_arity;
        tc "names" `Quick test_cell_names;
      ] );
    ( "netlist.cell_lib",
      [
        tc "bind" `Quick test_cell_lib_bind;
        tc "find" `Quick test_cell_lib_find;
        tc "delay cells" `Quick test_cell_lib_delay_cells;
        tc "lut costs" `Quick test_lut_costs;
      ] );
    ( "netlist.graph",
      [
        tc "build" `Quick test_netlist_build;
        tc "duplicate names" `Quick test_netlist_duplicate_names;
        tc "const sharing" `Quick test_netlist_const_sharing;
        tc "cycle detection" `Quick test_netlist_cycle_detection;
        tc "replace_uses" `Quick test_netlist_replace_uses;
        tc "copy/compact" `Quick test_netlist_copy_compact;
        tc "widen_gate" `Quick test_netlist_widen;
        tc "eval_comb" `Quick test_eval_comb;
        qcheck "topo order respects fanins" gen_circuit_arb topo_order_law;
      ] );
    ( "netlist.bench_format",
      [
        tc "s27 round trip" `Quick test_bench_roundtrip_s27;
        tc "parse errors" `Quick test_bench_parse_errors;
        tc "comments + LUT" `Quick test_bench_comments_and_lut;
        tc "through-FF cycles" `Quick test_bench_dff_cycle;
        qcheck ~count:30 "generated round trip" gen_circuit_arb
          bench_roundtrip_law;
        tc "1-input LUT nibble padding" `Quick test_bench_lut_arity1;
        qcheck ~count:25 "adversarial round trip (miter)"
          QCheck.(int_bound 1_000_000) bench_adversarial_roundtrip_law;
      ] );
    ( "netlist.generator",
      [
        tc "deterministic" `Quick test_generator_deterministic;
        tc "matches published counts" `Quick test_generator_counts;
        qcheck ~count:30 "no dead logic" gen_circuit_arb generator_live_law;
      ] );
    ( "netlist.topo",
      [
        tc "levels/depth" `Quick test_topo_levels_depth;
        tc "cones" `Quick test_topo_cones;
        tc "ff groups" `Quick test_topo_ff_groups;
        tc "ff groups match per-FF BFS" `Slow test_topo_ff_groups_parity;
        qcheck ~count:60 "ff groups match per-FF BFS (generated)"
          QCheck.(pair (int_bound 100_000) (int_range 1 150))
          ff_groups_parity_law;
      ] );
    ("netlist.stats", [ tc "overhead" `Quick test_stats_overhead ]);
    ( "netlist.combinationalize",
      [
        tc "structure" `Quick test_combinationalize_structure;
        qcheck ~count:30 "one step equals comb eval" gen_circuit_arb
          combinationalize_step_law;
      ] );
  ]
