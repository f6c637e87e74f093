(* The oracle service: wire codec properties, the Oracle.of_fn batch
   transport, and end-to-end tests against an in-process gklockd —
   registry-wide verdict parity, per-client quota exhaustion inside a
   coalesced word, malformed-frame robustness and clean shutdown. *)

let tc = Alcotest.test_case

(* ----- wire codec generators ----- *)

let gen_name =
  (* arbitrary bytes, not just identifiers: the codec must not care *)
  QCheck.Gen.(string_size ~gen:(map Char.chr (0 -- 255)) (0 -- 12))

let gen_assignment = QCheck.Gen.(list_size (0 -- 8) (pair gen_name bool))

let gen_design_info =
  QCheck.Gen.(
    map
      (fun (d_name, d_inputs, d_outputs, d_cells) ->
        { Wire.d_name; d_inputs; d_outputs; d_cells })
      (quad gen_name
         (list_size (0 -- 6) gen_name)
         (list_size (0 -- 6) gen_name)
         (int_bound 1_000_000)))

let gen_error_code =
  QCheck.Gen.oneofl
    [
      Wire.Bad_frame; Wire.Bad_payload; Wire.Unsupported_version;
      Wire.Unknown_type; Wire.Unknown_design; Wire.Over_quota_queries;
      Wire.Over_quota_deadline; Wire.Bad_query; Wire.Not_permitted;
      Wire.Shutting_down; Wire.Server_error;
    ]

let gen_msg =
  QCheck.Gen.(
    oneof
      [
        map2
          (fun client proto -> Wire.Hello { client; proto })
          gen_name (int_bound 255);
        map2
          (fun server proto -> Wire.Hello_ack { server; proto })
          gen_name (int_bound 255);
        return Wire.List_designs;
        map (fun ds -> Wire.Designs ds) (list_size (0 -- 4) gen_design_info);
        map2
          (fun design assignment -> Wire.Query { design; assignment })
          gen_name gen_assignment;
        map (fun a -> Wire.Result a) gen_assignment;
        map2
          (fun design assignments -> Wire.Query_batch { design; assignments })
          gen_name
          (list_size (0 -- 5) gen_assignment);
        map (fun rs -> Wire.Batch_result rs) (list_size (0 -- 5) gen_assignment);
        return Wire.Ping;
        return Wire.Pong;
        return Wire.Shutdown;
        return Wire.Shutdown_ack;
        map2
          (fun code detail -> Wire.Error { code; detail })
          gen_error_code gen_name;
      ])

let print_frame (id, msg) = Printf.sprintf "#%d %s" id (Wire.msg_type_name msg)

let arb_frame =
  QCheck.make ~print:print_frame
    QCheck.Gen.(pair (int_bound 0xFFFFFFF) gen_msg)

let qc_roundtrip =
  Qc.qcheck ~count:500 "wire frame round-trip" arb_frame (fun (id, msg) ->
      match Wire.decode (Wire.encode ~id msg) with
      | Ok { Wire.id = id'; msg = msg' } -> id' = id && msg' = msg
      | Error e -> QCheck.Test.fail_report (Wire.wire_error_message e))

let qc_truncated =
  (* every strict prefix of a valid frame is rejected, never mis-parsed *)
  Qc.qcheck ~count:300 "truncated frames are structured errors"
    (QCheck.make
       ~print:(fun (f, cut) -> print_frame f ^ Printf.sprintf " cut@%f" cut)
       QCheck.Gen.(pair (pair (int_bound 0xFFFFFFF) gen_msg) (float_bound_inclusive 1.0)))
    (fun ((id, msg), cut) ->
      let b = Wire.encode ~id msg in
      let n = Bytes.length b in
      let keep = min (n - 1) (int_of_float (cut *. float_of_int n)) in
      match Wire.decode (Bytes.sub b 0 keep) with
      | Ok _ -> QCheck.Test.fail_report "prefix decoded as a whole frame"
      | Error _ -> true)

let qc_mutated =
  (* flipping any byte never raises: worst case is a *different* valid
     frame (e.g. a type byte landing on another empty-payload type) *)
  Qc.qcheck ~count:500 "mutated frames never raise"
    (QCheck.make
       ~print:(fun ((f, _), _) -> print_frame f)
       QCheck.Gen.(
         pair
           (pair (pair (int_bound 0xFFFFFFF) gen_msg) (int_bound 10_000))
           (int_bound 255)))
    (fun (((id, msg), pos), v) ->
      let b = Wire.encode ~id msg in
      let pos = pos mod Bytes.length b in
      Bytes.set b pos (Char.chr ((Char.code (Bytes.get b pos) + 1 + v) land 0xff));
      match Wire.decode b with _ -> true)

let qc_garbage =
  Qc.qcheck ~count:500 "garbage bytes never raise"
    (QCheck.make
       ~print:(fun s -> Printf.sprintf "%d bytes" (String.length s))
       QCheck.Gen.(string_size ~gen:(map Char.chr (0 -- 255)) (0 -- 80)))
    (fun s ->
      match Wire.decode (Bytes.of_string s) with _ -> true)

(* ----- CRC-32 and wire-format pins -----

   A self-consistent codec round-trips whatever its CRC is, so these
   pin the bytes themselves: the IEEE check value, an independent
   bit-at-a-time reference over arbitrary ranges, and golden frames. *)

let crc32_bitwise b ~pos ~len =
  let c = ref 0xFFFFFFFF in
  for i = pos to pos + len - 1 do
    c := !c lxor Char.code (Bytes.get b i);
    for _ = 0 to 7 do
      c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
    done
  done;
  Int32.of_int (!c lxor 0xFFFFFFFF)

let test_crc_check_value () =
  Alcotest.(check int32) "crc32 \"123456789\"" 0xCBF43926l
    (Wire.crc32 (Bytes.of_string "123456789") ~pos:0 ~len:9)

let qc_crc_reference =
  Qc.qcheck ~count:500 "crc32 matches the bitwise reference"
    (QCheck.make
       ~print:(fun (s, a, b) -> Printf.sprintf "%d bytes, %d, %d" (String.length s) a b)
       QCheck.Gen.(
         triple
           (string_size ~gen:(map Char.chr (0 -- 255)) (0 -- 300))
           nat nat))
    (fun (s, a, b) ->
      let buf = Bytes.of_string s in
      let n = Bytes.length buf in
      let pos = if n = 0 then 0 else a mod (n + 1) in
      let len = if n - pos = 0 then 0 else b mod (n - pos + 1) in
      Wire.crc32 buf ~pos ~len = crc32_bitwise buf ~pos ~len)

let hex_of_bytes b =
  String.concat ""
    (List.map
       (fun c -> Printf.sprintf "%02x" (Char.code c))
       (List.of_seq (Bytes.to_seq b)))

(* Each frame is written out field by field: the 16-byte header (magic
   "GK", version 02, type, id, payload length, CRC-32 of the payload)
   and then the payload.  Assignments travel in runs: a u32 run count,
   then per run a u16 pin count, the u16-length pin names, a u32
   assignment count and one packed-bit assignment of max 1 ⌈n/8⌉ bytes
   each, pin i at bit i mod 8 of byte i / 8 (LSB first). *)
let test_golden_frames () =
  let q =
    Wire.Query_batch
      {
        design = "s27";
        assignments = [ [ ("G0", true); ("G1", false) ]; [ ("G2", true) ] ];
      }
  in
  let r = Wire.Batch_result [ [ ("G17", false) ]; [ ("G17", true); ("G11", false) ] ] in
  let shared =
    Wire.Batch_result
      [ [ ("G17", false); ("G11", true) ]; [ ("G17", true); ("G11", true) ] ]
  in
  let nine =
    Wire.Result
      (List.init 9 (fun i -> (Printf.sprintf "a%d" i, i = 0 || i = 8)))
  in
  (* 474b 02 04 01020304 00000023 8e264056 (35-byte payload):
     0003 733237       design "s27"
     00000002          two runs (the pin lists differ)
     0002 0002 4730 0002 4731 00000001 01
                       pins G0 G1, one assignment: G0=1 (bit 0), G1=0
     0001 0002 4732 00000001 01
                       pin G2, one assignment: G2=1 *)
  Alcotest.(check string) "query_batch frame"
    "474b020401020304000000238e264056\
     0003733237\
     00000002\
     00020002473000024731\
     0000000101\
     00010002473200000001\
     01"
    (hex_of_bytes (Wire.encode ~id:0x01020304 q));
  (* 474b 02 84 00000007 00000021 266fc2dc (33-byte payload):
     00000002          two runs
     0001 0003 473137 00000001 00
                       pin G17, one assignment: G17=0
     0002 0003 473137 0003 473131 00000001 01
                       pins G17 G11, one assignment: G17=1, G11=0 *)
  Alcotest.(check string) "batch_result frame"
    "474b02840000000700000021266fc2dc\
     00000002\
     0001000347313700000001\
     00\
     00020003473137000347313100000001\
     01"
    (hex_of_bytes (Wire.encode ~id:7 r));
  (* 474b 02 84 00000009 00000016 9aacb288 (22-byte payload):
     00000001          one run: both assignments share pins G17 G11
     0002 0003 473137 0003 473131
     00000002 02 03    two assignments: (0,1) -> 0b10, (1,1) -> 0b11 *)
  Alcotest.(check string) "batch_result frame with a shared run"
    "474b028400000009000000169aacb288\
     00000001\
     000200034731370003473131\
     00000002\
     0203"
    (hex_of_bytes (Wire.encode ~id:9 shared));
  (* 474b 02 83 0000000a 00000030 a2fcd353 (48-byte payload):
     00000001          one run
     0009 0002 6130 ... 0002 6138
                       pins a0 .. a8
     00000001 01 01    one assignment over 9 pins, 2 bytes: a0=1 is bit
                       0 of byte 0, a8=1 bit 0 of byte 1, whose bits
                       1-7 are zero padding *)
  Alcotest.(check string) "result frame across a byte boundary"
    "474b02830000000a00000030a2fcd353\
     00000001\
     0009000261300002613100026132000261330002613400026135000261360002613700026138\
     00000001\
     0101"
    (hex_of_bytes (Wire.encode ~id:10 nine))

(* ----- the exact max_payload boundary ----- *)

(* A [Batch_result] with one assignment whose pin names are tuned so the
   encoded payload is exactly [bytes]: 4 (run count) + 2 (pin count) +
   per pin a 2-byte name length and the name + 4 (assignment count) +
   ⌈n/8⌉ bytes of packed values for the [n] pins.  Pin names are
   u16-length on the wire, so the bulk is [n - 1] 998-byte names (1000
   wire bytes each) and one final name absorbs the remainder; taking
   [n = body / 1001] leaves that remainder between 2 and 2 + 65535. *)
let batch_result_of_bytes bytes =
  let body = bytes - 10 in
  let n = body / 1001 in
  let rem = body - ((n + 7) / 8) - ((n - 1) * 1000) in
  assert (n >= 2 && rem >= 2 && rem - 2 <= 0xffff);
  let pins =
    List.init (n - 1) (fun i ->
        (Printf.sprintf "%06d%s" i (String.make 992 'p'), i land 1 = 1))
  in
  Wire.Batch_result [ pins @ [ (String.make (rem - 2) 'q', true) ] ]

let qc_payload_boundary =
  (* the cap is exact on both sides of the codec: a payload of
     max_payload - k (k >= 0) encodes and round-trips, max_payload + k
     (k > 0) raises — no off-by-one between encode and decode_header *)
  Qc.qcheck ~count:24 "payload cap is exact at max_payload"
    (QCheck.make ~print:string_of_int QCheck.Gen.(int_range (-16) 16))
    (fun delta ->
      let target = Wire.max_payload + delta in
      let msg = batch_result_of_bytes target in
      if delta <= 0 then (
        let b = Wire.encode ~id:5 msg in
        if Bytes.length b <> Wire.header_bytes + target then
          QCheck.Test.fail_report "encoded payload size is not as constructed"
        else
          match Wire.decode b with
          | Ok { Wire.id = 5; msg = msg' } -> msg' = msg
          | Ok _ -> QCheck.Test.fail_report "round-trip changed the id"
          | Error e -> QCheck.Test.fail_report (Wire.wire_error_message e))
      else
        match Wire.encode ~id:5 msg with
        | _ -> QCheck.Test.fail_report "payload above the cap encoded"
        | exception Invalid_argument _ -> true)

let test_oversized () =
  let b = Wire.encode ~id:7 Wire.Ping in
  Bytes.set_int32_be b 8 (Int32.of_int (Wire.max_payload + 1));
  match Wire.decode b with
  | Error (Wire.Oversized n) ->
    Alcotest.(check int) "announced length" (Wire.max_payload + 1) n
  | Ok _ | Error _ -> Alcotest.fail "oversized frame not rejected as such"

let test_crc_mismatch () =
  let b =
    Wire.encode ~id:9
      (Wire.Query { design = "d"; assignment = [ ("a", true) ] })
  in
  let pos = Wire.header_bytes in
  Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor 0x40));
  match Wire.decode b with
  | Error Wire.Crc_mismatch -> ()
  | Ok _ | Error _ -> Alcotest.fail "corrupt payload not caught by the CRC"

let test_unknown_type () =
  let b = Wire.encode ~id:1 Wire.Ping in
  Bytes.set b 3 '\x42';
  match Wire.decode b with
  | Error (Wire.Unknown_msg_type 0x42) -> ()
  | Ok _ | Error _ -> Alcotest.fail "unknown type byte not rejected as such"

let test_bad_magic () =
  let b = Wire.encode ~id:1 Wire.Ping in
  Bytes.set b 0 'X';
  match Wire.decode b with
  | Error Wire.Bad_magic -> ()
  | Ok _ | Error _ -> Alcotest.fail "bad magic not rejected as such"

(* ----- the run layout: exact sizes and hostile input ----- *)

let qc_payload_bytes =
  Qc.qcheck ~count:500 "payload_bytes is the encoded payload size" arb_frame
    (fun (id, msg) ->
      Wire.payload_bytes msg
      = Bytes.length (Wire.encode ~id msg) - Wire.header_bytes)

(* A frame around [payload] with a correct length and CRC, so the
   payload parser is what decides. *)
let raw_frame ?(version = Wire.protocol_version) ~typ payload =
  let len = Bytes.length payload in
  let b = Bytes.create (Wire.header_bytes + len) in
  Bytes.blit_string "GK" 0 b 0 2;
  Bytes.set_uint8 b 2 version;
  Bytes.set_uint8 b 3 typ;
  Bytes.set_int32_be b 4 1l;
  Bytes.set_int32_be b 8 (Int32.of_int len);
  Bytes.blit payload 0 b Wire.header_bytes len;
  Bytes.set_int32_be b 12 (Wire.crc32 b ~pos:Wire.header_bytes ~len);
  b

let refresh_crc b =
  let len = Bytes.length b - Wire.header_bytes in
  Bytes.set_int32_be b 12 (Wire.crc32 b ~pos:Wire.header_bytes ~len)

let malformed = function Error (Wire.Malformed _) -> true | _ -> false

let qc_counts_bounded =
  (* a Batch_result payload announcing arbitrary run, pin and assignment
     counts over a few real bytes: decoding allocates in proportion to
     the payload (at most 8 pins of 3 words per byte), never to the
     counts, and a count the bytes cannot back is Malformed *)
  Qc.qcheck ~count:500 "run and assignment counts are bounded by the payload"
    (QCheck.make
       ~print:(fun (r, n, m, tail) ->
         Printf.sprintf "runs %d, pins %d, count %d, %d tail bytes" r n m
           (String.length tail))
       QCheck.Gen.(
         let u32 =
           oneof
             [
               int_bound 8;
               map (fun k -> 0xFFFFFFFF - k) (int_bound 8);
               int_bound 0xFFFFFFF;
             ]
         in
         quad u32 (int_bound 3) u32
           (string_size ~gen:(map Char.chr (0 -- 255)) (0 -- 24))))
    (fun (runs, n, m, tail) ->
      let p = Buffer.create 64 in
      Buffer.add_int32_be p (Int32.of_int runs);
      Buffer.add_uint16_be p n;
      for i = 1 to n do
        Buffer.add_uint16_be p 1;
        Buffer.add_char p (Char.chr (0x60 + i))
      done;
      Buffer.add_int32_be p (Int32.of_int m);
      Buffer.add_string p tail;
      let b = raw_frame ~typ:0x84 (Buffer.to_bytes p) in
      let before = Gc.minor_words () in
      let r = Wire.decode b in
      let words = Gc.minor_words () -. before in
      let bytes = Bytes.length b in
      if words > float_of_int ((32 * bytes) + 256) then
        QCheck.Test.fail_reportf "%.0f words allocated for a %d-byte frame"
          words bytes
      else
        let unbacked =
          runs * 7 > Buffer.length p - 4
          || m * max 1 ((n + 7) / 8) > String.length tail
        in
        match r with
        | Ok _ -> not unbacked
        | Error (Wire.Malformed _) -> true
        | Error e -> QCheck.Test.fail_report (Wire.wire_error_message e))

(* Assignments come last in all four payloads that carry them, so the
   payload's last byte holds the last assignment's padding bits. *)
let qc_padding_rejected =
  Qc.qcheck ~count:500 "non-zero padding bits are Malformed"
    (QCheck.make
       ~print:(fun (kind, _, last, bit) ->
         Printf.sprintf "kind %d, last assignment of %d pins, bit %d" kind
           (List.length last) bit)
       QCheck.Gen.(
         quad (int_bound 3) (list_size (0 -- 3) gen_assignment)
           (list_size (0 -- 20) (pair gen_name bool))
           (int_bound 7)))
    (fun (kind, prefix, last, bit) ->
      (* at least one padding bit: a pin count that is 0 or not a
         multiple of 8 *)
      let last =
        let n = List.length last in
        if n > 0 && n mod 8 = 0 then List.tl last else last
      in
      let n = List.length last in
      let pad = n - (8 * (max 1 ((n + 7) / 8) - 1)) in
      let bit = pad + (bit mod (8 - pad)) in
      let msg =
        match kind with
        | 0 -> Wire.Query { design = "d"; assignment = last }
        | 1 -> Wire.Result last
        | 2 -> Wire.Query_batch { design = "d"; assignments = prefix @ [ last ] }
        | _ -> Wire.Batch_result (prefix @ [ last ])
      in
      let b = Wire.encode ~id:3 msg in
      let i = Bytes.length b - 1 in
      Bytes.set_uint8 b i (Bytes.get_uint8 b i lor (1 lsl bit));
      refresh_crc b;
      malformed (Wire.decode b))

let qc_canonical =
  (* a payload byte flipped under a fixed-up CRC reaches the parser:
     whatever it accepts must be the one encoding of what it returns *)
  Qc.qcheck ~count:1000 "every accepted frame re-encodes to the same bytes"
    (QCheck.make
       ~print:(fun ((f, _), _) -> print_frame f)
       QCheck.Gen.(
         pair
           (pair (pair (int_bound 0xFFFFFFF) gen_msg) (int_bound 10_000))
           (int_bound 255)))
    (fun (((id, msg), pos), v) ->
      let b = Wire.encode ~id msg in
      let len = Bytes.length b - Wire.header_bytes in
      if len > 0 then begin
        let pos = Wire.header_bytes + (pos mod len) in
        Bytes.set_uint8 b pos ((Bytes.get_uint8 b pos + 1 + v) land 0xff);
        refresh_crc b
      end;
      match Wire.decode b with
      | Ok { Wire.id; msg } -> Bytes.equal (Wire.encode ~id msg) b
      | Error _ -> true)

let bytes_of_hex h =
  let h = String.concat "" (String.split_on_char ' ' h) in
  Bytes.init (String.length h / 2) (fun i ->
      Char.chr (int_of_string ("0x" ^ String.sub h (2 * i) 2)))

let test_non_canonical_runs () =
  let check name typ hex =
    Alcotest.(check bool) name true
      (malformed (Wire.decode (raw_frame ~typ (bytes_of_hex hex))))
  in
  (* two runs over the same pin "a": the encoder writes one run of 2 *)
  check "adjacent runs with the same pin list" 0x84
    "00000002 0001 0001 61 00000001 01 0001 0001 61 00000001 00";
  check "two zero-pin runs" 0x84
    "00000002 0000 00000001 00 0000 00000001 00";
  check "a run of no assignments" 0x84 "00000001 0001 0001 61 00000000";
  (* a Query carries exactly one assignment *)
  check "a query of two assignments" 0x03
    "0001 64 00000001 0000 00000002 00 00"

let test_s5378_frames_small () =
  (* the benchmark's round trip: 63 queries over s5378's 198 sources
     and their answers over its 212 outputs, each one run *)
  let chip = fst (Combinationalize.run (Benchmarks.by_name "s5378")) in
  let o = Oracle.of_netlist ~memo:false chip in
  let rng = Random.State.make [| 5378 |] in
  let qs =
    List.init 63 (fun _ ->
        List.map (fun p -> (p, Random.State.bool rng)) (Oracle.input_names o))
  in
  let req =
    Wire.encode ~id:1
      (Wire.Query_batch { design = "s5378"; assignments = qs })
  in
  let rep = Wire.encode ~id:1 (Wire.Batch_result (Oracle.query_batch o qs)) in
  List.iter
    (fun (name, b) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s frame is %d bytes <= 4096" name (Bytes.length b))
        true
        (Bytes.length b <= 4096))
    [ ("query_batch", req); ("batch_result", rep) ]

(* ----- Oracle.of_fn ~batch (no sockets) ----- *)

let test_fn_batch_dedup () =
  let scalar_calls = ref 0 and batch_calls = ref 0 and batch_qs = ref [] in
  let eval q = [ ("y", List.exists snd q) ] in
  let o =
    Oracle.of_fn
      ~batch:(fun qs ->
        incr batch_calls;
        batch_qs := qs;
        List.map eval qs)
      (fun q ->
        incr scalar_calls;
        eval q)
  in
  let q1 = [ ("a", true); ("b", false) ] in
  let q2 = [ ("a", false); ("b", false) ] in
  let q1' = [ ("b", false); ("a", true) ] (* same effective assignment *) in
  let rs = Oracle.query_batch o [ q1; q2; q1'; q1 ] in
  Alcotest.(check int) "one wire batch" 1 !batch_calls;
  Alcotest.(check int) "no scalar fallback" 0 !scalar_calls;
  Alcotest.(check int) "misses deduplicated" 2 (List.length !batch_qs);
  Alcotest.(check int) "charged distinct queries only" 2 (Oracle.queries o);
  Alcotest.(check (list (list (pair string bool))))
    "responses in request order"
    [ [ ("y", true) ]; [ ("y", false) ]; [ ("y", true) ]; [ ("y", true) ] ]
    rs;
  (* everything is memoized now: a second batch costs nothing *)
  let _ = Oracle.query_batch o [ q1; q2 ] in
  Alcotest.(check int) "memo hit batch is free" 1 !batch_calls;
  Alcotest.(check int) "no extra charges" 2 (Oracle.queries o)

let test_fn_batch_no_memo () =
  let batch_calls = ref 0 in
  let o =
    Oracle.of_fn ~memo:false
      ~batch:(fun qs ->
        incr batch_calls;
        List.map (fun _ -> [ ("y", true) ]) qs)
      (fun _ -> [ ("y", true) ])
  in
  let q i = [ ("a", i land 1 = 1); ("b", i land 2 = 2) ] in
  let _ = Oracle.query_batch o [ q 0; q 0; q 1 ] in
  let _ = Oracle.query_batch o [ q 0 ] in
  Alcotest.(check int) "every batch hits the wire" 2 !batch_calls;
  Alcotest.(check int) "all queries charged" 4 (Oracle.queries o)

(* ----- in-process daemon harness ----- *)

let socket_path () =
  let p = Filename.temp_file "gklockd_test" ".sock" in
  Sys.remove p;
  p

let with_server ?(config = Gkd_server.default_config) designs f =
  let path = socket_path () in
  let t =
    Gkd_server.create ~config ~listen:(Frame_io.Unix_path path) designs
  in
  Gkd_server.start t;
  Fun.protect
    ~finally:(fun () ->
      Gkd_server.stop t;
      if Sys.file_exists path then Sys.remove path)
    (fun () -> f t path)

let send fd ~id msg = Frame_io.write_frame fd ~id msg

let recv fd =
  match Frame_io.read_frame fd with
  | Ok f -> f
  | Error e -> Alcotest.fail ("read_frame: " ^ Frame_io.read_error_message e)

let hello fd ~id name =
  send fd ~id (Wire.Hello { client = name; proto = Wire.protocol_version });
  match recv fd with
  | { Wire.id = id'; msg = Wire.Hello_ack _ } when id' = id -> ()
  | _ -> Alcotest.fail "handshake failed"

(* ----- registry-wide verdict parity ----- *)

let verdict_repr (o : Attack.outcome) =
  match o.Attack.verdict with
  | Attack.Key_recovered k -> "key_recovered: " ^ Key.to_string k
  | Attack.Wrong_key { key; mismatches } ->
    Printf.sprintf "wrong_key: %s (%d)" (Key.to_string key) mismatches
  | Attack.No_dip { key; mismatches } ->
    Printf.sprintf "no_dip: %s (%d)" (Key.to_string key) mismatches
  | Attack.Approx_key { key; error_rate } ->
    Printf.sprintf "approx_key: %s (%.6f)" (Key.to_string key) error_rate
  | Attack.Partial_key { recovered; unresolved } ->
    Printf.sprintf "partial_key: %s (%d unresolved)" (Key.to_string recovered)
      unresolved
  | Attack.Recovered_netlist net -> "netlist:\n" ^ Bench_format.print net
  | Attack.Gave_up r -> "gave_up:" ^ Attack.gave_up_reason_name r
  | Attack.Skipped -> "skipped"
  | Attack.Out_of_budget r -> "out_of_budget: " ^ Budget.reason_name r

let test_registry_parity () =
  List.iter
    (fun (dname, net) ->
      let comb = fst (Combinationalize.run net) in
      let lk = Xor_lock.lock ~seed:11 comb ~n_keys:4 in
      with_server [ (dname, net) ] (fun _t path ->
          let r =
            Remote_oracle.connect ~client:"parity" ~design:dname
              (Frame_io.Unix_path path)
          in
          Fun.protect ~finally:(fun () -> Remote_oracle.close r) @@ fun () ->
          let remote = Remote_oracle.oracle r in
          List.iter
            (fun (e : Attack.entry) ->
              let go oracle =
                Attack.run ~seed:3 ~name:e.Attack.name ~locked:lk.Locked.net
                  ~key_inputs:lk.Locked.key_inputs ~oracle ()
              in
              let local = go (Oracle.of_netlist comb) in
              let viawire = go remote in
              Alcotest.(check string)
                (Printf.sprintf "%s on %s" e.Attack.name dname)
                (verdict_repr local) (verdict_repr viawire))
            Attack.registry))
    [ ("tiny", Benchmarks.tiny ()); ("s27", Benchmarks.s27 ()) ]

(* ----- per-client quota exhaustion inside a coalesced word ----- *)

let histogram_stats name =
  match Obs.Metrics.snapshot () with
  | Cjson.Obj kvs -> (
    match List.assoc_opt name kvs with
    | Some (Cjson.Obj h) -> (
      match (List.assoc_opt "count" h, List.assoc_opt "sum" h) with
      | Some (Cjson.Int c), Some (Cjson.Float s) -> (c, s)
      | _ -> Alcotest.fail (name ^ ": not a histogram"))
    | _ -> Alcotest.fail (name ^ ": not in the registry"))
  | _ -> Alcotest.fail "snapshot is not an object"

let test_quota_mid_word () =
  Obs.Metrics.reset ();
  let config =
    {
      Gkd_server.default_config with
      Gkd_server.flush_lanes = 63;
      (* long enough that all 8 pipelined queries coalesce into ONE word *)
      flush_delay_s = 0.4;
      max_queries_per_client = Some 3;
    }
  in
  with_server ~config [ ("s27", Benchmarks.s27 ()) ] (fun t path ->
      let oracle = Option.get (Gkd_server.design_oracle t "s27") in
      let pins = Oracle.input_names oracle in
      let asg i = List.mapi (fun b p -> (p, (i lsr b) land 1 = 1)) pins in
      let a = Frame_io.connect (Frame_io.Unix_path path) in
      let b = Frame_io.connect (Frame_io.Unix_path path) in
      Fun.protect
        ~finally:(fun () ->
          (try Unix.close a with Unix.Unix_error _ -> ());
          try Unix.close b with Unix.Unix_error _ -> ())
      @@ fun () ->
      hello a ~id:900 "alice";
      hello b ~id:901 "bob";
      (* pipeline scalar queries while the flusher sits on its delay:
         alice is 2 over her quota, bob exactly at his *)
      for i = 1 to 5 do
        send a ~id:i (Wire.Query { design = "s27"; assignment = asg i })
      done;
      for i = 1 to 3 do
        send b ~id:(10 + i)
          (Wire.Query { design = "s27"; assignment = asg (5 + i) })
      done;
      let collect fd n =
        List.init n (fun _ ->
            let { Wire.id; msg } = recv fd in
            (id, msg))
      in
      let ra = collect a 5 in
      let rb = collect b 3 in
      List.iter
        (fun (id, msg) ->
          match msg with
          | Wire.Result _ when id <= 3 -> ()
          | Wire.Error { code = Wire.Over_quota_queries; _ } when id > 3 -> ()
          | m ->
            Alcotest.failf "alice #%d: unexpected %s" id (Wire.msg_type_name m))
        ra;
      List.iter
        (fun (id, msg) ->
          match msg with
          | Wire.Result _ -> ()
          | m ->
            Alcotest.failf "bob #%d: unexpected %s (same-word lanes must be \
                            unaffected)" id (Wire.msg_type_name m))
        rb;
      (* alice's dropped lanes never reached the engine *)
      Alcotest.(check int) "engine evaluated only in-quota lanes" 6
        (Oracle.queries oracle);
      (* batch fill is observed once per flush, not once per query *)
      let count, sum = histogram_stats "gklockd.batch_fill" in
      Alcotest.(check int) "one flush" 1 count;
      Alcotest.(check (float 0.001)) "eight coalesced lanes" 8.0 sum)

(* ----- the flush policy: complete words flush at once ----- *)

let counter name = Obs.Metrics.value (Obs.Metrics.counter name)

type exchange = {
  elapsed : float;
  flushes : int;
  full : int;
  complete : int;
  deadline : int;
}

(* Two [Remote_oracle] clients each make [n] sequential scalar queries
   under a 0.4 s flush delay; with [~idle:true] a third connection says
   [Hello] and then stays silent.  Every answer is checked against an
   in-process oracle. *)
let sequential_exchange ?(idle = false) n =
  Obs.Metrics.reset ();
  let config = { Gkd_server.default_config with Gkd_server.flush_delay_s = 0.4 } in
  let net = Benchmarks.s27 () in
  let local = Oracle.of_netlist (fst (Combinationalize.run net)) in
  with_server ~config [ ("s27", net) ] (fun _t path ->
      let addr = Frame_io.Unix_path path in
      let idle_fd =
        if idle then begin
          let fd = Frame_io.connect addr in
          hello fd ~id:1 "idle";
          Some fd
        end
        else None
      in
      let clients =
        List.init 2 (fun i ->
            Remote_oracle.connect ~client:(Printf.sprintf "seq%d" i) ~memo:false
              addr)
      in
      Fun.protect
        ~finally:(fun () ->
          List.iter Remote_oracle.close clients;
          Option.iter Unix.close idle_fd)
      @@ fun () ->
      let pins = Oracle.input_names local in
      let asg i = List.mapi (fun b p -> (p, (i lsr b) land 1 = 1)) pins in
      let answers = Array.make 2 [] in
      let t0 = Unix.gettimeofday () in
      let threads =
        List.mapi
          (fun i r ->
            Thread.create
              (fun () ->
                let o = Remote_oracle.oracle r in
                for j = 1 to n do
                  let q = asg ((i * 64) + j) in
                  answers.(i) <- (q, Oracle.query o q) :: answers.(i)
                done)
              ())
          clients
      in
      List.iter Thread.join threads;
      let elapsed = Unix.gettimeofday () -. t0 in
      let norm a = List.sort compare a in
      Array.iter
        (fun qa ->
          Alcotest.(check int) "every query answered" n (List.length qa);
          List.iter
            (fun (q, got) ->
              if norm got <> norm (Oracle.query local q) then
                Alcotest.fail "daemon answer differs from the local oracle")
            qa)
        answers;
      {
        elapsed;
        flushes = counter "gklockd.flushes";
        full = counter "gklockd.flush_full";
        complete = counter "gklockd.flush_complete";
        deadline = counter "gklockd.flush_deadline";
      })

let test_flush_on_complete () =
  let x = sequential_exchange 20 in
  Alcotest.(check int) "no word was full" 0 x.full;
  (* no client has been answered before the first word, so it (or, if
     the two threads start far apart, the first two) waits the delay *)
  Alcotest.(check bool)
    (Printf.sprintf "1 or 2 deadline flushes (got %d)" x.deadline)
    true
    (x.deadline >= 1 && x.deadline <= 2);
  Alcotest.(check int) "every later word flushed as complete"
    (x.flushes - x.deadline) x.complete;
  Alcotest.(check bool)
    (Printf.sprintf "well under 20 x 0.4 s (took %.2f s)" x.elapsed)
    true (x.elapsed < 2.0)

let test_idle_connection_pays_delay () =
  (* 5 rather than 20 queries: every word waits the full 0.4 s here *)
  let n = 5 in
  let x = sequential_exchange ~idle:true n in
  Alcotest.(check int) "no word flushed as complete" 0 x.complete;
  Alcotest.(check int) "every word waited out the delay" x.flushes x.deadline;
  Alcotest.(check bool)
    (Printf.sprintf "at least %d x 0.4 s (took %.2f s)" n x.elapsed)
    true
    (x.elapsed >= 0.4 *. float_of_int n *. 0.99)

let test_stop_with_pending_query () =
  let config = { Gkd_server.default_config with Gkd_server.flush_delay_s = 5.0 } in
  with_server ~config [ ("s27", Benchmarks.s27 ()) ] (fun t path ->
      let fd = Frame_io.connect (Frame_io.Unix_path path) in
      Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
      hello fd ~id:1 "pending";
      send fd ~id:2 (Wire.Query { design = "s27"; assignment = [] });
      (* frames are handled in order: the pong proves the query is queued *)
      send fd ~id:3 Wire.Ping;
      (match recv fd with
      | { Wire.id = 3; msg = Wire.Pong } -> ()
      | _ -> Alcotest.fail "expected the pong before the query's reply");
      let t0 = Unix.gettimeofday () in
      Gkd_server.stop t;
      let dt = Unix.gettimeofday () -. t0 in
      Alcotest.(check bool)
        (Printf.sprintf "stop returns within 1 s (took %.2f s)" dt)
        true (dt < 1.0);
      match recv fd with
      | { Wire.id = 2; msg = Wire.Result _ }
      | { Wire.id = 2; msg = Wire.Error { code = Wire.Shutting_down; _ } } ->
        ()
      | { Wire.id; msg } ->
        Alcotest.failf "pending query: unexpected #%d %s" id
          (Wire.msg_type_name msg))

(* ----- structured errors for unknown designs ----- *)

let test_unknown_design () =
  with_server [ ("s27", Benchmarks.s27 ()) ] (fun _t path ->
      (match
         Remote_oracle.connect ~design:"nope" (Frame_io.Unix_path path)
       with
      | exception Remote_oracle.Remote_error _ -> ()
      | _ -> Alcotest.fail "connect to a design the server does not host");
      let fd = Frame_io.connect (Frame_io.Unix_path path) in
      Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
      hello fd ~id:1 "probe";
      send fd ~id:2 (Wire.Query { design = "ghost"; assignment = [] });
      match recv fd with
      | { Wire.id = 2; msg = Wire.Error { code = Wire.Unknown_design; _ } } ->
        ()
      | _ -> Alcotest.fail "expected a structured unknown_design error")

(* ----- malformed-frame fuzz: no crash, no leaked connections ----- *)

let test_malformed_fuzz () =
  with_server [ ("s27", Benchmarks.s27 ()) ] (fun t path ->
      let rng = Fuzz_seed.derive 0x6e6574 in
      for _ = 1 to 1000 do
        let fd = Frame_io.connect (Frame_io.Unix_path path) in
        let n = 1 + Random.State.int rng 64 in
        let garbage =
          Bytes.init n (fun _ -> Char.chr (Random.State.int rng 256))
        in
        (try ignore (Unix.write fd garbage 0 n)
         with Unix.Unix_error _ -> ());
        (* half-close so the server always sees EOF and can answer with
           its error frame; drain whatever it says until it hangs up *)
        (try Unix.shutdown fd Unix.SHUTDOWN_SEND
         with Unix.Unix_error _ -> ());
        let rec drain () =
          match Frame_io.read_frame fd with
          | Ok _ -> drain ()
          | Error _ -> ()
        in
        drain ();
        try Unix.close fd with Unix.Unix_error _ -> ()
      done;
      (* the daemon must still be fully alive for honest clients *)
      let r = Remote_oracle.connect (Frame_io.Unix_path path) in
      let rtt = Remote_oracle.ping r in
      Alcotest.(check bool) "daemon answers after the storm" true (rtt >= 0.0);
      let o = Remote_oracle.oracle r in
      let pins =
        match Remote_oracle.designs r with
        | [ d ] -> d.Wire.d_inputs
        | _ -> Alcotest.fail "expected one hosted design"
      in
      let out = Oracle.query o (List.map (fun p -> (p, true)) pins) in
      Alcotest.(check bool) "and still evaluates" true (out <> []);
      Remote_oracle.close r;
      let rec settle n =
        if Gkd_server.live_connections t > 0 && n > 0 then (
          Unix.sleepf 0.01;
          settle (n - 1))
      in
      settle 300;
      Alcotest.(check int) "no leaked connections" 0
        (Gkd_server.live_connections t))

(* ----- concurrent explicit batches on one shared oracle ----- *)

(* Query_batch frames evaluate on reader threads while the flusher
   evaluates coalesced scalar words on the *same* Oracle.t: without the
   per-design oracle mutex this races on the engine scratch and the
   memo table, corrupting answers (or crashing).  Three batch clients
   plus one scalar client hammer s27 and every reply is checked against
   a local oracle. *)
let test_concurrent_batches () =
  let net = Benchmarks.s27 () in
  let comb = fst (Combinationalize.run net) in
  let local = Oracle.of_netlist comb in
  let pins = Oracle.input_names local in
  let asg i = List.mapi (fun b p -> (p, (i lsr b) land 1 = 1)) pins in
  let expected = Array.init 128 (fun i -> Oracle.query local (asg i)) in
  with_server [ ("s27", net) ] (fun _t path ->
      let errors = ref [] in
      let emu = Mutex.create () in
      let report e =
        Mutex.lock emu;
        errors := Printexc.to_string e :: !errors;
        Mutex.unlock emu
      in
      let with_conn name f =
        try
          let fd = Frame_io.connect (Frame_io.Unix_path path) in
          Fun.protect
            ~finally:(fun () ->
              try Unix.close fd with Unix.Unix_error _ -> ())
            (fun () ->
              hello fd ~id:0 name;
              f fd)
        with e -> report e
      in
      let batcher k () =
        with_conn (Printf.sprintf "batch%d" k) @@ fun fd ->
        for round = 1 to 20 do
          let idxs =
            List.init 16 (fun j -> ((k * 37) + (round * 11) + (j * 5)) mod 128)
          in
          send fd ~id:round
            (Wire.Query_batch
               { design = "s27"; assignments = List.map asg idxs });
          match recv fd with
          | { Wire.id; msg = Wire.Batch_result rs } when id = round ->
            List.iter2
              (fun i r ->
                if r <> expected.(i) then
                  failwith
                    (Printf.sprintf "batcher %d: wrong result for input %d" k
                       i))
              idxs rs
          | { Wire.msg; _ } ->
            failwith
              (Printf.sprintf "batcher %d: unexpected %s" k
                 (Wire.msg_type_name msg))
        done
      in
      let scalars () =
        with_conn "scalar" @@ fun fd ->
        for round = 1 to 40 do
          let i = (round * 29) mod 128 in
          send fd ~id:round (Wire.Query { design = "s27"; assignment = asg i });
          match recv fd with
          | { Wire.id; msg = Wire.Result r } when id = round ->
            if r <> expected.(i) then
              failwith (Printf.sprintf "scalar: wrong result for input %d" i)
          | { Wire.msg; _ } ->
            failwith ("scalar: unexpected " ^ Wire.msg_type_name msg)
        done
      in
      let ths =
        Thread.create scalars ()
        :: List.init 3 (fun k -> Thread.create (batcher k) ())
      in
      List.iter Thread.join ths;
      match !errors with
      | [] -> ()
      | es -> Alcotest.fail (String.concat "; " es))

(* ----- oversized replies degrade to structured errors ----- *)

(* One input, 2000 outputs with 8378-byte names.  A Batch_result is one
   run: 4 + 2 + 2000 x (2 + 8378) + 4 = 16,760,010 bytes of run header,
   then 250 bytes of packed bits per query, so it fits
   [Wire.max_payload] (16,777,216) for up to 68 queries and no more.
   The request is one run over pin "a": a byte per query. *)
let fat_netlist () =
  let n = Netlist.create "fat" in
  let a = Netlist.add_input n "a" in
  for i = 0 to 1999 do
    let g = Netlist.add_gate n Cell.Buf [| a |] in
    Netlist.add_output n
      (Printf.sprintf "out_%04d_%s" i (String.make 8369 'o'))
      g
  done;
  n

let contains hay needle =
  let n = String.length hay and m = String.length needle in
  let rec go i = i + m <= n && (String.sub hay i m = needle || go (i + 1)) in
  go 0

let test_oversized_reply () =
  (* a 130-query batch is a ~150-byte request, while its single
     Batch_result would be 16,792,510 bytes > max_payload; 4 queries
     give 16,761,010 bytes, which fit.  The reader thread must answer
     with a structured error and keep serving, not die mid-write. *)
  with_server [ ("fat", fat_netlist ()) ] (fun _t path ->
      let fd = Frame_io.connect (Frame_io.Unix_path path) in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
      @@ fun () ->
      hello fd ~id:1 "blob";
      let assignments = List.init 130 (fun i -> [ ("a", i land 1 = 1) ]) in
      send fd ~id:2 (Wire.Query_batch { design = "fat"; assignments });
      (match recv fd with
      | { Wire.id = 2; msg = Wire.Error { code = Wire.Server_error; detail } }
        ->
        Alcotest.(check bool)
          "detail says to split the batch" true
          (contains detail "frame cap")
      | { Wire.msg; _ } ->
        Alcotest.failf "expected a structured error, got %s"
          (Wire.msg_type_name msg));
      (* a smaller batch still fits and works *)
      let small = List.init 4 (fun i -> [ ("a", i land 1 = 1) ]) in
      send fd ~id:3 (Wire.Query_batch { design = "fat"; assignments = small });
      (match recv fd with
      | { Wire.id = 3; msg = Wire.Batch_result rs } ->
        Alcotest.(check int) "batch answered" 4 (List.length rs)
      | { Wire.msg; _ } ->
        Alcotest.failf "connection unusable after an oversized reply: %s"
          (Wire.msg_type_name msg));
      send fd ~id:4 Wire.Ping;
      match recv fd with
      | { Wire.id = 4; msg = Wire.Pong } -> ()
      | _ -> Alcotest.fail "no pong after an oversized reply")

let test_chunks_sized_by_reply () =
  (* the 130 queries that [test_oversized_reply] sends as one frame: the
     request is tiny, but the reply fits only up to 68 queries, so
     [Remote_oracle] must split on the exact reply size, here into two
     halves of 65 *)
  with_server [ ("fat", fat_netlist ()) ] (fun _t path ->
      let r =
        Remote_oracle.connect ~client:"fat" ~memo:false
          (Frame_io.Unix_path path)
      in
      Fun.protect ~finally:(fun () -> Remote_oracle.close r) @@ fun () ->
      let queries = List.init 130 (fun i -> [ ("a", i land 1 = 1) ]) in
      Obs.Metrics.reset ();
      let got = Oracle.query_batch (Remote_oracle.oracle r) queries in
      List.iteri
        (fun i res ->
          if List.exists (fun (_, v) -> v <> (i land 1 = 1)) res then
            Alcotest.failf "query %d: outputs do not follow input a" i)
        got;
      Alcotest.(check int) "every query answered" 130 (List.length got);
      Alcotest.(check int) "two frames" 2
        (fst (histogram_stats "gklockd.eval_s")))

(* ----- client-side chunk sizing under an extreme reply/query ratio ----- *)

let wide_reply_netlist () =
  (* 8 two-char inputs, 1024 outputs with 200-char names: each reply is
     ~203 bytes per output pin, so the reply/query byte ratio is ~5000. *)
  let n = Netlist.create "wide" in
  let ins =
    Array.init 8 (fun i -> Netlist.add_input n (Printf.sprintf "i%d" i))
  in
  for o = 0 to 1023 do
    let g = Netlist.add_gate n Cell.Buf [| ins.(o mod 8) |] in
    Netlist.add_output n
      (Printf.sprintf "o_%04d_%s" o (String.make 193 'w'))
      g
  done;
  n

let test_chunk_sizing_wide_reply () =
  (* Regression for the chunk-budget floor: [Remote_oracle.batch_chunks]
     used to floor its per-chunk request budget at 4096 bytes, which on
     this design packs ~97 queries per chunk and provokes a ~20 MB
     Batch_result — past [Wire.max_payload], so the server answered with
     a structured error and the whole batch died.  With the floor at 1
     the ratio-derived budget holds (~40 queries per chunk, ~8 MB
     replies) and the batch round-trips. *)
  let net = wide_reply_netlist () in
  let local = Oracle.of_netlist net in
  let pins = Oracle.input_names local in
  let asg i = List.mapi (fun b p -> (p, (i lsr b) land 1 = 1)) pins in
  let queries = List.init 128 asg in
  let expected = List.map (Oracle.query local) queries in
  with_server [ ("wide", net) ] (fun _t path ->
      let r =
        Remote_oracle.connect ~client:"wide" ~design:"wide"
          (Frame_io.Unix_path path)
      in
      Fun.protect ~finally:(fun () -> Remote_oracle.close r) @@ fun () ->
      let got = Oracle.query_batch (Remote_oracle.oracle r) queries in
      Alcotest.(check int) "every query answered" 128 (List.length got);
      List.iteri
        (fun i (want, have) ->
          if want <> have then
            Alcotest.failf "query %d: remote result differs from local" i)
        (List.combine expected got))

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

(* ----- a wide batch is one frame ----- *)

let test_wide_batch_one_frame () =
  (* 1008 queries over s38417's 1592 sources: about 20 MB with a name
     and a byte per pin, about 220 KB as one run of packed bits, so the
     whole batch goes out as one Query_batch frame and one evaluation *)
  with_server [ ("s38417", Benchmarks.by_name "s38417") ] (fun _t path ->
      let r =
        Remote_oracle.connect ~client:"wide" ~memo:false
          (Frame_io.Unix_path path)
      in
      Fun.protect ~finally:(fun () -> Remote_oracle.close r) @@ fun () ->
      let pins =
        match Remote_oracle.designs r with
        | [ d ] -> Array.of_list d.Wire.d_inputs
        | _ -> Alcotest.fail "expected one hosted design"
      in
      let tru = Array.map (fun p -> (p, true)) pins in
      let fls = Array.map (fun p -> (p, false)) pins in
      let rng = Random.State.make [| 38417 |] in
      let queries =
        List.init 1008 (fun _ ->
            Array.to_list
              (Array.init (Array.length pins) (fun i ->
                   if Random.State.bool rng then tru.(i) else fls.(i))))
      in
      Obs.Metrics.reset ();
      let got = Oracle.query_batch (Remote_oracle.oracle r) queries in
      Alcotest.(check int) "every query answered" 1008 (List.length got);
      Alcotest.(check int) "one frame decoded" 1
        (fst (histogram_stats "gklockd.decode_s"));
      Alcotest.(check int) "one evaluation" 1
        (fst (histogram_stats "gklockd.eval_s"));
      Alcotest.(check int) "all 1008 queries in it" 1008
        (counter "gklockd.queries"))

(* ----- protocol version 1 is refused, not mis-parsed ----- *)

let test_version_mismatch () =
  with_server [ ("s27", Benchmarks.s27 ()) ] (fun _t path ->
      let addr = Frame_io.Unix_path path in
      let unsupported what = function
        | { Wire.msg = Wire.Error { code = Wire.Unsupported_version; _ }; _ } ->
          ()
        | { Wire.msg; _ } ->
          Alcotest.failf "%s: expected unsupported_version, got %s" what
            (Wire.msg_type_name msg)
      in
      (* a version-1 Query frame: design "s27", one pin G0 as a
         (u16-length name, bool byte) pair *)
      let v1 = Frame_io.connect addr in
      Fun.protect ~finally:(fun () -> Unix.close v1) (fun () ->
          let b =
            raw_frame ~version:1 ~typ:0x03
              (bytes_of_hex "0003 733237 0001 0002 4730 01")
          in
          ignore (Unix.write v1 b 0 (Bytes.length b));
          unsupported "version-1 header" (recv v1);
          (* the unread payload may turn the server's close into a reset *)
          match Frame_io.read_frame v1 with
          | Error (`Eof | `Unix _) -> ()
          | _ -> Alcotest.fail "connection kept after a version-1 frame");
      (* a version-2 frame whose Hello asks for protocol 1 *)
      let h1 = Frame_io.connect addr in
      Fun.protect ~finally:(fun () -> Unix.close h1) (fun () ->
          send h1 ~id:1 (Wire.Hello { client = "old"; proto = 1 });
          unsupported "hello for protocol 1" (recv h1));
      (* and a version-2 client on another connection is served *)
      let r = Remote_oracle.connect ~client:"v2" addr in
      Fun.protect ~finally:(fun () -> Remote_oracle.close r) @@ fun () ->
      let local =
        Oracle.of_netlist (fst (Combinationalize.run (Benchmarks.s27 ())))
      in
      let q = List.map (fun p -> (p, true)) (Oracle.input_names local) in
      Alcotest.(check (list (pair string bool))) "v2 client answered"
        (Oracle.query local q)
        (Oracle.query (Remote_oracle.oracle r) q))

(* ----- per-frame stage histograms ----- *)

let test_stage_histograms () =
  let mfile = Filename.temp_file "gklockd_stages" ".json" in
  let config =
    {
      Gkd_server.default_config with
      Gkd_server.metrics_out = Some mfile;
      metrics_interval_s = 3600.0;
    }
  in
  let stages = [ "gklockd.decode_s"; "gklockd.eval_s"; "gklockd.encode_s" ] in
  with_server ~config [ ("s27", Benchmarks.s27 ()) ] (fun t path ->
      let pins =
        Oracle.input_names (Option.get (Gkd_server.design_oracle t "s27"))
      in
      let fd = Frame_io.connect (Frame_io.Unix_path path) in
      Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
      Obs.Metrics.reset ();
      let assignments =
        List.init 3 (fun i ->
            List.mapi (fun b p -> (p, (i lsr b) land 1 = 1)) pins)
      in
      send fd ~id:1 (Wire.Query_batch { design = "s27"; assignments });
      (match recv fd with
      | { Wire.id = 1; msg = Wire.Batch_result rs } ->
        Alcotest.(check int) "batch answered" 3 (List.length rs)
      | { Wire.msg; _ } ->
        Alcotest.failf "expected a batch result, got %s"
          (Wire.msg_type_name msg));
      List.iter
        (fun h ->
          Alcotest.(check int) (h ^ ": one observation") 1
            (fst (histogram_stats h)))
        stages);
  let dump = read_file mfile in
  Sys.remove mfile;
  match Cjson.of_string dump with
  | Ok (Cjson.Obj kvs) ->
    List.iter
      (fun h ->
        Alcotest.(check bool) (h ^ " in the metrics dump") true
          (List.mem_assoc h kvs))
      stages
  | Ok _ | Error _ -> Alcotest.fail "metrics dump is not a JSON object"

(* ----- tcp shutdown gating ----- *)

let test_tcp_shutdown_gating () =
  (* default config: a shutdown frame over tcp is refused with a
     structured error and the daemon keeps serving *)
  let t =
    Gkd_server.create ~config:Gkd_server.default_config
      ~listen:(Frame_io.Tcp ("127.0.0.1", 0))
      [ ("s27", Benchmarks.s27 ()) ]
  in
  Gkd_server.start t;
  Fun.protect ~finally:(fun () -> Gkd_server.stop t) (fun () ->
      let fd = Frame_io.connect (Gkd_server.address t) in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
      @@ fun () ->
      hello fd ~id:1 "anyone";
      send fd ~id:2 Wire.Shutdown;
      (match recv fd with
      | { Wire.id = 2; msg = Wire.Error { code = Wire.Not_permitted; _ } } ->
        ()
      | { Wire.msg; _ } ->
        Alcotest.failf "expected not_permitted over tcp, got %s"
          (Wire.msg_type_name msg));
      send fd ~id:3 Wire.Ping;
      match recv fd with
      | { Wire.id = 3; msg = Wire.Pong } -> ()
      | _ -> Alcotest.fail "daemon died after refusing a tcp shutdown");
  (* opted in: the same frame shuts the daemon down cleanly *)
  let config =
    { Gkd_server.default_config with Gkd_server.allow_tcp_shutdown = true }
  in
  let t2 =
    Gkd_server.create ~config
      ~listen:(Frame_io.Tcp ("127.0.0.1", 0))
      [ ("s27", Benchmarks.s27 ()) ]
  in
  Gkd_server.start t2;
  let fd2 = Frame_io.connect (Gkd_server.address t2) in
  hello fd2 ~id:1 "admin";
  send fd2 ~id:2 Wire.Shutdown;
  (match recv fd2 with
  | { Wire.id = 2; msg = Wire.Shutdown_ack } -> ()
  | { Wire.msg; _ } ->
    Alcotest.failf "expected shutdown_ack with allow_tcp_shutdown, got %s"
      (Wire.msg_type_name msg));
  (try Unix.close fd2 with Unix.Unix_error _ -> ());
  Gkd_server.wait t2;
  Alcotest.(check int) "all connections closed" 0
    (Gkd_server.live_connections t2)

(* ----- per-client metrics counters are capped ----- *)

let test_client_counter_cap () =
  with_server [ ("s27", Benchmarks.s27 ()) ] (fun t path ->
      let fd = Frame_io.connect (Frame_io.Unix_path path) in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
      @@ fun () ->
      (* 300 re-Hellos under distinct client-chosen names: only the
         server's cap (256) may land in the process-global registry, the
         rest share gklockd.client_queries.other *)
      for i = 1 to 300 do
        hello fd ~id:i (Printf.sprintf "cap%03d" i)
      done;
      let prefixed =
        match Obs.Metrics.snapshot () with
        | Cjson.Obj kvs ->
          List.length
            (List.filter
               (fun (k, _) ->
                 String.starts_with ~prefix:"gklockd.client_queries.cap" k)
               kvs)
        | _ -> Alcotest.fail "snapshot is not an object"
      in
      Alcotest.(check int) "distinct per-client counters capped" 256 prefixed;
      (* an over-cap client is still served, just counted as "other" *)
      let oracle = Option.get (Gkd_server.design_oracle t "s27") in
      let pins = Oracle.input_names oracle in
      send fd ~id:1000
        (Wire.Query
           { design = "s27"; assignment = List.map (fun p -> (p, true)) pins });
      match recv fd with
      | { Wire.id = 1000; msg = Wire.Result _ } -> ()
      | { Wire.msg; _ } ->
        Alcotest.failf "over-cap client not served: %s"
          (Wire.msg_type_name msg))

(* ----- metrics dump + clean shutdown ----- *)

let test_metrics_dump_and_shutdown () =
  let mfile = Filename.temp_file "gklockd_metrics" ".json" in
  let config =
    {
      Gkd_server.default_config with
      Gkd_server.flush_delay_s = 0.005;
      metrics_out = Some mfile;
      (* longer than the test: proves the final dump happens on shutdown *)
      metrics_interval_s = 3600.0;
    }
  in
  let path = socket_path () in
  let t =
    Gkd_server.create ~config
      ~listen:(Frame_io.Unix_path path)
      [ ("s27", Benchmarks.s27 ()) ]
  in
  Gkd_server.start t;
  let r = Remote_oracle.connect ~client:"dumper" (Frame_io.Unix_path path) in
  let o = Remote_oracle.oracle r in
  let pins =
    match Remote_oracle.designs r with
    | [ d ] -> d.Wire.d_inputs
    | _ -> Alcotest.fail "expected one hosted design"
  in
  let asg i = List.mapi (fun b p -> (p, (i lsr b) land 1 = 1)) pins in
  ignore (Oracle.query o (asg 1));
  ignore (Oracle.query_batch o [ asg 2; asg 3; asg 4 ]);
  (* shutdown via the wire, exactly like an external client would *)
  Remote_oracle.shutdown_server r;
  Gkd_server.wait t;
  Alcotest.(check int) "all connections closed" 0 (Gkd_server.live_connections t);
  Alcotest.(check bool) "socket file removed" false (Sys.file_exists path);
  (match Frame_io.connect (Frame_io.Unix_path path) with
  | exception Unix.Unix_error _ -> ()
  | fd ->
    Unix.close fd;
    Alcotest.fail "connect succeeded after shutdown");
  let dump = read_file mfile in
  Sys.remove mfile;
  (match Cjson.of_string dump with
  | Ok (Cjson.Obj kvs) ->
    List.iter
      (fun key ->
        Alcotest.(check bool)
          (key ^ " in the shutdown dump")
          true
          (List.mem_assoc key kvs))
      [
        "gklockd.batch_fill"; "gklockd.queries"; "gklockd.queue_depth";
        "gklockd.connections"; "gklockd.flush_full"; "gklockd.flush_complete";
        "gklockd.flush_deadline"; "wire.bytes_in"; "wire.bytes_out";
        "oracle.memo_evictions"; "oracle.memo_hits";
      ]
  | Ok _ -> Alcotest.fail "metrics dump is not a JSON object"
  | Error e -> Alcotest.fail ("metrics dump is not valid JSON: " ^ e))

let suites =
  [
    ( "net-wire",
      [
        qc_roundtrip; qc_truncated; qc_mutated; qc_garbage;
        qc_payload_boundary; qc_crc_reference; qc_payload_bytes;
        qc_counts_bounded; qc_padding_rejected; qc_canonical;
        tc "non-canonical runs rejected" `Quick test_non_canonical_runs;
        tc "63-query s5378 frames fit 4 KB" `Quick test_s5378_frames_small;
        tc "crc32 check value" `Quick test_crc_check_value;
        tc "golden batch frames" `Quick test_golden_frames;
        tc "oversized length rejected" `Quick test_oversized;
        tc "payload CRC checked" `Quick test_crc_mismatch;
        tc "unknown type byte rejected" `Quick test_unknown_type;
        tc "bad magic rejected" `Quick test_bad_magic;
      ] );
    ( "net-oracle",
      [
        tc "of_fn batch dedups and memoizes" `Quick test_fn_batch_dedup;
        tc "of_fn batch without memo" `Quick test_fn_batch_no_memo;
      ] );
    ( "net-daemon",
      [
        tc "registry verdict parity over the wire" `Slow test_registry_parity;
        tc "quota exhaustion inside a coalesced word" `Slow
          test_quota_mid_word;
        tc "a complete word flushes at once" `Slow test_flush_on_complete;
        tc "an idle connection keeps the flush delay" `Slow
          test_idle_connection_pays_delay;
        tc "stop answers a pending scalar query" `Quick
          test_stop_with_pending_query;
        tc "unknown design is a structured error" `Quick test_unknown_design;
        tc "concurrent batches share one oracle safely" `Slow
          test_concurrent_batches;
        tc "oversized reply is a structured error" `Slow test_oversized_reply;
        tc "chunk sizing survives a wide-reply design" `Slow
          test_chunk_sizing_wide_reply;
        tc "chunks split on the exact reply size" `Slow
          test_chunks_sized_by_reply;
        tc "tcp shutdown is gated" `Quick test_tcp_shutdown_gating;
        tc "per-client counters are capped" `Quick test_client_counter_cap;
        tc "1k malformed frames: alive, nothing leaked" `Slow
          test_malformed_fuzz;
        tc "metrics dump and clean shutdown" `Quick
          test_metrics_dump_and_shutdown;
        tc "a 1008-query s38417 batch is one frame" `Slow
          test_wide_batch_one_frame;
        tc "protocol version 1 is refused" `Quick test_version_mismatch;
        tc "one batch frame, one observation per stage" `Quick
          test_stage_histograms;
      ] );
  ]
