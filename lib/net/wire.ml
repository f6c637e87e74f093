let protocol_version = 2
let header_bytes = 16
let max_payload = 1 lsl 24

(* ----- CRC-32 (IEEE 802.3), slicing-by-8 -----

   [crc_table] holds eight 256-entry tables back to back, over native
   ints: entry [k*256 + n] is the CRC register after byte [n] followed
   by [k] zero bytes.  The main loop folds 8 bytes per step, read as two
   little-endian 32-bit words, through all eight tables; the last
   [len mod 8] bytes go through the first table one at a time. *)

let crc_poly = 0xEDB88320

let crc_table =
  lazy
    (let t = Array.make (8 * 256) 0 in
     for n = 0 to 255 do
       let c = ref n in
       for _ = 0 to 7 do
         c := if !c land 1 <> 0 then crc_poly lxor (!c lsr 1) else !c lsr 1
       done;
       t.(n) <- !c
     done;
     for k = 1 to 7 do
       for n = 0 to 255 do
         let prev = t.(((k - 1) * 256) + n) in
         t.((k * 256) + n) <- (prev lsr 8) lxor t.(prev land 0xff)
       done
     done;
     t)

let crc32 b ~pos ~len =
  if pos < 0 || len < 0 || pos > Bytes.length b - len then
    invalid_arg "Wire.crc32: range outside the buffer";
  let t = Lazy.force crc_table in
  let tab k n = Array.unsafe_get t ((k * 256) + n) in
  let word i = Int32.to_int (Bytes.get_int32_le b i) land 0xFFFFFFFF in
  let c = ref 0xFFFFFFFF in
  let i = ref pos in
  let blocks_end = pos + (len land lnot 7) in
  while !i < blocks_end do
    let x = !c lxor word !i and y = word (!i + 4) in
    c :=
      tab 7 (x land 0xff)
      lxor tab 6 ((x lsr 8) land 0xff)
      lxor tab 5 ((x lsr 16) land 0xff)
      lxor tab 4 (x lsr 24)
      lxor tab 3 (y land 0xff)
      lxor tab 2 ((y lsr 8) land 0xff)
      lxor tab 1 ((y lsr 16) land 0xff)
      lxor tab 0 (y lsr 24);
    i := !i + 8
  done;
  for j = blocks_end to pos + len - 1 do
    c := (!c lsr 8) lxor tab 0 ((!c lxor Char.code (Bytes.unsafe_get b j)) land 0xff)
  done;
  Int32.of_int (!c lxor 0xFFFFFFFF)

(* ----- error codes ----- *)

type error_code =
  | Bad_frame
  | Bad_payload
  | Unsupported_version
  | Unknown_type
  | Unknown_design
  | Over_quota_queries
  | Over_quota_deadline
  | Bad_query
  | Not_permitted
  | Shutting_down
  | Server_error

let error_codes =
  [
    (Bad_frame, 0x01, "bad_frame");
    (Bad_payload, 0x02, "bad_payload");
    (Unsupported_version, 0x03, "unsupported_version");
    (Unknown_type, 0x04, "unknown_type");
    (Unknown_design, 0x10, "unknown_design");
    (Over_quota_queries, 0x11, "over_quota_queries");
    (Over_quota_deadline, 0x12, "over_quota_deadline");
    (Bad_query, 0x13, "bad_query");
    (Not_permitted, 0x14, "not_permitted");
    (Shutting_down, 0x20, "shutting_down");
    (Server_error, 0x21, "server_error");
  ]

let error_code_byte c =
  let _, b, _ = List.find (fun (c', _, _) -> c' = c) error_codes in
  b

let error_code_of_byte b =
  List.find_map (fun (c, b', _) -> if b = b' then Some c else None) error_codes

let error_code_name c =
  let _, _, n = List.find (fun (c', _, _) -> c' = c) error_codes in
  n

(* ----- messages ----- *)

type design_info = {
  d_name : string;
  d_inputs : string list;
  d_outputs : string list;
  d_cells : int;
}

type msg =
  | Hello of { client : string; proto : int }
  | Hello_ack of { server : string; proto : int }
  | List_designs
  | Designs of design_info list
  | Query of { design : string; assignment : (string * bool) list }
  | Result of (string * bool) list
  | Query_batch of {
      design : string;
      assignments : (string * bool) list list;
    }
  | Batch_result of (string * bool) list list
  | Ping
  | Pong
  | Shutdown
  | Shutdown_ack
  | Error of { code : error_code; detail : string }

let msg_type = function
  | Hello _ -> 0x01
  | List_designs -> 0x02
  | Query _ -> 0x03
  | Query_batch _ -> 0x04
  | Ping -> 0x05
  | Shutdown -> 0x06
  | Hello_ack _ -> 0x81
  | Designs _ -> 0x82
  | Result _ -> 0x83
  | Batch_result _ -> 0x84
  | Pong -> 0x85
  | Shutdown_ack -> 0x86
  | Error _ -> 0xFF

let msg_type_name = function
  | Hello _ -> "hello"
  | Hello_ack _ -> "hello_ack"
  | List_designs -> "list_designs"
  | Designs _ -> "designs"
  | Query _ -> "query"
  | Result _ -> "result"
  | Query_batch _ -> "query_batch"
  | Batch_result _ -> "batch_result"
  | Ping -> "ping"
  | Pong -> "pong"
  | Shutdown -> "shutdown"
  | Shutdown_ack -> "shutdown_ack"
  | Error _ -> "error"

type frame = { id : int; msg : msg }

type wire_error =
  | Truncated of { have : int; need : int }
  | Bad_magic
  | Bad_version of int
  | Unknown_msg_type of int
  | Oversized of int
  | Crc_mismatch
  | Malformed of string

let wire_error_message = function
  | Truncated { have; need } ->
    Printf.sprintf "truncated frame: have %d bytes, need %d" have need
  | Bad_magic -> "bad magic (expected \"GK\")"
  | Bad_version v ->
    Printf.sprintf "unsupported protocol version %d (speaking %d)" v
      protocol_version
  | Unknown_msg_type t -> Printf.sprintf "unknown message type 0x%02x" t
  | Oversized n ->
    Printf.sprintf "payload length %d exceeds the %d-byte cap" n max_payload
  | Crc_mismatch -> "payload CRC mismatch"
  | Malformed d -> "malformed payload: " ^ d

let error_code_of_wire_error = function
  | Truncated _ | Bad_magic | Crc_mismatch -> Bad_frame
  | Bad_version _ -> Unsupported_version
  | Unknown_msg_type _ -> Unknown_type
  | Oversized _ | Malformed _ -> Bad_payload

(* ----- encoding ----- *)

let put_u8 b v = Buffer.add_uint8 b (v land 0xff)

let put_u16 b v =
  if v < 0 || v > 0xffff then invalid_arg "Wire.encode: u16 out of range";
  Buffer.add_uint16_be b v

let put_u32 b v =
  if v < 0 || v > 0xFFFFFFFF then invalid_arg "Wire.encode: u32 out of range";
  Buffer.add_int32_be b (Int32.of_int v)

let put_str b s =
  put_u16 b (String.length s);
  Buffer.add_string b s

(* ----- the assignment-list layout (runs of packed bits, see the
   interface) -----

   A run is a maximal stretch of consecutive assignments with the same
   pin names in the same order; [same_pins] tries physical equality
   first, which is the common case for the lists an oracle returns. *)

let bits_bytes n = Stdlib.max 1 ((n + 7) lsr 3)

let rec same_pins a b =
  a == b
  ||
  match (a, b) with
  | [], [] -> true
  | (x, _) :: a, (y, _) :: b -> String.equal x y && same_pins a b
  | _ -> false

(* [(first, m, rows)] per run, in order: [first] is the run's first
   assignment (its pin names are the run's), [rows] its [m] assignments. *)
let runs_of assignments =
  let rec go acc = function
    | [] -> List.rev acc
    | a :: rest ->
      let rec take m rows = function
        | b :: rest when same_pins a b -> take (m + 1) (b :: rows) rest
        | rest -> go ((a, m, List.rev rows) :: acc) rest
      in
      take 1 [ a ] rest
  in
  go [] assignments

let run_bytes (first, m, _) =
  let names, n =
    List.fold_left
      (fun (bytes, n) (name, _) -> (bytes + 2 + String.length name, n + 1))
      (0, 0) first
  in
  2 + names + 4 + (m * bits_bytes n)

let assignments_bytes runs =
  List.fold_left (fun acc r -> acc + run_bytes r) 4 runs

let put_bits b a =
  let rec go acc k = function
    | [] -> put_u8 b acc
    | (_, v) :: rest ->
      let acc = if v then acc lor (1 lsl k) else acc in
      if k = 7 then (
        put_u8 b acc;
        if rest <> [] then go 0 0 rest)
      else go acc (k + 1) rest
  in
  go 0 0 a

let put_assignments b runs =
  put_u32 b (List.length runs);
  List.iter
    (fun (first, m, rows) ->
      put_u16 b (List.length first);
      List.iter (fun (name, _) -> put_str b name) first;
      put_u32 b m;
      List.iter (put_bits b) rows)
    runs

let encode_payload b msg =
  match msg with
  | Hello { client; proto } ->
    put_str b client;
    put_u8 b proto
  | Hello_ack { server; proto } ->
    put_str b server;
    put_u8 b proto
  | List_designs | Ping | Pong | Shutdown | Shutdown_ack -> ()
  | Designs ds ->
    put_u16 b (List.length ds);
    List.iter
      (fun d ->
        put_str b d.d_name;
        put_u32 b d.d_cells;
        put_u16 b (List.length d.d_inputs);
        List.iter (put_str b) d.d_inputs;
        put_u16 b (List.length d.d_outputs);
        List.iter (put_str b) d.d_outputs)
      ds
  | Query { design; assignment } ->
    put_str b design;
    put_assignments b (runs_of [ assignment ])
  | Result a -> put_assignments b (runs_of [ a ])
  | Query_batch { design; assignments } ->
    put_str b design;
    put_assignments b (runs_of assignments)
  | Batch_result rs -> put_assignments b (runs_of rs)
  | Error { code; detail } ->
    put_u8 b (error_code_byte code);
    put_str b detail

let str_bytes s = 2 + String.length s
let strs_bytes l = List.fold_left (fun acc s -> acc + str_bytes s) 2 l

let payload_bytes = function
  | Hello { client = s; _ } | Hello_ack { server = s; _ } -> str_bytes s + 1
  | List_designs | Ping | Pong | Shutdown | Shutdown_ack -> 0
  | Designs ds ->
    List.fold_left
      (fun acc d ->
        acc + str_bytes d.d_name + 4 + strs_bytes d.d_inputs
        + strs_bytes d.d_outputs)
      2 ds
  | Query { design; assignment } ->
    str_bytes design + assignments_bytes (runs_of [ assignment ])
  | Result a -> assignments_bytes (runs_of [ a ])
  | Query_batch { design; assignments } ->
    str_bytes design + assignments_bytes (runs_of assignments)
  | Batch_result rs -> assignments_bytes (runs_of rs)
  | Error { detail; _ } -> 1 + str_bytes detail

(* The frame is built in one buffer: the payload is appended after a
   placeholder header, which is filled in place once the payload length
   and CRC are known. *)
let encode ~id msg =
  if id < 0 || id > 0xFFFFFFFF then
    invalid_arg "Wire.encode: request id out of u32 range";
  let b = Buffer.create 256 in
  Buffer.add_string b (String.make header_bytes '\000');
  encode_payload b msg;
  let f = Buffer.to_bytes b in
  let len = Bytes.length f - header_bytes in
  if len > max_payload then
    invalid_arg
      (Printf.sprintf "Wire.encode: payload %d exceeds max_payload" len);
  Bytes.set f 0 'G';
  Bytes.set f 1 'K';
  Bytes.set f 2 (Char.chr protocol_version);
  Bytes.set f 3 (Char.chr (msg_type msg));
  Bytes.set_int32_be f 4 (Int32.of_int id);
  Bytes.set_int32_be f 8 (Int32.of_int len);
  Bytes.set_int32_be f 12 (crc32 f ~pos:header_bytes ~len);
  f

(* ----- decoding -----

   Payload parsing runs inside a cursor whose reads raise a local
   [Bad] exception on any bounds or structure violation; the single
   [catch] in [decode_payload] converts that to [Malformed] so no
   exception ever escapes to the read loop. *)

type header = {
  h_version : int;
  h_type : int;
  h_id : int;
  h_len : int;
  h_crc : int32;
}

let u32_be b pos = Int32.to_int (Bytes.get_int32_be b pos) land 0xFFFFFFFF

let decode_header b =
  let have = Bytes.length b in
  if have < header_bytes then
    Stdlib.Error (Truncated { have; need = header_bytes })
  else if not (Bytes.get b 0 = 'G' && Bytes.get b 1 = 'K') then
    Stdlib.Error Bad_magic
  else
    let v = Char.code (Bytes.get b 2) in
    if v <> protocol_version then Stdlib.Error (Bad_version v)
    else
      let len = u32_be b 8 in
      if len > max_payload then Stdlib.Error (Oversized len)
      else
        Stdlib.Ok
          {
            h_version = v;
            h_type = Char.code (Bytes.get b 3);
            h_id = u32_be b 4;
            h_len = len;
            h_crc = Bytes.get_int32_be b 12;
          }

exception Bad of string

(* [base] is where the payload starts in [buf]; offsets in messages are
   relative to it. *)
type cursor = { buf : Bytes.t; base : int; mutable pos : int; stop : int }

let need c n =
  if c.stop - c.pos < n then
    raise (Bad (Printf.sprintf "need %d bytes at offset %d" n (c.pos - c.base)))

let get_u8 c =
  need c 1;
  let v = Char.code (Bytes.get c.buf c.pos) in
  c.pos <- c.pos + 1;
  v

let get_u16 c =
  need c 2;
  let v = (Char.code (Bytes.get c.buf c.pos) lsl 8) lor Char.code (Bytes.get c.buf (c.pos + 1)) in
  c.pos <- c.pos + 2;
  v

let get_u32 c =
  need c 4;
  let v = u32_be c.buf c.pos in
  c.pos <- c.pos + 4;
  v

let get_str c =
  let n = get_u16 c in
  need c n;
  let s = Bytes.sub_string c.buf c.pos n in
  c.pos <- c.pos + n;
  s

(* [List.init]'s argument-evaluation order is unspecified; cursor reads
   must happen left-to-right, so build lists with an explicit loop. *)
let read_list n f =
  let rec go acc i = if i = 0 then List.rev acc else go (f () :: acc) (i - 1) in
  go [] n

(* Every count is checked against the bytes left before anything is
   allocated for it: a run costs at least 7 bytes (pin count,
   assignment count, one assignment byte), a pin name at least 2 and an
   assignment at least 1, even over zero pins. *)
let get_assignments c =
  let runs = get_u32 c in
  if runs > (c.stop - c.pos) / 7 then raise (Bad "run count exceeds payload");
  let acc = ref [] and prev = ref None in
  for _ = 1 to runs do
    let n = get_u16 c in
    if 2 * n > c.stop - c.pos then raise (Bad "pin count exceeds payload");
    let names = Array.make n "" in
    for i = 0 to n - 1 do
      names.(i) <- get_str c
    done;
    (match !prev with
    | Some p when Array.length p = n && Array.for_all2 String.equal p names ->
      raise (Bad "adjacent runs share a pin list")
    | _ -> ());
    prev := Some names;
    let m = get_u32 c in
    let w = bits_bytes n in
    if m = 0 then raise (Bad "empty run");
    if m > (c.stop - c.pos) / w then
      raise (Bad "assignment count exceeds payload");
    let tru = Array.map (fun s -> (s, true)) names in
    let fls = Array.map (fun s -> (s, false)) names in
    let pad = n - (8 * (w - 1)) in
    for _ = 1 to m do
      let base = c.pos in
      if Char.code (Bytes.get c.buf (base + w - 1)) lsr pad <> 0 then
        raise (Bad "non-zero padding bits");
      let row = ref [] in
      for i = n - 1 downto 0 do
        let byte = Char.code (Bytes.unsafe_get c.buf (base + (i lsr 3))) in
        row :=
          (if byte land (1 lsl (i land 7)) <> 0 then Array.unsafe_get tru i
           else Array.unsafe_get fls i)
          :: !row
      done;
      c.pos <- base + w;
      acc := !row :: !acc
    done
  done;
  List.rev !acc

let get_assignment c =
  match get_assignments c with
  | [ a ] -> a
  | l ->
    raise
      (Bad
         (Printf.sprintf "%d assignments where one is expected"
            (List.length l)))

let decode_msg mtype c =
  match mtype with
  | 0x01 ->
    let client = get_str c in
    let proto = get_u8 c in
    Hello { client; proto }
  | 0x81 ->
    let server = get_str c in
    let proto = get_u8 c in
    Hello_ack { server; proto }
  | 0x02 -> List_designs
  | 0x82 ->
    let n = get_u16 c in
    Designs
      (read_list n (fun () ->
           let d_name = get_str c in
           let d_cells = get_u32 c in
           let ni = get_u16 c in
           let d_inputs = read_list ni (fun () -> get_str c) in
           let no = get_u16 c in
           let d_outputs = read_list no (fun () -> get_str c) in
           { d_name; d_inputs; d_outputs; d_cells }))
  | 0x03 ->
    let design = get_str c in
    let assignment = get_assignment c in
    Query { design; assignment }
  | 0x83 -> Result (get_assignment c)
  | 0x04 ->
    let design = get_str c in
    Query_batch { design; assignments = get_assignments c }
  | 0x84 -> Batch_result (get_assignments c)
  | 0x05 -> Ping
  | 0x85 -> Pong
  | 0x06 -> Shutdown
  | 0x86 -> Shutdown_ack
  | 0xFF ->
    let cb = get_u8 c in
    let code =
      match error_code_of_byte cb with
      | Some code -> code
      | None -> raise (Bad (Printf.sprintf "unknown error code 0x%02x" cb))
    in
    let detail = get_str c in
    Error { code; detail }
  | t -> raise (Bad (Printf.sprintf "type 0x%02x" t))

let known_type t =
  List.mem t [ 0x01; 0x02; 0x03; 0x04; 0x05; 0x06; 0x81; 0x82; 0x83; 0x84; 0x85; 0x86; 0xFF ]

(* Parse the payload of [h] found at [buf.[off, off + h_len)]; the
   caller has checked that exactly those bytes follow the header. *)
let parse_payload h buf ~off =
  if not (known_type h.h_type) then Stdlib.Error (Unknown_msg_type h.h_type)
  else if crc32 buf ~pos:off ~len:h.h_len <> h.h_crc then
    Stdlib.Error Crc_mismatch
  else
    let c = { buf; base = off; pos = off; stop = off + h.h_len } in
    match decode_msg h.h_type c with
    | msg ->
      if c.pos <> c.stop then Stdlib.Error (Malformed "trailing bytes in payload")
      else Stdlib.Ok { id = h.h_id; msg }
    | exception Bad d -> Stdlib.Error (Malformed d)

(* [have] payload bytes are present where [h] announces [h_len]. *)
let check_length h ~have =
  if have < h.h_len then
    Stdlib.Error (Truncated { have = header_bytes + have; need = header_bytes + h.h_len })
  else if have > h.h_len then
    Stdlib.Error (Malformed "trailing bytes after payload")
  else Stdlib.Ok ()

let decode_payload h payload =
  Result.bind (check_length h ~have:(Bytes.length payload)) (fun () ->
      parse_payload h payload ~off:0)

let decode b =
  Result.bind (decode_header b) (fun h ->
      Result.bind (check_length h ~have:(Bytes.length b - header_bytes))
        (fun () -> parse_payload h b ~off:header_bytes))
