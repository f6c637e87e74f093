type addr = Unix_path of string | Tcp of string * int

let m_bytes_in = Obs.Metrics.counter "wire.bytes_in"
let m_bytes_out = Obs.Metrics.counter "wire.bytes_out"

let parse_addr s =
  let prefix p = String.length s > String.length p && String.sub s 0 (String.length p) = p in
  let after p = String.sub s (String.length p) (String.length s - String.length p) in
  if prefix "unix:" then Ok (Unix_path (after "unix:"))
  else if prefix "tcp:" then
    match String.rindex_opt (after "tcp:") ':' with
    | None -> Error (Printf.sprintf "%S: expected tcp:HOST:PORT" s)
    | Some i ->
      let hp = after "tcp:" in
      let host = String.sub hp 0 i in
      let port = String.sub hp (i + 1) (String.length hp - i - 1) in
      (* port 0 is legal on the listen side: the kernel assigns an
         ephemeral port, which Gkd_server.address reads back — the only
         race-free way for tests and scripts to share a TCP daemon *)
      (match int_of_string_opt port with
      | Some p when p >= 0 && p < 65536 -> Ok (Tcp (host, p))
      | _ -> Error (Printf.sprintf "%S: bad port %S" s port))
  else if String.length s > 0 then Ok (Unix_path s)
  else Error "empty oracle address"

let addr_to_string = function
  | Unix_path p -> "unix:" ^ p
  | Tcp (h, p) -> Printf.sprintf "tcp:%s:%d" h p

(* Writing to a peer that closed first must surface as EPIPE, not kill
   the process: both the daemon (answering a client that gave up) and
   the fuzz tests depend on it. *)
let ignore_sigpipe =
  lazy
    (if Sys.os_type = "Unix" then
       try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with _ -> ())

let sockaddr_of = function
  | Unix_path p -> Unix.ADDR_UNIX p
  | Tcp (host, port) ->
    let ip =
      try Unix.inet_addr_of_string host
      with _ -> (
        match Unix.getaddrinfo host "" [ Unix.AI_FAMILY Unix.PF_INET ] with
        | { Unix.ai_addr = Unix.ADDR_INET (ip, _); _ } :: _ -> ip
        | _ -> raise (Unix.Unix_error (Unix.EHOSTUNREACH, "getaddrinfo", host)))
    in
    Unix.ADDR_INET (ip, port)

let listen ?(backlog = 64) addr =
  Lazy.force ignore_sigpipe;
  let domain = match addr with Unix_path _ -> Unix.PF_UNIX | Tcp _ -> Unix.PF_INET in
  let fd = Unix.socket domain Unix.SOCK_STREAM 0 in
  (try
     (match addr with
     | Unix_path p when Sys.file_exists p -> Unix.unlink p
     | _ -> ());
     (match addr with Tcp _ -> Unix.setsockopt fd Unix.SO_REUSEADDR true | _ -> ());
     Unix.bind fd (sockaddr_of addr);
     Unix.listen fd backlog
   with e ->
     (try Unix.close fd with _ -> ());
     raise e);
  fd

let connect addr =
  Lazy.force ignore_sigpipe;
  let domain = match addr with Unix_path _ -> Unix.PF_UNIX | Tcp _ -> Unix.PF_INET in
  let fd = Unix.socket domain Unix.SOCK_STREAM 0 in
  (try Unix.connect fd (sockaddr_of addr)
   with e ->
     (try Unix.close fd with _ -> ());
     raise e);
  fd

type read_error = [ `Eof | `Wire of Wire.wire_error | `Unix of Unix.error ]

let read_error_message = function
  | `Eof -> "connection closed"
  | `Wire w -> Wire.wire_error_message w
  | `Unix e -> Unix.error_message e

(* [really_read fd buf len] fills [buf.[0,len)]; [`Short n] reports how
   many bytes arrived before EOF. *)
let really_read fd buf len =
  let rec go pos =
    if pos >= len then `Ok
    else
      match Unix.read fd buf pos (len - pos) with
      | 0 -> `Short pos
      | n ->
        Obs.Metrics.add m_bytes_in n;
        go (pos + n)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go pos
      | exception Unix.Unix_error (e, _, _) -> `Unix e
  in
  go 0

let read_raw fd =
  let hdr = Bytes.create Wire.header_bytes in
  match really_read fd hdr Wire.header_bytes with
  | `Short 0 -> Error `Eof
  | `Short have -> Error (`Wire (Wire.Truncated { have; need = Wire.header_bytes }))
  | `Unix e -> Error (`Unix e)
  | `Ok -> (
    match Wire.decode_header hdr with
    | Error w -> Error (`Wire w)
    | Ok h -> (
      let payload = Bytes.create h.Wire.h_len in
      match really_read fd payload h.Wire.h_len with
      | `Short have ->
        Error
          (`Wire
            (Wire.Truncated
               {
                 have = Wire.header_bytes + have;
                 need = Wire.header_bytes + h.Wire.h_len;
               }))
      | `Unix e -> Error (`Unix e)
      | `Ok -> Ok (h, payload)))

let read_frame fd =
  Result.bind (read_raw fd) (fun (h, payload) ->
      Result.map_error (fun w -> `Wire w) (Wire.decode_payload h payload))

let write_bytes fd b =
  let len = Bytes.length b in
  let rec go pos =
    if pos < len then
      match Unix.write fd b pos (len - pos) with
      | n ->
        Obs.Metrics.add m_bytes_out n;
        go (pos + n)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go pos
  in
  go 0

let write_frame fd ~id msg = write_bytes fd (Wire.encode ~id msg)
