(** Blocking frame transport over Unix file descriptors.

    One frame at a time, length-prefixed per {!Wire}: the reader pulls
    exactly one header, then exactly the advertised payload.  Short
    reads, interrupted syscalls and mid-frame EOF are all handled here;
    a {!read_frame} result is the only thing the caller's loop has to
    match on — no exception escapes for hostile bytes (genuine
    [Unix_error]s on the descriptor surface as [`Unix]).

    Every byte read or written here is counted in the [wire.bytes_in] /
    [wire.bytes_out] {!Obs.Metrics} counters. *)

(** A server or client endpoint address. *)
type addr =
  | Unix_path of string  (** Unix domain socket path *)
  | Tcp of string * int  (** host, port *)

(** [parse_addr s] accepts ["unix:PATH"], ["tcp:HOST:PORT"], and a bare
    path (treated as a Unix socket).  Port 0 is accepted for the listen
    side: the kernel picks an ephemeral port and {!Gkd_server.address}
    reports the real one (the daemon prints it in its "listening on"
    line) — bind-then-read-back, never pick-and-hope. *)
val parse_addr : string -> (addr, string) result

val addr_to_string : addr -> string

(** [listen ?backlog addr] binds and listens.  A stale Unix socket file
    left by a dead process is unlinked first.
    @raise Unix.Unix_error on bind/listen failure. *)
val listen : ?backlog:int -> addr -> Unix.file_descr

(** [connect addr] is a connected client descriptor.
    @raise Unix.Unix_error when nothing is listening. *)
val connect : addr -> Unix.file_descr

type read_error =
  [ `Eof  (** clean EOF at a frame boundary *)
  | `Wire of Wire.wire_error  (** bad header/payload (or mid-frame EOF) *)
  | `Unix of Unix.error ]

val read_error_message : read_error -> string

(** [read_frame fd] blocks for one complete frame. *)
val read_frame : Unix.file_descr -> (Wire.frame, read_error) result

(** [read_raw fd] is {!read_frame} without the payload decode: one
    frame's checked header and its payload bytes, for a caller that
    times {!Wire.decode_payload} apart from the socket wait. *)
val read_raw : Unix.file_descr -> (Wire.header * Bytes.t, read_error) result

(** [write_bytes fd b] writes an already encoded frame, retrying short
    writes.  @raise Unix.Unix_error (e.g. [EPIPE]) on a dead peer. *)
val write_bytes : Unix.file_descr -> Bytes.t -> unit

(** [write_frame fd ~id msg] writes one complete frame, retrying short
    writes.  @raise Unix.Unix_error (e.g. [EPIPE]) on a dead peer. *)
val write_frame : Unix.file_descr -> id:int -> Wire.msg -> unit
