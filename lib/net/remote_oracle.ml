exception Remote_error of Wire.error_code * string

type t = {
  r_fd : Unix.file_descr;
  mutable r_design : string;
  mutable r_server : string;
  mutable r_designs : Wire.design_info list;
  mutable r_oracle : Oracle.t option;  (* Some after connect returns *)
  mutable r_next_id : int;
  mutable r_closed : bool;
}

let transport_error detail = raise (Remote_error (Wire.Server_error, detail))

let fresh_id t =
  let id = t.r_next_id in
  (* request ids are a u32 on the wire *)
  t.r_next_id <- (id + 1) land 0xFFFFFFFF;
  id

(* One request, one reply.  The stream is strictly request/reply per
   connection, so a mismatched id means the transport is out of sync —
   fail loudly rather than guess. *)
let roundtrip t msg =
  if t.r_closed then transport_error "connection already closed";
  let id = fresh_id t in
  (try Frame_io.write_frame t.r_fd ~id msg
   with Unix.Unix_error (e, _, _) ->
     transport_error ("write failed: " ^ Unix.error_message e));
  match Frame_io.read_frame t.r_fd with
  | Error e -> transport_error (Frame_io.read_error_message e)
  | Ok { Wire.id = rid; msg = reply } ->
    if rid <> id && rid <> 0 then
      transport_error
        (Printf.sprintf "reply id %d does not match request id %d" rid id);
    reply

(* Map structured error frames to the exception the attack layer
   already understands: over-quota becomes [Budget.Exhausted], so a
   remote quota trip yields the same [Out_of_budget] verdict as a local
   budget. *)
let fail_on_error = function
  | Wire.Error { code = Wire.Over_quota_queries; _ } ->
    raise (Budget.Exhausted Budget.Queries)
  | Wire.Error { code = Wire.Over_quota_deadline; _ } ->
    raise (Budget.Exhausted Budget.Deadline)
  | Wire.Error { code; detail } -> raise (Remote_error (code, detail))
  | m -> m

let query_remote t assignment =
  match fail_on_error (roundtrip t (Wire.Query { design = t.r_design; assignment })) with
  | Wire.Result r -> r
  | m ->
    transport_error ("expected a result frame, got " ^ Wire.msg_type_name m)

let query_batch_frame t assignments =
  match
    fail_on_error
      (roundtrip t (Wire.Query_batch { design = t.r_design; assignments }))
  with
  | Wire.Batch_result rs ->
    if List.length rs <> List.length assignments then
      transport_error "batch result size mismatch";
    rs
  | m ->
    transport_error ("expected a batch result frame, got " ^ Wire.msg_type_name m)

(* A [Query_batch] frame and its single reply must each fit
   [Wire.max_payload], so a query set too large for one frame is split
   in halves until every chunk and its reply fit, or a chunk holds one
   query (the server rejects an unframable single query with a clean
   error rather than the client mis-framing).  The reply's size follows
   exactly from the design listing: one assignment over the design's
   outputs per query.  The split is invisible to the attack layer:
   chunks stay in order and the results are concatenated. *)
let batch_chunks t assignments =
  let reply_row =
    match List.find_opt (fun i -> i.Wire.d_name = t.r_design) t.r_designs with
    | Some d -> List.map (fun o -> (o, false)) d.Wire.d_outputs
    | None -> []
  in
  let fits qs =
    Wire.payload_bytes
      (Wire.Query_batch { design = t.r_design; assignments = qs })
    <= Wire.max_payload
    && Wire.payload_bytes (Wire.Batch_result (List.map (fun _ -> reply_row) qs))
       <= Wire.max_payload
  in
  let rec split = function
    | ([] | [ _ ]) as qs -> [ qs ]
    | qs when fits qs -> [ qs ]
    | qs ->
      let half = List.length qs / 2 in
      split (List.filteri (fun i _ -> i < half) qs)
      @ split (List.filteri (fun i _ -> i >= half) qs)
  in
  split assignments

let query_batch_remote t assignments =
  if assignments = [] then []
  else
    List.concat_map (fun chunk -> query_batch_frame t chunk)
      (batch_chunks t assignments)

let connect ?(client = "gklock") ?design ?(memo = true) ?memo_cap addr =
  let fd = Frame_io.connect addr in
  let fail detail =
    (try Unix.close fd with Unix.Unix_error _ -> ());
    transport_error detail
  in
  let t =
    {
      r_fd = fd;
      r_design = "";
      r_server = "";
      r_designs = [];
      r_oracle = None;
      r_next_id = 1;
      r_closed = false;
    }
  in
  let server =
    match
      roundtrip t (Wire.Hello { client; proto = Wire.protocol_version })
    with
    | Wire.Hello_ack { server; proto } ->
      if proto <> Wire.protocol_version then
        fail (Printf.sprintf "server negotiated unsupported protocol %d" proto)
      else server
    | Wire.Error { code; detail } ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      raise (Remote_error (code, detail))
    | m -> fail ("expected hello_ack, got " ^ Wire.msg_type_name m)
  in
  let designs =
    match roundtrip t Wire.List_designs with
    | Wire.Designs ds -> ds
    | Wire.Error { code; detail } ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      raise (Remote_error (code, detail))
    | m -> fail ("expected designs frame, got " ^ Wire.msg_type_name m)
  in
  let design =
    match (design, designs) with
    | Some d, _ ->
      if List.exists (fun i -> i.Wire.d_name = d) designs then d
      else
        fail
          (Printf.sprintf "design %S not hosted (server has: %s)" d
             (String.concat ", "
                (List.map (fun i -> i.Wire.d_name) designs)))
    | None, [ only ] -> only.Wire.d_name
    | None, [] -> fail "server hosts no designs"
    | None, _ ->
      fail
        (Printf.sprintf "server hosts %d designs; pick one with ~design"
           (List.length designs))
  in
  t.r_design <- design;
  t.r_server <- server;
  t.r_designs <- designs;
  t.r_oracle <-
    Some
      (Oracle.of_fn ~memo ?memo_cap
         ~batch:(fun qs -> query_batch_remote t qs)
         (fun q -> query_remote t q));
  t

let oracle t =
  match t.r_oracle with Some o -> o | None -> assert false
let design t = t.r_design
let server_name t = t.r_server
let designs t = t.r_designs

let ping t =
  let t0 = Unix.gettimeofday () in
  (match fail_on_error (roundtrip t Wire.Ping) with
  | Wire.Pong -> ()
  | m -> transport_error ("expected pong, got " ^ Wire.msg_type_name m));
  Unix.gettimeofday () -. t0

let close t =
  if not t.r_closed then begin
    t.r_closed <- true;
    try Unix.close t.r_fd with Unix.Unix_error _ -> ()
  end

let shutdown_server t =
  (match fail_on_error (roundtrip t Wire.Shutdown) with
  | Wire.Shutdown_ack -> ()
  | m -> transport_error ("expected shutdown_ack, got " ^ Wire.msg_type_name m));
  close t
