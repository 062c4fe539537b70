(* The client side of the distald wire protocol: a blocking connection
   that frames Protocol messages over a Unix-domain socket and matches
   results back to submits by id. *)

module Wire = Distal_support.Wire

type t = { fd : Unix.file_descr; mutable next_id : int }

let connect ?(retries = 50) ?(retry_interval = 0.05) path =
  let rec attempt left =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX path) with
    | () -> Ok { fd; next_id = 0 }
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _)
      when left > 0 ->
        (* The server may still be binding its socket: back off briefly. *)
        (try Unix.close fd with Unix.Unix_error _ -> ());
        ignore (Unix.select [] [] [] retry_interval);
        attempt (left - 1)
    | exception Unix.Unix_error (e, _, _) ->
        (try Unix.close fd with Unix.Unix_error _ -> ());
        Error (Printf.sprintf "connect %s: %s" path (Unix.error_message e))
  in
  attempt retries

let connect_exn ?retries ?retry_interval path =
  match connect ?retries ?retry_interval path with
  | Ok t -> t
  | Error e -> failwith e

let close t = try Unix.close t.fd with Unix.Unix_error _ -> ()

let fresh_id t =
  let id = t.next_id in
  t.next_id <- id + 1;
  id

let send t msg =
  match Wire.send t.fd (Protocol.encode_client msg) with
  | () -> Ok ()
  | exception Unix.Unix_error (e, _, _) ->
      Error (Printf.sprintf "send: %s" (Unix.error_message e))

let recv t =
  match Wire.recv t.fd with
  | Error e -> Error e
  | Ok None -> Error "server closed the connection"
  | Ok (Some payload) -> Protocol.decode_server payload

(* {2 Request/reply} *)

let rpc t msg = match send t msg with Error e -> Error e | Ok () -> recv t

type response =
  | Ok_result of Protocol.reply
  | Rejected of { retry_after_s : float; reason : string }
  | Failed of string

let submit t (s : Protocol.submit) =
  match rpc t (Protocol.Submit s) with
  | Error e -> Error e
  | Ok (Protocol.Result r) when r.Protocol.rid = s.Protocol.id -> Ok (Ok_result r)
  | Ok (Protocol.Rejected { rid; retry_after_s; reason }) when rid = s.Protocol.id ->
      Ok (Rejected { retry_after_s; reason })
  | Ok (Protocol.Failed { rid; reason }) when rid = s.Protocol.id || rid = -1 ->
      Ok (Failed reason)
  | Ok _ -> Error "server reply does not match the request id"

let submit_wait t s =
  (* Retry admission-control rejections after the server's suggested
     backoff; anything else is final. *)
  let rec go left =
    match submit t s with
    | Error _ as e -> e
    | Ok (Rejected { retry_after_s; _ }) when left > 0 ->
        ignore (Unix.select [] [] [] retry_after_s);
        go (left - 1)
    | Ok r -> Ok r
  in
  go 20

let stats t =
  match rpc t Protocol.Stats with
  | Error e -> Error e
  | Ok (Protocol.StatsReply { queue_depth; served; metrics }) ->
      Ok (queue_depth, served, metrics)
  | Ok _ -> Error "unexpected reply to stats"

let shutdown t =
  match rpc t Protocol.Shutdown with
  | Error e -> Error e
  | Ok Protocol.ShutdownAck -> Ok ()
  | Ok _ -> Error "unexpected reply to shutdown"
