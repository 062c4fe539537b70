(* distald — the compile-and-serve daemon.

   Listens on a Unix-domain socket for length-prefixed frames, each a
   single-line JSON request (see lib/serve/protocol.mli); a reply that
   carries an output follows its JSON head with the output's raw
   little-endian float64 bytes. It shares one plan cache, result cache
   and replay domain pool across all clients. Requests are served as
   soon as they are read; same-shape requests read together share one
   compile, and submits beyond the admission bound are rejected with a
   retry-after.

   Example:

     distald --socket /tmp/distald.sock --queue 64 &
     distalc --connect /tmp/distald.sock \
       --machine 2x2 --tensor 'A:8x8:[x,y] -> [x,y]' ... \
       --stmt 'A(i,j) = B(i,k) * C(k,j)' --schedule '...'
     distalc --connect /tmp/distald.sock --serve-stats
     distalc --connect /tmp/distald.sock --serve-shutdown *)

module Server = Distal_serve.Server

open Cmdliner

let socket_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "socket" ] ~docv:"PATH"
        ~doc:"Unix-domain socket path to listen on (an existing socket file is replaced).")

let queue_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "queue" ] ~docv:"N"
        ~doc:
          "Admission bound: submits beyond $(docv) queued requests are rejected \
           with a retry-after. Defaults to 64.")

let cache_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "cache" ] ~docv:"N"
        ~doc:
          "Plan-cache capacity (distinct request shapes); 0 disables caching. \
           Defaults to 128.")

let results_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "results" ] ~docv:"N"
        ~doc:
          "Result-cache capacity (finished runs replayed for byte-identical \
           requests). Defaults to 1024, or 0 when the plan cache is disabled.")

let domains_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "domains" ] ~docv:"N"
        ~doc:
          "Domain-pool size that replays Full requests and fills their seeded \
           inputs, shared by all requests. Simulation runs on the serving domain. \
           Defaults to \\$DISTAL_NUM_DOMAINS, else the available cores.")

let stall_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "stall-timeout" ] ~docv:"SECONDS"
        ~doc:
          "Drop a client whose socket takes none of its pending replies for this \
           long. Defaults to 30.")

let quiet_arg = Arg.(value & flag & info [ "quiet"; "q" ] ~doc:"No startup/shutdown chatter.")

let cmd =
  let doc = "serve DISTAL compile-and-run requests over a Unix-domain socket" in
  let run socket_path queue_limit plan_cache result_cache domains stall_timeout quiet =
    match
      Server.config ?queue_limit ?plan_cache ?result_cache ?domains
        ?stall_timeout ~quiet ~socket_path ()
    with
    | cfg -> (
        match Server.serve cfg with
        | () -> `Ok ()
        | exception Unix.Unix_error (e, fn, arg) ->
            `Error (false, Printf.sprintf "%s %s: %s" fn arg (Unix.error_message e)))
    | exception Invalid_argument e -> `Error (false, e)
  in
  Cmd.v
    (Cmd.info "distald" ~doc)
    Term.(
      ret
        (const run $ socket_arg $ queue_arg $ cache_arg $ results_arg
       $ domains_arg $ stall_arg $ quiet_arg))

let () = exit (Cmd.eval cmd)
