(* The batched solve daemon (DESIGN.md §15).

     cc_serve                        # serve CC_SERVE_ADDR until Shutdown
     cc_serve --addr unix:/tmp/s     # override the address
     cc_serve --call '<json>'        # one-shot client: send a job, print
                                     # the reply, exit 0 iff ok

   Knobs (env, read through Runtime.Config): CC_SERVE_ADDR, CC_SERVE_JOBS,
   CC_SERVE_CACHE, CC_SERVE_POLICY (none | verify | recover); the flags
   override them. *)

let usage () =
  prerr_endline
    "usage: cc_serve [--addr ADDR] [--jobs N] [--cache N] [--policy P]\n\
    \       cc_serve --call JSON [--addr ADDR]\n\
     env: CC_SERVE_ADDR CC_SERVE_JOBS CC_SERVE_CACHE CC_SERVE_POLICY";
  exit 2

let fail msg =
  prerr_endline ("cc_serve: " ^ msg);
  exit 1

let positive flag v =
  match int_of_string_opt v with
  | Some n when n >= 1 -> n
  | _ -> fail (flag ^ " must be a positive integer, got " ^ v)

(* The configuration with the flags folded over it, and the --call body. *)
let parse_args () =
  let rec go (c : Runtime.Config.t) call = function
    | [] -> (c, call)
    | "--addr" :: v :: rest -> go { c with serve_addr = v } call rest
    | "--jobs" :: v :: rest ->
      go { c with serve_jobs = positive "--jobs" v } call rest
    | "--cache" :: v :: rest ->
      go { c with serve_cache = positive "--cache" v } call rest
    | "--policy" :: v :: rest -> go { c with serve_policy = Some v } call rest
    | "--call" :: v :: rest -> go c (Some v) rest
    | _ -> usage ()
  in
  go (Runtime.Config.get ()) None (List.tl (Array.to_list Sys.argv))

let () =
  let config, call = parse_args () in
  let policy =
    match
      Serve.Exec.policy_of_string (Option.value config.serve_policy ~default:"")
    with
    | Ok p -> p
    | Error msg ->
      let flag = List.mem "--policy" (Array.to_list Sys.argv) in
      fail ((if flag then "--policy: " else "CC_SERVE_POLICY: ") ^ msg)
  in
  let daemon =
    {
      Serve.Daemon.addr = config.serve_addr;
      jobs = config.serve_jobs;
      cache_cap = config.serve_cache;
      policy;
      max_bytes = 8 * 1024 * 1024;
    }
  in
  (* The stats reply echoes the configuration the daemon actually runs. *)
  Runtime.Config.with_ config @@ fun () ->
  match call with
  | Some body ->
    let client =
      match Serve.Client.connect daemon.addr with
      | c -> c
      | exception Unix.Unix_error (e, _, _) ->
        fail
          (Printf.sprintf "cannot reach %s: %s" daemon.addr
             (Unix.error_message e))
    in
    let reply = Serve.Client.request_string client body in
    Serve.Client.close client;
    print_endline (Serve.Client.Json.to_string reply);
    exit (if Serve.Client.ok reply then 0 else 1)
  | None ->
    let t = Serve.Daemon.start daemon in
    Printf.printf "cc_serve: listening on %s (%d workers, cache %d, policy %s)\n%!"
      (Serve.Daemon.addr t) daemon.jobs daemon.cache_cap
      (Serve.Exec.policy_name daemon.policy);
    Serve.Daemon.wait t
