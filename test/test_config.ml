(* Runtime.Config.parse on explicit environments: the closed name set,
   rejection of malformed values (each one was silently defaulted before
   the typed config existed), and the to_env round trip that shard
   workers rely on to inherit the resolved configuration. *)

module C = Runtime.Config

let error_names var env =
  match C.parse env with
  | Ok _ -> Alcotest.failf "%s must be rejected" (String.concat " " (List.map fst env))
  | Error msg ->
    Alcotest.(check bool)
      (Printf.sprintf "error %S starts with %s" msg var)
      true
      (String.starts_with ~prefix:var msg)

let test_unknown_names () =
  List.iter
    (fun var -> error_names var [ (var, "2") ])
    [
      "CC_SHARD";
      "CC_SHARD_HEARTBEAT";
      "CC_SHARD_RESPAWNS";
      "CC_SHARD_BACKOFF";
      "CC_SHARD_REMOTE_WORKER";
      "CC_KERNEL";
    ];
  (* An unknown name is an error even when empty, and whatever else is
     set around it. *)
  error_names "CC_SHARD" [ ("CC_SHARDS", "2"); ("CC_SHARD", "") ];
  match C.parse [ ("PATH", "/bin"); ("TEST_MUTE_CLIENT", "x"); ("CC_DOMAINS", "") ] with
  | Ok c -> Alcotest.(check int) "other names ignored, empty = unset" 1 c.C.domains
  | Error msg -> Alcotest.fail msg

let test_malformed_values () =
  List.iter
    (fun (var, value) -> error_names var [ (var, value) ])
    [
      ("CC_SHARDS", "two");
      ("CC_SHARDS", "0");
      ("CC_DOMAINS", "-1");
      ("CC_MODEL", "broadcst");
      ("CC_SHARD_POLICY", "respwan");
      ("CC_SANITIZE", "2");
      ("CC_SHARD_TIMEOUT", "-1");
      ("CC_SHARD_TIMEOUT", "soon");
      ("CC_SHARD_REMOTE", "-1");
      ("CC_SERVE_JOBS", "0");
      ("CC_SERVE_CACHE", "many");
      ("CC_BENCH_MODE", "reduce");
    ]

let test_round_trip () =
  let c =
    {
      C.domains = 4;
      sanitize = true;
      model = Runtime.Model.Broadcast;
      shards = 3;
      shard_policy = Runtime.Shard.Drain;
      shard_timeout = 2.5;
      shard_addr = Some "127.0.0.1:7000";
      shard_remote = 1;
      shard_log = Some "sup.log";
      shard_worker = Some "0/3/12/1/unix:/tmp/x";
      faults = Some "seed=9;drop:0.25";
      serve_addr = "127.0.0.1:0";
      serve_jobs = 5;
      serve_cache = 7;
      serve_policy = Some "verify";
      bench_mode = C.Reduced;
      bench_out = "_bench_out";
      force_socket = false;
    }
  in
  Alcotest.(check bool) "parse (to_env c) = Ok c" true (C.parse (C.to_env c) = Ok c);
  Alcotest.(check int) "every environment name is rendered" 17
    (List.length (C.to_env c));
  match C.to_json c with
  | Metrics.Json.Assoc kv ->
    Alcotest.(check (option string)) "json echoes the model" (Some "broadcast")
      (Option.bind (List.assoc_opt "CC_MODEL" kv) Metrics.Json.to_string_opt)
  | _ -> Alcotest.fail "to_json must be an object"

let suite =
  [
    Alcotest.test_case "unknown CC_* names rejected" `Quick test_unknown_names;
    Alcotest.test_case "malformed values rejected" `Quick test_malformed_values;
    Alcotest.test_case "to_env round-trips" `Quick test_round_trip;
  ]
