(* Socket-transport specifics that need real worker processes: frame
   coalescing (the shard-level Lenzen batching, asserted through the
   wire.frames metric), worker-death surfacing as [Shard_down], the TCP
   leg, and fault-injection composing unchanged over the sharded
   transport. Runs standalone: creating a session re-execs this binary
   into workers, and the equivalence sweep (test_kernel_equiv.ml) already
   owns the bit-identity legs. *)

module Sock = Clique.Socket
module Shard = Runtime.Shard
module M = Runtime.Mailbox
module S = Fault.Schedule
module FSock = Fault.Inject.Make (Clique.Socket)
module RSock = Runtime.Make (Clique.Socket)
module Rec = Fault.Recover.Make (RSock)

(* The in-process reference every socket round is held to: one delivery
   on a fresh arena (the kernel [Sim] runs without shards). *)
let local_deliver ~n ~width out =
  Runtime.Arena.deliver (Runtime.Arena.create ~n ()) ~width out

(* Watchdog: every supervised wait in the transport is deadline-bounded,
   so the whole suite finishing is itself part of the contract. A stuck
   test is a bug; SIGALRM turns it into a loud failure instead of a CI
   timeout with no backtrace. *)
let () =
  Sys.set_signal Sys.sigalrm
    (Sys.Signal_handle
       (fun _ ->
         prerr_endline "test_socket: watchdog expired — a wait is unbounded";
         exit 2));
  ignore (Unix.alarm 240)

(* Diversion: spawned as a mute client, this process connects to the
   given rendezvous and never sends a byte — the bootstrap-hang
   regression (a pre-supervision coordinator blocked forever on it). *)
let () =
  match Sys.getenv_opt "TEST_MUTE_CLIENT" with
  | None -> ()
  | Some addr ->
    let host, port = Wire.Link.parse_addr addr in
    let rec connect () =
      (* A mute client must bypass Wire.Link on purpose. *)
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 (* cc_lint: allow L9 *) in
      match
        Unix.connect fd (* cc_lint: allow L9 *)
          (Unix.ADDR_INET (Unix.inet_addr_of_string host, port))
      with
      | () -> fd
      | exception Unix.Unix_error _ ->
        (try Unix.close fd with Unix.Unix_error _ -> ());
        Unix.sleepf 0.02;
        connect ()
    in
    let _fd = connect () in
    Unix.sleep 600;
    exit 0

(* An ephemeral TCP port for tests that must know the address before the
   coordinator binds it (bind-then-close; the reuse race is benign at
   test scale). *)
let ephemeral_port () =
  (* Probing the OS for a free port: no bytes move over these calls. *)
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 (* cc_lint: allow L9 *) in
  Unix.setsockopt fd Unix.SO_REUSEADDR true;
  Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, 0)) (* cc_lint: allow L9 *);
  let port =
    match Unix.getsockname fd with
    | Unix.ADDR_INET (_, p) -> p
    | Unix.ADDR_UNIX _ -> assert false
  in
  Unix.close fd;
  port

let spawn_with_env extra =
  let env =
    Array.append (Unix.environment ()) (Array.of_list extra)
  in
  Unix.create_process_env Sys.executable_name [| Sys.executable_name |] env
    Unix.stdin Unix.stdout Unix.stderr

let reap pid =
  (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
  try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ()

let inboxes_t = Alcotest.(array (list (pair int (array int))))

let stat name t =
  match List.assoc_opt name (Sock.stats t) with
  | Some v -> v
  | None -> Alcotest.fail (Printf.sprintf "missing stat %s" name)

(* Every ordered pair carries one 1-word message: maximal cross-shard
   traffic, still within the default width. *)
let all_to_all n =
  Array.init n (fun v ->
      List.filter_map
        (fun d -> if d = v then None else Some (d, [| (v * 100) + d |]))
        (List.init n (fun d -> d)))

(* ---------------------------------------------------------- coalescing *)

(* One round = one request + one reply per worker on the coordinator
   links, plus at most one mesh frame per ordered (shard, shard) pair
   with cross traffic — here both pairs, despite 32 crossing messages. *)
let test_coalescing_all_to_all () =
  let n = 8 in
  let t = Sock.create ~shards:2 n in
  let before = stat "wire.frames" t in
  let out = all_to_all n in
  let expected, words = local_deliver ~n ~width:2 out in
  Alcotest.check inboxes_t "inboxes parity" expected (Sock.exchange t out);
  Alcotest.(check int) "frames: 2 requests + 2 replies + 2 mesh" 6
    (stat "wire.frames" t - before);
  Alcotest.(check int) "crossings counted" 32 (stat "shard.crossings" t);
  Alcotest.(check int) "words" words (Sock.words_sent t);
  Alcotest.(check int) "one round" 1 (Sock.rounds t);
  Sock.close t

let test_coalescing_no_cross_traffic () =
  let n = 8 in
  let t = Sock.create ~shards:2 n in
  (* every node talks only within its own shard: no mesh frames at all *)
  let local =
    Array.init n (fun v ->
        let lo = if v < 4 then 0 else 4 in
        [ (lo + ((v - lo + 1) mod 4), [| v |]) ])
  in
  let before = stat "wire.frames" t in
  let expected, _ = local_deliver ~n ~width:2 local in
  Alcotest.check inboxes_t "local inboxes parity" expected
    (Sock.exchange t local);
  Alcotest.(check int) "frames: requests + replies only" 4
    (stat "wire.frames" t - before);
  Alcotest.(check int) "no crossings" 0 (stat "shard.crossings" t);
  Sock.close t

(* -------------------------------------------------------- error parity *)

let capture f = match f () with _ -> "no exception" | exception e -> Printexc.to_string e

let test_width_error_across_processes () =
  let n = 6 in
  let t = Sock.create ~shards:3 n in
  let bad = Array.make n [] in
  (* 1 -> 5 accumulates 1+2 words at width 2 (gidx 1); 4 -> 2 carries 3
     words outright (gidx 2): the minimal-gidx violation must win, with
     the exact in-process exception. *)
  bad.(1) <- [ (5, [| 7 |]); (5, [| 8; 9 |]) ];
  bad.(4) <- [ (2, [| 1; 2; 3 |]) ];
  Alcotest.(check string) "same first width error"
    (capture (fun () -> local_deliver ~n ~width:2 bad))
    (capture (fun () -> Sock.exchange t bad));
  let oob = Array.make n [] in
  oob.(3) <- [ (n + 1, [| 1 |]) ];
  Alcotest.(check string) "same range error"
    (capture (fun () -> local_deliver ~n ~width:2 oob))
    (capture (fun () -> Sock.exchange t oob));
  (* an application error leaves the session usable *)
  let out = all_to_all n in
  let expected, _ = local_deliver ~n ~width:2 out in
  Alcotest.check inboxes_t "session survives the error round" expected
    (Sock.exchange t out);
  let values = Array.init n (fun v -> [| v; v * v; v + 7 |]) in
  Alcotest.(check string) "same broadcast width error"
    (capture (fun () -> M.broadcast ~n ~width:2 values))
    (capture (fun () -> Sock.broadcast t values));
  Sock.close t

(* -------------------------------------------------------- worker death *)

let stall_schedule =
  S.create ~seed:7 [ S.rule S.Stall 0.3; S.rule S.Drop 0.1 ]

(* Kill a worker mid-session under an active fault schedule: the next
   round must surface a structured [Shard_down] naming the shard and the
   round — never hang — and the session must stay down. *)
let test_worker_death_surfaces () =
  let n = 8 in
  let t = Sock.create ~shards:2 n in
  let tr = FSock.inject ~schedule:stall_schedule t in
  for _ = 1 to 3 do
    ignore (FSock.exchange tr (all_to_all n))
  done;
  Alcotest.(check bool) "schedule actually injects" true
    (FSock.injected_total tr > 0);
  let round_before = Sock.rounds t in
  (match Sock.pids t with
  | [ _; pid1 ] ->
    Unix.kill pid1 Sys.sigkill;
    ignore (Unix.waitpid [] pid1)
  | pids ->
    Alcotest.fail (Printf.sprintf "expected 2 workers, got %d" (List.length pids)));
  (match FSock.exchange tr (all_to_all n) with
  | _ -> Alcotest.fail "exchange through a dead worker must raise"
  | exception Shard.Shard_down { shard; round; during } ->
    Alcotest.(check int) "names the dead shard" 1 shard;
    Alcotest.(check int) "names the round it died in" round_before round;
    Alcotest.(check string) "during the exchange" "exchange" during);
  (match Sock.exchange t (all_to_all n) with
  | _ -> Alcotest.fail "a down session must stay down"
  | exception Shard.Shard_down { shard; _ } ->
    Alcotest.(check int) "still names the shard" 1 shard);
  Sock.close t

(* ---------------------------------------------------------- kill matrix *)

(* Kill shard [victim] of session [t] with SIGKILL, mid-session. *)
let kill_shard t victim =
  match List.nth (Sock.pids t) victim with
  | pid when pid > 0 ->
    Unix.kill pid Sys.sigkill;
    ignore (Unix.waitpid [] pid)
  | _ -> Alcotest.fail "victim shard has no local pid"

(* Respawn: a SIGKILLed worker is replaced and the aborted round replayed
   — the output is bit-identical to an undisturbed run, the replay is
   charged to the "recovery" ledger phase, and the whole thing composes
   with the certified verify-and-retry driver unchanged. *)
let test_respawn_bit_identical () =
  let n = 8 in
  let t =
    Sock.create ~shards:2 ~policy:Shard.Respawn ~timeout:10.0 ~backoff:0.05 n
  in
  let rt = RSock.create t in
  let out = all_to_all n in
  let reference, _ = local_deliver ~n ~width:2 out in
  Alcotest.check inboxes_t "clean round parity" reference
    (RSock.exchange rt out);
  let epoch_before = Sock.epoch t in
  kill_shard t 1;
  (* drive the post-kill round through the certified retry driver: the
     checker certifies the recovered output against the fault-free
     reference, so a wrong replay cannot pass silently *)
  let outcome =
    Rec.run ~name:"kill-respawn" rt
      ~check:(fun got ->
        if got = reference then Fault.Check.Pass
        else
          Fault.Check.Fail
            { invariant = "bit-identity"; counterexample = "inboxes differ" })
      (fun () -> RSock.exchange rt out)
  in
  Alcotest.check inboxes_t "recovered round bit-identical" reference
    outcome.Fault.Recover.value;
  Alcotest.(check bool) "checker certified on the first attempt" false
    outcome.Fault.Recover.recovered;
  Alcotest.(check bool) "replay charged to the recovery phase" true
    (RSock.phase_rounds rt "recovery" > 0);
  Alcotest.(check bool) "respawn counted" true (stat "shard.respawn" t >= 1);
  Alcotest.(check bool) "epoch bumped" true (Sock.epoch t > epoch_before);
  Alcotest.(check int) "still two live workers" 2 (Sock.live_workers t);
  Alcotest.(check int) "transport recovery counter matches the ledger"
    (RSock.phase_rounds rt "recovery")
    (Sock.recovery_rounds t);
  (* the session keeps working at full strength afterwards *)
  Alcotest.check inboxes_t "next round parity" reference
    (RSock.exchange rt out);
  let values = Array.init n (fun v -> [| v; v * v |]) in
  Alcotest.(check (array (array int))) "broadcast parity after recovery"
    (fst (M.broadcast ~n ~width:2 values))
    (RSock.broadcast rt values);
  Sock.close t

(* Drain: the dead shard's range is reassigned to a survivor and the
   session continues degraded — same outputs, fewer workers. *)
let test_drain_continues_degraded () =
  let n = 9 in
  let t = Sock.create ~shards:3 ~policy:Shard.Drain ~timeout:10.0 n in
  let out = all_to_all n in
  let reference, _ = local_deliver ~n ~width:2 out in
  Alcotest.check inboxes_t "clean round parity" reference (Sock.exchange t out);
  let epoch_before = Sock.epoch t in
  kill_shard t 1;
  Alcotest.check inboxes_t "drained round bit-identical" reference
    (Sock.exchange t out);
  Alcotest.(check int) "one shard drained" 1 (stat "shard.drain" t);
  Alcotest.(check int) "two survivors" 2 (Sock.live_workers t);
  Alcotest.(check bool) "epoch bumped" true (Sock.epoch t > epoch_before);
  Alcotest.(check bool) "replay counted as recovery" true
    (Sock.recovery_rounds t >= 1);
  (* degraded but fully functional: exchange, broadcast, width errors *)
  Alcotest.check inboxes_t "next degraded round parity" reference
    (Sock.exchange t out);
  let values = Array.init n (fun v -> [| v; v + 1 |]) in
  Alcotest.(check (array (array int))) "degraded broadcast parity"
    (fst (M.broadcast ~n ~width:2 values))
    (Sock.broadcast t values);
  let bad = Array.make n [] in
  bad.(1) <- [ (5, [| 1; 2; 3 |]) ];
  Alcotest.(check string) "degraded width error identical"
    (capture (fun () -> local_deliver ~n ~width:2 bad))
    (capture (fun () -> Sock.exchange t bad));
  Sock.close t

(* Draining down to a single survivor still works; killing the last one
   has nowhere left to go and fails structurally. *)
let test_drain_exhaustion_fails () =
  let n = 6 in
  let t = Sock.create ~shards:2 ~policy:Shard.Drain ~timeout:10.0 n in
  let out = all_to_all n in
  let reference, _ = local_deliver ~n ~width:2 out in
  kill_shard t 0;
  Alcotest.check inboxes_t "single survivor delivers" reference
    (Sock.exchange t out);
  Alcotest.(check int) "one live worker" 1 (Sock.live_workers t);
  kill_shard t 1;
  (match Sock.exchange t out with
  | _ -> Alcotest.fail "no survivor left: must raise"
  | exception Shard.Shard_down { during; _ } ->
    Alcotest.(check string) "down during the exchange" "exchange" during);
  Sock.close t

(* ------------------------------------------------------------ heartbeat *)

let test_heartbeat_probes_and_recovers () =
  let n = 6 in
  let t =
    Sock.create ~shards:2 ~policy:Shard.Respawn ~timeout:10.0 ~backoff:0.05 n
  in
  Sock.heartbeat t;
  Alcotest.(check int) "both workers probed" 2 (stat "shard.heartbeat.sent" t);
  Alcotest.(check int) "both acked" 2 (stat "shard.heartbeat.acked" t);
  Alcotest.(check int) "none missed" 0 (stat "shard.heartbeat.missed" t);
  let rounds_before = Sock.rounds t in
  kill_shard t 0;
  Sock.heartbeat t;
  Alcotest.(check bool) "missed heartbeat detected" true
    (stat "shard.heartbeat.missed" t >= 1);
  Alcotest.(check bool) "dead worker respawned" true
    (stat "shard.respawn" t >= 1);
  Alcotest.(check int) "idle recovery charges no round" rounds_before
    (Sock.rounds t);
  Alcotest.(check int) "and no recovery round" 0 (Sock.recovery_rounds t);
  let out = all_to_all n in
  let reference, _ = local_deliver ~n ~width:2 out in
  Alcotest.check inboxes_t "session intact after heartbeat recovery"
    reference (Sock.exchange t out);
  Sock.close t

(* ---------------------------------------------------- bootstrap bounds *)

(* The bootstrap-hang regression: a client that connects to the
   rendezvous but never sends its hello. The coordinator must give up at
   the timeout with a structured round-0 Shard_down — before supervision
   it blocked forever in the hello read. *)
let test_mute_client_bootstrap_timeout () =
  let port = ephemeral_port () in
  let addr = Printf.sprintf "127.0.0.1:%d" port in
  let mute = spawn_with_env [ "TEST_MUTE_CLIENT=" ^ addr ] in
  Fun.protect
    ~finally:(fun () -> reap mute)
    (fun () ->
      (* one reserved remote slot that never joins: the mute connection is
         the only rendezvous traffic, so the hello wait must expire *)
      let t0 = Unix.gettimeofday () in
      match Sock.create ~shards:2 ~remote:1 ~addr ~timeout:2.0 6 with
      | t ->
        Sock.close t;
        Alcotest.fail "bootstrap must not succeed without the remote worker"
      | exception Shard.Shard_down { round; during; _ } ->
        Alcotest.(check string) "failed in the hello rendezvous" "hello"
          during;
        Alcotest.(check int) "at round zero" 0 round;
        Alcotest.(check bool) "after the timeout, not immediately" true
          (Unix.gettimeofday () -. t0 >= 1.5);
        Alcotest.(check bool) "bounded well under the watchdog" true
          (Unix.gettimeofday () -. t0 < 30.0))

(* ------------------------------------------------------- remote workers *)

(* A remote worker is any process dialing the TCP rendezvous: here the
   bin/cc_worker launcher users run (a link dependency of this test, so it
   is built next to it). One of the two shards runs in that process; the
   session must behave identically to an all-local one. *)
let cc_worker =
  Filename.concat
    (Filename.dirname Sys.executable_name)
    (Filename.concat Filename.parent_dir_name "bin/cc_worker.exe")

let test_remote_worker_joins () =
  let port = ephemeral_port () in
  let addr = Printf.sprintf "127.0.0.1:%d" port in
  let remote =
    Unix.create_process cc_worker [| cc_worker; "tcp:" ^ addr |] Unix.stdin
      Unix.stdout Unix.stderr
  in
  Fun.protect
    ~finally:(fun () -> reap remote)
    (fun () ->
      let n = 8 in
      let t = Sock.create ~shards:2 ~remote:1 ~addr ~timeout:10.0 n in
      Alcotest.(check (list int)) "remote slot has no local pid"
        [ -1 ]
        (List.filteri (fun i _ -> i = 1) (Sock.pids t));
      let out = all_to_all n in
      let expected, _ = local_deliver ~n ~width:2 out in
      Alcotest.check inboxes_t "mixed local/remote parity" expected
        (Sock.exchange t out);
      let values = Array.init n (fun v -> [| v; v * 3 |]) in
      Alcotest.(check (array (array int))) "mixed broadcast parity"
        (fst (M.broadcast ~n ~width:2 values))
        (Sock.broadcast t values);
      Sock.close t)

(* ------------------------------------------------------------- tcp leg *)

let test_tcp_leg () =
  let n = 6 in
  let t = Sock.create ~shards:2 ~addr:"127.0.0.1:0" n in
  let out = all_to_all n in
  let expected, _ = local_deliver ~n ~width:2 out in
  Alcotest.check inboxes_t "tcp inboxes parity" expected (Sock.exchange t out);
  let values = Array.init n (fun v -> [| v; v * v |]) in
  Alcotest.(check (array (array int))) "tcp broadcast parity"
    (fst (M.broadcast ~n ~width:2 values))
    (Sock.broadcast t values);
  let msgs = [ (0, 5, [| 3 |]); (4, 1, [| 9; 9 |]) ] in
  let expected, _, batches = M.route ~n ~width:2 msgs in
  Alcotest.check inboxes_t "tcp route parity" expected (Sock.route t msgs);
  Alcotest.(check int) "route rounds charged identically"
    (1 + Runtime.Cost.broadcast_rounds
    + (batches * Runtime.Cost.lenzen_routing_rounds))
    (Sock.rounds t);
  Sock.close t

(* ------------------------------------------------- fault composition *)

let chaos_schedule =
  S.create ~seed:23
    [ S.rule S.Drop 0.15; S.rule S.Corrupt 0.15; S.rule S.Stall 0.05 ]

(* Fault.Inject.Make over the sharded transport must inject exactly what
   it injects over the in-process kernel: same counts, same event log. *)
let test_fault_injection_composes () =
  let n = 10 in
  let module FSim = Fault.Inject.Make (Clique.Sim) in
  let drive exchange injected events rounds =
    for r = 1 to 5 do
      ignore (exchange (Array.init n (fun v -> [ ((v + r) mod n, [| v; r |]) ])))
    done;
    (injected (), events (), rounds ())
  in
  let sim = Clique.Sim.create ~kernel:Clique.Sim.Arena n in
  let ftr = FSim.inject ~schedule:chaos_schedule sim in
  let ref_run =
    drive (FSim.exchange ftr)
      (fun () -> FSim.injected ftr)
      (fun () ->
        List.map (Format.asprintf "%a" Fault.Inject.pp_event) (FSim.events ftr))
      (fun () -> FSim.rounds ftr)
  in
  let sock = Sock.create ~shards:2 n in
  let str = FSock.inject ~schedule:chaos_schedule sock in
  let got =
    drive (FSock.exchange str)
      (fun () -> FSock.injected str)
      (fun () ->
        List.map (Format.asprintf "%a" Fault.Inject.pp_event) (FSock.events str))
      (fun () -> FSock.rounds str)
  in
  Sock.close sock;
  let counts (c, _, _) = c and events (_, e, _) = e and rounds (_, _, r) = r in
  Alcotest.(check (list (pair string int)))
    "same injected counts" (counts ref_run) (counts got);
  Alcotest.(check (list string)) "same event log" (events ref_run) (events got);
  Alcotest.(check int) "same rounds" (rounds ref_run) (rounds got)

(* ----------------------------------------------------------- lifecycle *)

let test_shutdown_all () =
  let a = Sock.create ~shards:2 6 in
  let b = Sock.create ~shards:3 6 in
  ignore (Sock.exchange a (all_to_all 6));
  Sock.shutdown_all ();
  List.iter
    (fun t ->
      match Sock.exchange t (all_to_all 6) with
      | _ -> Alcotest.fail "closed session must refuse work"
      | exception Shard.Shard_down _ -> ())
    [ a; b ]

let test_shards_clamped () =
  let t = Sock.create ~shards:7 3 in
  Alcotest.(check int) "shards clamped to n" 3 (Sock.shards t);
  Alcotest.(check int) "one pid per shard" 3 (List.length (Sock.pids t));
  let out = all_to_all 3 in
  let expected, _ = local_deliver ~n:3 ~width:2 out in
  Alcotest.check inboxes_t "clamped session delivers" expected
    (Sock.exchange t out);
  Sock.close t

let open_fds () = Array.length (Sys.readdir "/proc/self/fd")

let with_two_shards f =
  Sock.shutdown_all ();
  Runtime.Config.with_
    { (Runtime.Config.get ()) with Runtime.Config.shards = 2 }
    f

(* The session a clique builds at its first exchange carries the rounds
   and words counted before it, so [Shard_down.round] and the supervisor
   log number rounds as if the session had existed from [create]. *)
let test_session_built_at_first_exchange () =
  with_two_shards (fun () ->
      let n = 6 in
      let sim = Clique.Sim.create n in
      Clique.Sim.charge sim 5;
      ignore (Clique.Sim.route sim [ (0, 1, [| 7 |]) ]);
      Alcotest.(check int) "charge and route build nothing" 0
        (Sock.live_sessions ());
      let out = all_to_all n in
      let expected, words = local_deliver ~n ~width:2 out in
      Alcotest.check inboxes_t "first exchange delivers" expected
        (Clique.Sim.exchange sim out);
      Alcotest.(check int) "one session" 1 (Sock.live_sessions ());
      Alcotest.(check int) "rounds carried into the session"
        (5 + Runtime.Cost.lenzen_routing_rounds + 1)
        (Clique.Sim.rounds sim);
      Alcotest.(check int) "words carried" (1 + words)
        (Clique.Sim.words_sent sim);
      Clique.Sim.close sim;
      Alcotest.(check int) "closed" 0 (Sock.live_sessions ()))

(* Sessions live only where messages move. Ledger-only pipelines (the
   Theorem 1.1 solver) never start a worker; the exchanging programs
   (Borůvka, the Cole–Vishkin contraction) close theirs when their scope
   ends, so a long sequential run holds neither processes nor
   descriptors. *)
let test_sessions_close_in_scope () =
  with_two_shards (fun () ->
      let fds = open_fds () in
      let g = Gen.connected_gnp ~seed:5L 24 0.3 in
      let b = Array.init (Graph.n g) (fun i -> if i = 0 then 1. else 0.) in
      for _ = 1 to 50 do
        ignore (Laplacian.Solver.solve ~eps:1e-4 g b);
        Alcotest.(check int) "a solve spawns no session" 0
          (Sock.live_sessions ())
      done;
      let even = Gen.even_gnp ~seed:9L 20 0.4 in
      let mst = Clique.Boruvka.minimum_spanning_tree g in
      for _ = 1 to 50 do
        let r = Clique.Boruvka.minimum_spanning_tree g in
        Alcotest.(check (list int)) "same tree" mst.Clique.Boruvka.edges
          r.Clique.Boruvka.edges
      done;
      for _ = 1 to 20 do
        let r = Euler.Orientation.orient even in
        Alcotest.(check bool) "balanced" true
          (Euler.Orientation.check even r.Euler.Orientation.orientation)
      done;
      Alcotest.(check int) "every session closed" 0 (Sock.live_sessions ());
      Alcotest.(check int) "descriptors back to their count" fds (open_fds ()))

let () =
  Alcotest.run "socket"
    [
      ( "coalescing",
        [
          Alcotest.test_case "all-to-all: one mesh frame per pair" `Quick
            test_coalescing_all_to_all;
          Alcotest.test_case "no cross traffic: no mesh frames" `Quick
            test_coalescing_no_cross_traffic;
        ] );
      ( "errors",
        [
          Alcotest.test_case "width/range errors identical across processes"
            `Quick test_width_error_across_processes;
          Alcotest.test_case "worker death surfaces as Shard_down" `Quick
            test_worker_death_surfaces;
        ] );
      ( "supervision",
        [
          Alcotest.test_case "respawn: certified bit-identical recovery"
            `Quick test_respawn_bit_identical;
          Alcotest.test_case "drain: degraded continuation" `Quick
            test_drain_continues_degraded;
          Alcotest.test_case "drain: last survivor fails structurally" `Quick
            test_drain_exhaustion_fails;
          Alcotest.test_case "heartbeat probes and recovers" `Quick
            test_heartbeat_probes_and_recovers;
          Alcotest.test_case "mute client cannot hang bootstrap" `Quick
            test_mute_client_bootstrap_timeout;
          Alcotest.test_case "remote worker joins the rendezvous" `Quick
            test_remote_worker_joins;
        ] );
      ( "transports",
        [
          Alcotest.test_case "tcp leg parity" `Quick test_tcp_leg;
          Alcotest.test_case "fault injection composes bit-identically" `Quick
            test_fault_injection_composes;
        ] );
      ( "lifecycle",
        [
          Alcotest.test_case "shutdown_all closes every session" `Quick
            test_shutdown_all;
          Alcotest.test_case "shards clamp to n" `Quick test_shards_clamped;
          Alcotest.test_case "session built at first exchange" `Quick
            test_session_built_at_first_exchange;
          Alcotest.test_case "sessions close in scope" `Quick
            test_sessions_close_in_scope;
        ] );
    ]
