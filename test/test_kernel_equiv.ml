(* The kernel differential suite. The arena message kernel is held to a
   naive reference delivery written in this file, on fixed workloads and
   on randomized rounds; then the domain-parallel round execution and the
   multi-process socket transport must be bit-identical to the sequential
   arena — same rounds, same words, same inbox lists, same sanitizer
   transcript hashes (shape and content), same errors — across real
   workloads, every domain count, and every shard count. Runs standalone
   so CI can sweep the environment:

     CC_DOMAINS=4 dune exec test/test_kernel_equiv.exe
     CC_SHARDS=2 dune exec test/test_kernel_equiv.exe
     CC_MODEL=broadcast dune exec test/test_kernel_equiv.exe *)

module San = Runtime.Sanitize
module A = Runtime.Arena
module M = Runtime.Mailbox
module K = Clique.Kernel
module S = Fault.Schedule
module FSim = Fault.Inject.Make (Clique.Sim)
module FRt = Runtime.Make (FSim)
module FP = Clique.Programs.Make (FRt)
module B = Clique.Broadcast
module FBc = Fault.Inject.Make (Clique.Broadcast)
module FBRt = Runtime.Make (FBc)
module FBP = Clique.Programs.Make (FBRt)

(* ------------------------------------------------------ shared fixtures *)

let n = 24

let g = Gen.connected_gnp ~seed:5L n 0.3

let gw = Gen.weighted_gnp ~seed:9L n 0.4 16

let ring k =
  let succ = Array.init k (fun i -> (i + 1) mod k) in
  let pred = Array.init k (fun i -> (i + k - 1) mod k) in
  let ids = Array.init k (fun i -> (i * 53) + 2) in
  (ids, succ, pred)

(* Every configuration the suite must prove equivalent: the in-process
   arena crossed with 1, 2 and 4 domains, plus the loopback
   socket transport crossed over CC_SHARDS in {1,2,4} x CC_DOMAINS in
   {1,2} (the domain pool applies per shard there). Creating a socket
   session joins all live domain pools before forking; later in-process
   configs re-spawn them lazily, so mixing the legs is safe in any
   order. *)
let configs =
  [
    (Clique.Sim.Arena, 1, 1);
    (Clique.Sim.Arena, 2, 1);
    (Clique.Sim.Arena, 4, 1);
    (Clique.Sim.Shard, 1, 1);
    (Clique.Sim.Shard, 2, 1);
    (Clique.Sim.Shard, 1, 2);
    (Clique.Sim.Shard, 2, 2);
    (Clique.Sim.Shard, 1, 4);
    (Clique.Sim.Shard, 2, 4);
  ]

let config_name (k, d, s) =
  match k with
  | Clique.Sim.Arena -> Printf.sprintf "arena/domains=%d" d
  | Clique.Sim.Shard -> Printf.sprintf "shard/shards=%d/domains=%d" s d

(* The ambient configuration (CC_MODEL, CC_SANITIZE, CC_SHARD_POLICY,
   ... as CI sets them) with the leg's kernel, domains and shards forced;
   [force_socket] keeps the single-worker shard legs on the socket
   transport. *)
let with_config (kernel, domains, shards) f =
  Runtime.Config.with_
    {
      (Runtime.Config.get ()) with
      domains;
      shards;
      force_socket = kernel = Clique.Sim.Shard;
    }
    (fun () -> Fun.protect ~finally:Clique.Socket.shutdown_all f)

(* A run's identity: ledger totals plus the sanitizer's two FNV-1a
   transcript digests. Content-hash equality pins endpoints and payload
   words of every message of every round. *)
let signature_t = Alcotest.(pair (triple int int int) (pair int64 int64))

let signature rounds words sanitizer =
  match sanitizer with
  | Some s ->
    let tr = San.transcript s in
    ((rounds, words, tr.San.events), (tr.San.shape_hash, tr.San.content_hash))
  | None -> Alcotest.fail "differential runs must be sanitized"

let check_all_equal what = function
  | [] | [ _ ] -> ()
  | (ref_cfg, ref_sig) :: rest ->
    List.iter
      (fun (cfg, s) ->
        Alcotest.check signature_t
          (Printf.sprintf "%s: %s == %s" what cfg ref_cfg)
          ref_sig s)
      rest

(* -------------------------------------------- program-level equivalence *)

(* BFS + Bellman-Ford + Cole-Vishkin + Boruvka in one sanitized runtime:
   every exchange_map fan-out, every broadcast, every charged round of all
   four programs folds into one transcript. *)
let drive_programs () =
  let rt = K.On_sim.create ~sanitize:true (Clique.Sim.create n) in
  ignore (K.Sim_programs.bfs rt g 0);
  ignore (K.Sim_programs.bellman_ford rt gw 0);
  let ids, succ, pred = ring n in
  ignore (K.Sim_programs.three_color rt ~ids ~succ ~pred);
  ignore (K.Sim_programs.boruvka rt g);
  signature (K.On_sim.rounds rt) (K.On_sim.words rt) (K.On_sim.sanitizer rt)

let test_programs_equivalent () =
  check_all_equal "programs"
    (List.map
       (fun c -> (config_name c, with_config c drive_programs))
       configs)

(* The E1 workload: the full charged sparsifier pipeline builds its own
   runtime internally, so this exercises kernel selection through
   [Sim.create]'s configured default exactly as the bench harness does. *)
let test_sparsifier_equivalent () =
  let runs =
    List.map
      (fun c ->
        ( config_name c,
          with_config c (fun () ->
              let r = Sparsify.Spectral.sparsify gw in
              ( r.Sparsify.Spectral.rounds,
                r.Sparsify.Spectral.phase_rounds,
                Graph.m r.Sparsify.Spectral.sparsifier )) ))
      configs
  in
  match runs with
  | [] -> ()
  | (ref_cfg, ref_run) :: rest ->
    List.iter
      (fun (cfg, run) ->
        Alcotest.(check (triple int (list (pair string int)) int))
          (Printf.sprintf "sparsifier: %s == %s" cfg ref_cfg)
          ref_run run)
      rest

(* ----------------------------------------------- chaos-path equivalence *)

(* A nonempty fault schedule must inject bit-identically on the arena
   path: the injector draws on (round, coordinates), all of which the
   arena reproduces exactly. Events are compared verbatim. No Truncate
   here: these raw programs are driven without checker/recovery armor, and
   a zero-word payload would crash them on every kernel alike. *)
let chaos_schedule =
  S.create ~seed:23
    [ S.rule S.Drop 0.15; S.rule S.Corrupt 0.15; S.rule S.Stall 0.05 ]

let drive_chaos () =
  let tr = FSim.inject ~schedule:chaos_schedule (Clique.Sim.create n) in
  let rt = FRt.create ~sanitize:true tr in
  ignore (FP.bfs rt g 0);
  ignore (FP.bellman_ford rt gw 0);
  ( signature (FRt.rounds rt) (FRt.words rt) (FRt.sanitizer rt),
    FSim.injected_total tr,
    FSim.injected tr,
    List.map (Format.asprintf "%a" Fault.Inject.pp_event) (FSim.events tr) )

let test_chaos_equivalent () =
  let runs =
    List.map (fun c -> (config_name c, with_config c drive_chaos)) configs
  in
  let _, (_, ref_total, _, _) = List.hd runs in
  Alcotest.(check bool)
    "schedule is actually injecting (nonempty cross-check)" true
    (ref_total > 0);
  match runs with
  | [] -> ()
  | (ref_cfg, (ref_sig, ref_total, ref_counts, ref_events)) :: rest ->
    List.iter
      (fun (cfg, (s, total, counts, events)) ->
        Alcotest.check signature_t
          (Printf.sprintf "chaos transcript: %s == %s" cfg ref_cfg)
          ref_sig s;
        Alcotest.(check int)
          (Printf.sprintf "chaos injected total: %s == %s" cfg ref_cfg)
          ref_total total;
        Alcotest.(check (list (pair string int)))
          (Printf.sprintf "chaos injected counts: %s == %s" cfg ref_cfg)
          ref_counts counts;
        Alcotest.(check (list string))
          (Printf.sprintf "chaos event log: %s == %s" cfg ref_cfg)
          ref_events events)
      rest

(* ------------------------------------------------ reference delivery *)

(* The oracle for the arena: a naive list-and-Hashtbl walk of one round.
   Messages are visited in arrival order (source ascending, then outbox
   order); each is range-checked, then its words are added to its ordered
   pair's running total, which may not exceed [width]; an accepted message
   is consed onto its destination's inbox. Errors carry the kernel's exact
   strings and fields. *)
let reference_deliver ~n ~width outboxes =
  if Array.length outboxes <> n then
    invalid_arg "Mailbox.deliver: outbox array length mismatch";
  let phase = M.current_context () in
  let inboxes = Array.make n [] in
  let pair_words = Hashtbl.create 64 in
  let words = ref 0 in
  Array.iteri
    (fun src msgs ->
      List.iter
        (fun (dst, payload) ->
          if dst < 0 || dst >= n then
            invalid_arg
              (Printf.sprintf
                 "Mailbox.deliver: destination %d out of range (src=%d, \
                  phase=%S, width=%d)"
                 dst src phase width);
          let w = Array.length payload in
          let total =
            w + Option.value ~default:0 (Hashtbl.find_opt pair_words (src, dst))
          in
          if total > width then
            raise (M.Bandwidth_exceeded { src; dst; words = total; width; phase });
          Hashtbl.replace pair_words (src, dst) total;
          words := !words + w;
          inboxes.(dst) <- (src, payload) :: inboxes.(dst))
        msgs)
    outboxes;
  (inboxes, !words)

(* ------------------------------------------------- direct arena parity *)

let inboxes_t = Alcotest.(array (list (pair int (array int))))

(* A deterministic mixed workload: fan-outs, repeated pairs (within
   width), empty outboxes, self-messages. *)
let workload k =
  Array.init k (fun v ->
      if v mod 3 = 2 then []
      else
        [
          ((v + 1) mod k, [| v; v * 2 |]);
          ((v + 1) mod k, [||]);
          ((v * 5 + 2) mod k, [| v |]);
          (v, [| 42 |]);
        ])

let test_arena_matches_reference () =
  List.iter
    (fun k ->
      let outboxes = workload k in
      let ai, aw = A.deliver (A.create ~n:k ()) ~width:4 outboxes in
      let ri, rw = reference_deliver ~n:k ~width:4 outboxes in
      Alcotest.check inboxes_t
        (Printf.sprintf "inbox lists identical in order (n=%d)" k)
        ri ai;
      Alcotest.(check int) "words identical" rw aw)
    [ 3; 8; 24 ]

let test_arena_sparse_fallback () =
  let k = 16 in
  let outboxes = workload k in
  let dense = A.create ~n:k () in
  let sparse = A.create ~dense_threshold:0 ~n:k () in
  Alcotest.(check bool) "default is dense at small n" true
    (A.uses_dense_table dense);
  Alcotest.(check bool) "threshold 0 forces the Hashtbl fallback" false
    (A.uses_dense_table sparse);
  let d = A.deliver dense ~width:4 outboxes in
  let s = A.deliver sparse ~width:4 outboxes in
  let r = reference_deliver ~n:k ~width:4 outboxes in
  Alcotest.check inboxes_t "dense == reference" (fst r) (fst d);
  Alcotest.check inboxes_t "sparse == reference" (fst r) (fst s);
  Alcotest.(check int) "words agree" (snd r) (snd d);
  Alcotest.(check int) "words agree (sparse)" (snd r) (snd s)

(* Reuse across rounds is the arena's point: same instance, many rounds,
   including a width bump mid-stream; every round must match the
   reference. *)
let test_arena_reuse_across_rounds () =
  let k = 10 in
  let arena = A.create ~n:k () in
  for r = 1 to 6 do
    let width = if r = 4 then 7 else 4 in
    let outboxes =
      Array.init k (fun v ->
          List.init (r mod 3) (fun i -> ((v + i + 1) mod k, [| r; v; i |])))
    in
    let a = A.deliver arena ~width outboxes in
    let l = reference_deliver ~n:k ~width outboxes in
    Alcotest.check inboxes_t
      (Printf.sprintf "round %d identical" r)
      (fst l) (fst a);
    Alcotest.(check int) "words" (snd l) (snd a)
  done;
  let resets = List.assoc "kernel.arena.resets" (A.stats arena) in
  Alcotest.(check int) "one reset per deliver" 6 resets

let capture f = match f () with v -> Ok v | exception e -> Error e

let exn_to_string = function
  | Ok _ -> "no exception"
  | Error e -> Printexc.to_string e

(* Errors must fire at the identical message with identical fields on
   every accounting backend. *)
let test_arena_error_parity () =
  let k = 8 in
  let over =
    (* 1->3 accumulates 1+2 words at width 2: the second message trips. *)
    [| []; [ (3, [| 7 |]); (3, [| 8; 9 |]) ]; []; [ (0, [| 1 |]) ]; [];
       []; []; [] |]
  in
  let out_of_range = [| [ (k, [| 1 |]) ]; []; []; []; []; []; []; [] |] in
  List.iter
    (fun (what, outboxes, width) ->
      let expected =
        capture (fun () -> reference_deliver ~n:k ~width outboxes)
      in
      List.iter
        (fun (backend, dense_threshold) ->
          let arena = A.create ~dense_threshold ~n:k () in
          let got = capture (fun () -> A.deliver arena ~width outboxes) in
          Alcotest.(check string)
            (Printf.sprintf "%s on %s == reference" what backend)
            (exn_to_string expected) (exn_to_string got))
        [ ("dense", 1024); ("sparse", 0) ])
    [
      ("pair over budget", over, 2);
      ("dst out of range", out_of_range, 2);
    ]

(* Randomized rounds: n in [1, 40], width in [1, 4], up to four messages
   per node of 0..width words each. A tenth of the destinations are the
   sender itself and a tenth its successor, so self-messages and repeated
   pairs are common and pairs go over width by accumulation; one case in
   ten may also aim a message one past the last node. *)
let gen_round =
  let open QCheck2.Gen in
  let* n = int_range 1 40 in
  let* width = int_range 1 4 in
  let* stray = frequency [ (9, pure false); (1, pure true) ] in
  let dst src =
    frequency
      ([ (8, int_bound (n - 1)); (1, pure src); (1, pure ((src + 1) mod n)) ]
      @ if stray then [ (1, pure n) ] else [])
  in
  let outbox src =
    list_size (int_bound 4)
      (pair (dst src) (array_size (int_bound width) (int_bound 999)))
  in
  let+ outboxes = flatten_a (Array.init n outbox) in
  (n, width, outboxes)

let print_round =
  QCheck2.Print.(triple int int (array (list (pair int (array int)))))

(* The arena on both width tables against the reference: same inbox
   lists (order included) and words, or the same exception string. The
   dense arena delivers each round twice, so a reset after a round that
   raised part-way is covered too. The outcome tally proves the generator
   reaches all three outcomes. *)
let test_arena_random_rounds () =
  let seen = Hashtbl.create 3 in
  let show = Result.map_error Printexc.to_string in
  let agrees (n, width, outboxes) =
    let expected = capture (fun () -> reference_deliver ~n ~width outboxes) in
    Hashtbl.replace seen
      (match expected with
      | Ok _ -> "delivered"
      | Error (M.Bandwidth_exceeded _) -> "over width"
      | Error _ -> "out of range")
      ();
    let expected = show expected in
    let on arena = show (capture (fun () -> A.deliver arena ~width outboxes)) in
    let dense = A.create ~n () in
    let sparse = A.create ~dense_threshold:0 ~n () in
    on dense = expected && on dense = expected && on sparse = expected
  in
  QCheck2.Test.check_exn
    ~rand:(Random.State.make [| 13 |])
    (QCheck2.Test.make ~count:250 ~name:"arena == reference"
       ~print:print_round gen_round agrees);
  List.iter
    (fun what ->
      Alcotest.(check bool) (what ^ " is exercised") true (Hashtbl.mem seen what))
    [ "delivered"; "over width"; "out of range" ]

(* The CONGEST edge check runs through the arena's ?check hook, and
   CONGEST always delivers in-process: a non-edge must raise identically
   whichever clique kernel is the default. *)
let test_congest_check_parity () =
  let path = Gen.path 4 in
  List.iter
    (fun kernel ->
      let c = Runtime.Config.get () in
      let raised =
        Runtime.Config.with_
          (match kernel with
          | Clique.Sim.Arena -> { c with shards = 1; force_socket = false }
          | Clique.Sim.Shard -> { c with force_socket = true })
          (fun () ->
            let c = Clique.Congest.create path in
            try
              ignore
                (Clique.Congest.exchange c [| [ (2, [| 1 |]) ]; []; []; [] |]);
              false
            with Clique.Congest.Not_an_edge { src = 0; dst = 2 } -> true)
      in
      Alcotest.(check bool)
        (Printf.sprintf "non-edge raises under default %s"
           (config_name (kernel, 1, 1)))
        true raised)
    [ Clique.Sim.Arena; Clique.Sim.Shard ]

(* ------------------------------------------ broadcast-model equivalence *)

(* All four node programs on the broadcast kernel vs a unicast reference:
   same answers, same rounds. Every exchange and broadcast costs one round
   in either model and the receivers' adjacency/identity filters make the
   wider broadcast inboxes semantically transparent, so the round totals
   coincide exactly; only words differ. *)
let test_broadcast_programs_match_unicast () =
  let ids, succ, pred = ring n in
  let urt = K.On_sim.create ~sanitize:true (Clique.Sim.create n) in
  let u_bfs = K.Sim_programs.bfs urt g 0 in
  let u_bf = K.Sim_programs.bellman_ford urt gw 0 in
  let u_col, u_col_rounds = K.Sim_programs.three_color urt ~ids ~succ ~pred in
  let u_mst, u_w, u_phases = K.Sim_programs.boruvka urt g in
  let brt = K.On_bcast.create ~sanitize:true (B.create n) in
  let b_bfs = K.Bcast_programs.bfs brt g 0 in
  let b_bf = K.Bcast_programs.bellman_ford brt gw 0 in
  let b_col, b_col_rounds = K.Bcast_programs.three_color brt ~ids ~succ ~pred in
  let b_mst, b_w, b_phases = K.Bcast_programs.boruvka brt g in
  Alcotest.(check (array int)) "bfs distances" u_bfs b_bfs;
  Alcotest.(check (array (float 1e-9))) "bellman-ford distances" u_bf b_bf;
  Alcotest.(check (array int)) "cycle colors" u_col b_col;
  Alcotest.(check int) "coloring rounds" u_col_rounds b_col_rounds;
  Alcotest.(check (list int)) "mst edges" u_mst b_mst;
  Alcotest.(check (float 1e-9)) "mst weight" u_w b_w;
  Alcotest.(check int) "boruvka phases" u_phases b_phases;
  Alcotest.(check int)
    "round totals coincide across models"
    (K.On_sim.rounds urt) (K.On_bcast.rounds brt)

(* The charged pipelines under explicit ~model: the computed sparsifier
   and solver output are bit-identical; only the accounting moves, and
   each total stays under its own model's reference bound. *)
let test_broadcast_sparsify_solver_same_outputs () =
  let u = Sparsify.Spectral.sparsify ~model:Runtime.Model.Unicast gw in
  let b = Sparsify.Spectral.sparsify ~model:Runtime.Model.Broadcast gw in
  Alcotest.(check bool) "same sparsifier edges" true
    (Graph.edges u.Sparsify.Spectral.sparsifier
    = Graph.edges b.Sparsify.Spectral.sparsifier);
  Alcotest.(check int) "same levels" u.Sparsify.Spectral.levels
    b.Sparsify.Spectral.levels;
  Alcotest.(check int) "same classes" u.Sparsify.Spectral.classes
    b.Sparsify.Spectral.classes;
  let uw = Float.max 1. (Graph.max_weight gw) in
  Alcotest.(check bool) "unicast rounds under unicast bound" true
    (u.Sparsify.Spectral.rounds
    <= Sparsify.Spectral.rounds_bound ~n ~u:uw ~gamma:0.25);
  Alcotest.(check bool) "broadcast rounds under broadcast bound" true
    (b.Sparsify.Spectral.rounds
    <= Sparsify.Spectral.bcast_rounds_bound ~n ~u:uw);
  Alcotest.(check bool) "accounting actually differs" true
    (u.Sparsify.Spectral.rounds <> b.Sparsify.Spectral.rounds);
  let rhs = Linalg.Vec.init n (fun i -> float_of_int (i mod 5) -. 2.) in
  let su = Laplacian.Solver.solve ~model:Runtime.Model.Unicast gw rhs in
  let sb = Laplacian.Solver.solve ~model:Runtime.Model.Broadcast gw rhs in
  Alcotest.(check (array (float 1e-12))) "same solution"
    su.Laplacian.Solver.x sb.Laplacian.Solver.x;
  Alcotest.(check int) "same chebyshev iterations"
    su.Laplacian.Solver.iterations sb.Laplacian.Solver.iterations;
  List.iter
    (fun phase ->
      Alcotest.(check int)
        (phase ^ " phase is model-independent")
        (List.assoc phase su.Laplacian.Solver.phase_rounds)
        (List.assoc phase sb.Laplacian.Solver.phase_rounds))
    [ "chebyshev"; "kappa-estimate" ];
  Alcotest.(check bool) "sparsify phase is recharged" true
    (List.assoc "sparsify" su.Laplacian.Solver.phase_rounds
    <> List.assoc "sparsify" sb.Laplacian.Solver.phase_rounds)

(* Chaos on the broadcast transport: the injector draws once per source
   per exchange there, and the whole run must be deterministic — two
   identically-seeded runs give the same transcripts and event logs. *)
let drive_bcast_chaos () =
  let tr = FBc.inject ~schedule:chaos_schedule (B.create n) in
  let rt = FBRt.create ~sanitize:true tr in
  ignore (FBP.bfs rt g 0);
  ignore (FBP.bellman_ford rt gw 0);
  ( signature (FBRt.rounds rt) (FBRt.words rt) (FBRt.sanitizer rt),
    FBc.injected_total tr,
    FBc.injected tr,
    List.map (Format.asprintf "%a" Fault.Inject.pp_event) (FBc.events tr) )

let test_broadcast_chaos_deterministic () =
  let s1, t1, c1, e1 = drive_bcast_chaos () in
  let s2, t2, c2, e2 = drive_bcast_chaos () in
  Alcotest.(check bool) "schedule is actually injecting" true (t1 > 0);
  Alcotest.check signature_t "broadcast chaos transcript repeats" s1 s2;
  Alcotest.(check int) "injected totals repeat" t1 t2;
  Alcotest.(check (list (pair string int))) "injected counts repeat" c1 c2;
  Alcotest.(check (list string)) "event logs repeat" e1 e2

(* Direct transport semantics: collapse of redundant per-destination
   entries, deliver-to-everyone inboxes, the Multi_payload error, and the
   sequential-broadcast cost of route. *)
let test_broadcast_transport_semantics () =
  let t = B.create 4 in
  let inboxes =
    B.exchange t [| [ (1, [| 7; 8 |]); (2, [| 7; 8 |]) ]; []; [ (0, [| 5 |]) ]; [] |]
  in
  let expected = [ (0, [| 7; 8 |]); (2, [| 5 |]) ] in
  Array.iteri
    (fun v inbox ->
      Alcotest.check
        Alcotest.(list (pair int (array int)))
        (Printf.sprintf "node %d hears the whole air, src-ascending" v)
        expected inbox)
    inboxes;
  Alcotest.(check int) "one round" 1 (B.rounds t);
  Alcotest.(check int) "words are (n-1) per on-air payload word"
    ((3 * 2) + (3 * 1))
    (B.words_sent t);
  Alcotest.(check (list (pair string int)))
    "collapse counted"
    [ ("kernel.bcast.exchanges", 1); ("kernel.bcast.collapsed", 1) ]
    (B.stats t);
  (* Distinct payloads from one source are a model violation... *)
  Alcotest.(check bool) "multi-payload raises" true
    (try
       ignore (B.exchange t [| [ (1, [| 1 |]); (2, [| 2 |]) ]; []; []; [] |]);
       false
     with B.Multi_payload { src = 0; distinct = 2; _ } -> true);
  (* ...and an oversized payload is a width error with dst = -1. *)
  Alcotest.(check bool) "oversized payload raises" true
    (try
       ignore (B.exchange t [| [ (1, [| 1; 2; 3 |]) ]; []; []; [] |]);
       false
     with B.Bandwidth_exceeded { src = 0; dst = -1; words = 3; width = 2; _ }
     -> true);
  (* route airs each source's messages one per round: 2 rounds here. *)
  let t = B.create 4 in
  let inboxes =
    B.route t [ (0, 1, [| 1 |]); (0, 2, [| 2 |]); (3, 1, [| 9 |]) ]
  in
  Alcotest.(check int) "route rounds = max per-src count" 2 (B.rounds t);
  Alcotest.check
    Alcotest.(list (pair int (array int)))
    "route keeps addressed delivery"
    [ (0, [| 1 |]); (3, [| 9 |]) ]
    inboxes.(1)

(* ------------------------------------------------------------ the suite *)

let () =
  Alcotest.run "kernel-equiv"
    [
      ( "differential",
        [
          Alcotest.test_case "programs: arena x domains bit-identical" `Quick
            test_programs_equivalent;
          Alcotest.test_case "sparsifier (E1): kernel-independent" `Quick
            test_sparsifier_equivalent;
          Alcotest.test_case "chaos: faults inject bit-identically" `Quick
            test_chaos_equivalent;
        ] );
      ( "broadcast",
        [
          Alcotest.test_case "programs: same answers and rounds as unicast"
            `Quick test_broadcast_programs_match_unicast;
          Alcotest.test_case "sparsify/solve: outputs model-independent"
            `Quick test_broadcast_sparsify_solver_same_outputs;
          Alcotest.test_case "chaos: deterministic on the broadcast kernel"
            `Quick test_broadcast_chaos_deterministic;
          Alcotest.test_case "transport: collapse, air, errors, route cost"
            `Quick test_broadcast_transport_semantics;
        ] );
      ( "arena",
        [
          Alcotest.test_case "deliver matches reference" `Quick
            test_arena_matches_reference;
          Alcotest.test_case "random rounds match reference" `Quick
            test_arena_random_rounds;
          Alcotest.test_case "dense/sparse width accounting" `Quick
            test_arena_sparse_fallback;
          Alcotest.test_case "reuse across rounds" `Quick
            test_arena_reuse_across_rounds;
          Alcotest.test_case "error parity (budget, range)" `Quick
            test_arena_error_parity;
          Alcotest.test_case "congest edge-check parity" `Quick
            test_congest_check_parity;
        ] );
    ]
