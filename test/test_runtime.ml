(* Tests for the functorized runtime layer: bandwidth enforcement on both
   transports, route batching arithmetic at the capacity boundary, the
   ledger/trace/observer plumbing, and cross-kernel parity of the generic
   node programs. *)

module K = Clique.Kernel

let raises_bandwidth f =
  try
    ignore (f ());
    false
  with Runtime.Mailbox.Bandwidth_exceeded _ -> true

(* ----------------------------------------- bandwidth on both transports *)

let test_sim_exchange_bandwidth () =
  let sim = Clique.Sim.create 3 in
  Alcotest.(check bool) "payload of 3 words raises" true
    (raises_bandwidth (fun () ->
         Clique.Sim.exchange sim [| [ (1, [| 1; 2; 3 |]) ]; []; [] |]));
  Alcotest.(check bool) "wider width accepts it" true
    (Array.length
       (Clique.Sim.exchange ~width:3 sim [| [ (1, [| 1; 2; 3 |]) ]; []; [] |])
    = 3)

let test_sim_broadcast_bandwidth () =
  let sim = Clique.Sim.create 3 in
  (* Satellite fix: broadcast enforces the width like exchange does. *)
  Alcotest.(check bool) "3-word broadcast payload raises" true
    (raises_bandwidth (fun () ->
         Clique.Sim.broadcast sim [| [| 1; 2; 3 |]; [| 0 |]; [| 0 |] |]));
  let view =
    Clique.Sim.broadcast ~width:3 sim [| [| 1; 2; 3 |]; [| 0 |]; [| 0 |] |]
  in
  Alcotest.(check int) "explicit width accepts" 3 (Array.length view.(0));
  Alcotest.(check int) "words counted" (2 * (3 + 1 + 1))
    (Clique.Sim.words_sent sim)

let test_sim_route_bandwidth () =
  let sim = Clique.Sim.create 3 in
  (* A single message wider than [width] fits no round of any batch. *)
  Alcotest.(check bool) "3-word routed payload raises" true
    (raises_bandwidth (fun () ->
         Clique.Sim.route sim [ (0, 1, [| 1; 2; 3 |]) ]));
  ignore (Clique.Sim.route ~width:3 sim [ (0, 1, [| 1; 2; 3 |]) ])

let congest_pair () =
  (* Path 0-1-2: pair (0,1) is an edge, (0,2) is not. *)
  Clique.Congest.create (Gen.path 3)

let test_congest_exchange_bandwidth_and_edges () =
  let c = congest_pair () in
  Alcotest.(check bool) "3 words over an edge raises" true
    (raises_bandwidth (fun () ->
         Clique.Congest.exchange c [| [ (1, [| 1; 2; 3 |]) ]; []; [] |]));
  Alcotest.(check bool) "non-edge raises Not_an_edge" true
    (try
       ignore (Clique.Congest.exchange c [| [ (2, [| 1 |]) ]; []; [] |]);
       false
     with Clique.Congest.Not_an_edge { src = 0; dst = 2 } -> true)

let test_congest_route_and_broadcast () =
  let c = congest_pair () in
  Alcotest.(check bool) "route along a non-edge raises" true
    (try
       ignore (Clique.Congest.route c [ (0, 2, [| 1 |]) ]);
       false
     with Clique.Congest.Not_an_edge _ -> true);
  Alcotest.(check bool) "route payload too wide raises" true
    (raises_bandwidth (fun () ->
         Clique.Congest.route c [ (0, 1, [| 1; 2; 3 |]) ]));
  Alcotest.(check bool) "broadcast needs a complete graph" true
    (try
       ignore (Clique.Congest.broadcast c [| [| 1 |]; [| 2 |]; [| 3 |] |]);
       false
     with Clique.Congest.Not_an_edge _ -> true);
  let k = Clique.Congest.create (Gen.complete 3) in
  let view = Clique.Congest.broadcast k [| [| 1 |]; [| 2 |]; [| 3 |] |] in
  Alcotest.(check int) "complete graph broadcasts" 2 view.(1).(0);
  Alcotest.(check int) "one round" 1 (Clique.Congest.rounds k)

(* ----------------------------------------- satellite: error diagnostics *)

let contains hay needle =
  let hl = String.length hay and nl = String.length needle in
  let rec loop i =
    i + nl <= hl && (String.sub hay i nl = needle || loop (i + 1))
  in
  loop 0

let test_bandwidth_error_names_context () =
  (* The exception carries (src, dst, phase, width), and its registered
     printer surfaces all of them. Sanitizing is off so the kernel's own
     check (not the sanitizer pre-check) is what fires. *)
  let rt = K.On_sim.create ~sanitize:false (Clique.Sim.create 3) in
  let fields =
    try
      K.with_phase rt "gather" (fun () ->
          ignore (K.On_sim.exchange rt [| [ (2, [| 1; 2; 3 |]) ]; []; [] |]));
      None
    with Runtime.Mailbox.Bandwidth_exceeded { src; dst; words; width; phase }
      ->
      Some (src, dst, words, width, phase)
  in
  Alcotest.(check (option (pair (triple int int int) (pair int string))))
    "src, dst, words, width, phase all reported"
    (Some ((0, 2, 3), (2, "gather")))
    (Option.map (fun (s, d, w, wd, p) -> ((s, d, w), (wd, p))) fields);
  let printed =
    try
      ignore (Clique.Sim.exchange (Clique.Sim.create 2) [| [ (1, [| 1; 2; 3 |]) ]; [] |]);
      ""
    with e -> Printexc.to_string e
  in
  List.iter
    (fun needle ->
      Alcotest.(check bool)
        (Printf.sprintf "printer mentions %S" needle)
        true (contains printed needle))
    [ "src=0"; "dst=1"; "3 words"; "width 2" ]

(* Regression for the per-link accounting key (boxed (src,dst) tuple ->
   src*n+dst int): the budget must accumulate across separate messages on
   the same ordered pair, and the error must name that pair — on both
   kernels that deliver through the arena: the clique, and CONGEST on the
   complete graph (where the edge check passes every pair). *)
let test_bandwidth_accumulates_per_pair () =
  List.iter
    (fun exchange ->
      (* Two messages 1->3 of 1+2 words: each fits width 2, the pair does
         not. The second message is where the budget trips. *)
      let outboxes = [| []; [ (3, [| 7 |]); (3, [| 8; 9 |]) ]; []; [] |] in
      let fields =
        try
          ignore (exchange () outboxes);
          None
        with Runtime.Mailbox.Bandwidth_exceeded
            { src; dst; words; width; phase } ->
          Some ((src, dst, words), (width, phase))
      in
      Alcotest.(check (option (pair (triple int int int) (pair int string))))
        "pair budget accumulates and the error names (src,dst,phase,width)"
        (Some ((1, 3, 3), (2, "main")))
        fields;
      (* Distinct pairs never share a budget (the int key is injective). *)
      let inboxes =
        exchange () [| [ (1, [| 1; 2 |]) ]; [ (2, [| 3; 4 |]) ]; []; [] |]
      in
      Alcotest.(check int) "distinct pairs deliver" 1
        (List.length inboxes.(2)))
    [
      (fun () ->
        Clique.Sim.exchange (Clique.Sim.create ~kernel:Clique.Sim.Arena 4));
      (fun () -> Clique.Congest.exchange (Clique.Congest.create (Gen.complete 4)));
    ]

let test_out_of_range_dst_names_context () =
  let rt = K.On_sim.create ~sanitize:false (Clique.Sim.create 3) in
  let check_msg what f =
    let msg =
      try
        ignore (f ());
        ""
      with Invalid_argument m -> m
    in
    List.iter
      (fun needle ->
        Alcotest.(check bool)
          (Printf.sprintf "%s names %S" what needle)
          true (contains msg needle))
      [ "out of range"; "phase=\"bad-dst\""; "width=2" ]
  in
  check_msg "exchange error" (fun () ->
      K.with_phase rt "bad-dst" (fun () ->
          K.On_sim.exchange rt [| [ (7, [| 1 |]) ]; []; [] |]));
  check_msg "route error" (fun () ->
      K.with_phase rt "bad-dst" (fun () ->
          K.On_sim.route rt [ (0, 9, [| 1 |]) ]))

(* -------------------------------------------- route batching arithmetic *)

let test_route_batch_boundary () =
  let n = 4 and width = 2 in
  (* Max per-node load exactly n·width = 8 words: one 16-round batch. *)
  let msgs load =
    List.init load (fun i -> (1 + (i mod (n - 1)), 0, [| i |]))
  in
  let sim = Clique.Sim.create n in
  ignore (Clique.Sim.route sim (msgs (n * width)));
  Alcotest.(check int) "load = capacity: 1 batch"
    Runtime.Cost.lenzen_routing_rounds (Clique.Sim.rounds sim);
  let sim2 = Clique.Sim.create n in
  ignore (Clique.Sim.route sim2 (msgs ((n * width) + 1)));
  Alcotest.(check int) "load = capacity + 1: 2 batches"
    (2 * Runtime.Cost.lenzen_routing_rounds)
    (Clique.Sim.rounds sim2);
  (* Same arithmetic with a non-default width. *)
  let sim3 = Clique.Sim.create n in
  ignore (Clique.Sim.route ~width:1 sim3 (msgs (n + 1)));
  Alcotest.(check int) "width 1 halves the capacity"
    (2 * Runtime.Cost.lenzen_routing_rounds)
    (Clique.Sim.rounds sim3)

(* --------------------------------------------------- ledger and observers *)

let test_runtime_ledger_and_phases () =
  let rt = K.clique 4 in
  K.with_phase rt "talk" (fun () ->
      ignore (K.On_sim.exchange rt [| [ (1, [| 5 |]) ]; []; []; [] |]));
  K.charge rt ~phase:"analysis" 7;
  Alcotest.(check int) "total" 8 (K.rounds rt);
  Alcotest.(check int) "talk" 1 (K.phase_rounds rt "talk");
  Alcotest.(check int) "analysis" 7 (K.phase_rounds rt "analysis");
  Alcotest.(check int) "words" 1 (K.words rt);
  Alcotest.(check (list (pair string int)))
    "sorted breakdown"
    [ ("analysis", 7); ("talk", 1) ]
    (K.phases rt);
  (* The ledger total always equals the transport's round counter. *)
  Alcotest.(check int) "transport agrees" (K.rounds rt)
    (Clique.Sim.rounds (K.On_sim.transport rt));
  Alcotest.(check bool) "negative charge rejected" true
    (try
       K.charge rt (-1);
       false
     with Invalid_argument _ -> true)

let test_runtime_on_round_hook () =
  let rt = K.clique 3 in
  let seen = ref [] in
  K.on_round rt (fun ~phase ~rounds ~words ->
      seen := (phase, rounds, words) :: !seen);
  K.with_phase rt "bcast" (fun () ->
      ignore (K.On_sim.broadcast rt [| [| 1 |]; [| 2 |]; [| 3 |] |]));
  K.charge rt ~phase:"post" 4;
  Alcotest.(check (list (triple string int int)))
    "observer saw both events"
    [ ("post", 4, 0); ("bcast", 1, 6) ]
    !seen

let test_runtime_trace_ring () =
  let rt = K.On_sim.create ~trace_capacity:2 (Clique.Sim.create 2) in
  K.charge rt ~phase:"a" 1;
  K.charge rt ~phase:"b" 2;
  K.charge rt ~phase:"c" 3;
  let tr = K.On_sim.trace rt in
  Alcotest.(check int) "all events counted" 3 (Runtime.Trace.recorded tr);
  Alcotest.(check (list string))
    "ring keeps the newest" [ "b"; "c" ]
    (List.map (fun e -> e.Runtime.Trace.phase) (Runtime.Trace.to_list tr));
  let report = K.report rt in
  Alcotest.(check bool) "report names the kernel" true
    (String.length report > 0
    && String.sub report 0 7 = "[clique")

(* ------------------------------------------------- cross-kernel programs *)

let test_bfs_parity_across_kernels () =
  let g = Gen.connected_gnp ~seed:21L 24 0.15 in
  let rt = K.clique (Graph.n g) in
  let d_clique = K.Sim_programs.bfs rt g 0 in
  let c = Clique.Congest.create g in
  let d_congest = Clique.Congest.bfs c 0 in
  Alcotest.(check (array int)) "distances agree" d_congest d_clique;
  Alcotest.(check (array int))
    "oracle agrees" (Traversal.bfs g 0) d_clique;
  Alcotest.(check int) "same rounds on both kernels"
    (Clique.Congest.rounds c) (K.rounds rt);
  Alcotest.(check int) "all rounds under the bfs phase" (K.rounds rt)
    (K.phase_rounds rt "bfs")

let test_bellman_ford_parity_across_kernels () =
  let g = Gen.weighted_gnp ~seed:22L 16 0.3 8 in
  let rt = K.clique (Graph.n g) in
  let d_clique = K.Sim_programs.bellman_ford rt g 0 in
  let c = Clique.Congest.create g in
  let d_congest = Clique.Congest.bellman_ford c 0 in
  Alcotest.(check int) "same rounds" (Clique.Congest.rounds c) (K.rounds rt);
  Array.iteri
    (fun v d ->
      if Float.abs (d -. d_congest.(v)) > 1e-9 then
        Alcotest.failf "distance mismatch at %d" v)
    d_clique

let test_boruvka_parity_across_kernels () =
  let g = Gen.complete ~w:1. 10 in
  (* Perturb weights deterministically so the MST is unique and nontrivial. *)
  let g =
    Graph.create 10
      (Array.to_list (Graph.edges g)
      |> List.mapi (fun i e ->
             { e with Graph.w = 1. +. float_of_int ((i * 37) mod 11) }))
  in
  let rt_sim = K.clique (Graph.n g) in
  let e1, w1, p1 = K.Sim_programs.boruvka rt_sim g in
  let rt_con = K.congest g in
  let e2, w2, p2 = K.Congest_programs.boruvka rt_con g in
  Alcotest.(check (list int)) "same edges" e1 e2;
  Alcotest.(check (float 1e-9)) "same weight" w1 w2;
  Alcotest.(check int) "same phases" p1 p2;
  Alcotest.(check int) "same rounds" (K.rounds rt_sim)
    (K.On_congest.rounds rt_con);
  Alcotest.(check (list int))
    "kruskal oracle"
    (List.sort compare (Clique.Boruvka.kruskal g))
    e1;
  Alcotest.(check int) "2 rounds per phase" (2 * p1) (K.rounds rt_sim);
  let r = Clique.Boruvka.minimum_spanning_tree g in
  Alcotest.(check (list int)) "wrapper agrees" e1 r.Clique.Boruvka.edges

let test_three_color_parity_across_kernels () =
  let k = 12 in
  let succ = Array.init k (fun i -> (i + 1) mod k) in
  let pred = Array.init k (fun i -> (i + k - 1) mod k) in
  let ids = Array.init k (fun i -> (i * 53) + 2) in
  let rt_sim = K.clique k in
  let c1, r1 = K.Sim_programs.three_color rt_sim ~ids ~succ ~pred in
  (* The ring's communication pattern follows cycle edges, so the same
     program runs on the CONGEST kernel over the cycle graph. *)
  let rt_con = K.congest (Gen.cycle k) in
  let c2, r2 = K.Congest_programs.three_color rt_con ~ids ~succ ~pred in
  Alcotest.(check (array int)) "same colors" c1 c2;
  Alcotest.(check int) "same rounds" r1 r2;
  Alcotest.(check bool) "proper" true (Coloring.is_proper c1 ~succ);
  Alcotest.(check int) "ledger charged under coloring" r1
    (K.phase_rounds rt_sim "coloring")

(* --------------------------------------------- engines built on demand *)

(* A runtime that only charges builds no delivery engine: at n = 1024 the
   arena's dense width table alone would be two n² int arrays (≈2.1M
   words), so the allocation delta separates "built" from "not built" by
   two orders of magnitude. *)
let test_ledger_only_runtime_allocates_no_table () =
  let allocated () =
    let s = Gc.quick_stat () in
    s.Gc.minor_words +. s.Gc.major_words
  in
  let before = allocated () in
  let rt = K.clique 1024 in
  K.charge rt ~phase:"sparsify" 12;
  K.charge rt ~phase:"chebyshev" 40;
  K.charge rt ~phase:"rounding" 3;
  let words = allocated () -. before in
  Alcotest.(check int) "charges land in the ledger" 55 (K.rounds rt);
  if words >= 10_000. then
    Alcotest.failf "ledger-only clique 1024 allocated %.0f words" words

(* What an engine reports before and after it is built, and with it the
   key set [export_metrics] writes: no transport counters until the first
   exchange, then the arena's. *)
let test_unbuilt_engine_stats () =
  let rt =
    K.On_sim.create ~sanitize:false
      (Clique.Sim.create ~kernel:Clique.Sim.Arena 4)
  in
  let sim = K.On_sim.transport rt in
  let exported () =
    let m = Metrics.create () in
    K.On_sim.export_metrics rt m;
    match Metrics.to_json m with
    | Metrics.Json.Assoc sections ->
      List.sort compare
        (List.concat_map
           (function _, Metrics.Json.Assoc kv -> List.map fst kv | _ -> [])
           sections)
    | _ -> []
  in
  K.charge rt 2;
  ignore (K.On_sim.route rt [ (0, 1, [| 7 |]) ]);
  ignore (K.On_sim.broadcast rt (Array.make 4 [| 1 |]));
  Alcotest.(check (list (pair string int)))
    "charge/route/broadcast build nothing" [] (Clique.Sim.stats sim);
  Alcotest.(check (list string))
    "ledger-only export"
    [ "kernel.domains"; "ledger.clique.main"; "ledger.clique.total";
      "ledger.clique.words" ]
    (exported ());
  ignore (K.On_sim.exchange rt (Array.make 4 []));
  Alcotest.(check (list string))
    "first exchange builds the arena"
    [ "kernel.arena.dense"; "kernel.arena.grows"; "kernel.arena.resets";
      "kernel.arena.slot_words_reused"; "kernel.domains";
      "ledger.clique.main"; "ledger.clique.total"; "ledger.clique.words" ]
    (exported ());
  Alcotest.(check int) "counters carry over"
    (2 + Runtime.Cost.lenzen_routing_rounds + Runtime.Cost.broadcast_rounds + 1)
    (Clique.Sim.rounds sim)

let suite =
  [
    Alcotest.test_case "sim exchange bandwidth" `Quick
      test_sim_exchange_bandwidth;
    Alcotest.test_case "sim broadcast bandwidth" `Quick
      test_sim_broadcast_bandwidth;
    Alcotest.test_case "sim route bandwidth" `Quick test_sim_route_bandwidth;
    Alcotest.test_case "congest exchange bandwidth+edges" `Quick
      test_congest_exchange_bandwidth_and_edges;
    Alcotest.test_case "congest route+broadcast" `Quick
      test_congest_route_and_broadcast;
    Alcotest.test_case "bandwidth error names (src,dst,phase,width)" `Quick
      test_bandwidth_error_names_context;
    Alcotest.test_case "bandwidth accumulates per pair (both kernels)" `Quick
      test_bandwidth_accumulates_per_pair;
    Alcotest.test_case "out-of-range dst names context" `Quick
      test_out_of_range_dst_names_context;
    Alcotest.test_case "route batch boundary" `Quick test_route_batch_boundary;
    Alcotest.test_case "ledger and phases" `Quick
      test_runtime_ledger_and_phases;
    Alcotest.test_case "on_round hook" `Quick test_runtime_on_round_hook;
    Alcotest.test_case "trace ring buffer" `Quick test_runtime_trace_ring;
    Alcotest.test_case "bfs parity across kernels" `Quick
      test_bfs_parity_across_kernels;
    Alcotest.test_case "bellman-ford parity across kernels" `Quick
      test_bellman_ford_parity_across_kernels;
    Alcotest.test_case "boruvka parity across kernels" `Quick
      test_boruvka_parity_across_kernels;
    Alcotest.test_case "three-color parity across kernels" `Quick
      test_three_color_parity_across_kernels;
    Alcotest.test_case "ledger-only runtime allocates no n^2 table" `Quick
      test_ledger_only_runtime_allocates_no_table;
    Alcotest.test_case "unbuilt engine reports no stats" `Quick
      test_unbuilt_engine_stats;
  ]
