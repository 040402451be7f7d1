(* Tests for the Theorem 1.1 solver: error metric, iteration scaling, round
   accounting, baselines. *)

module Graph_gen = Gen

let demand n =
  Linalg.Vec.center (Linalg.Vec.init n (fun i -> float_of_int ((i * 17) mod 13)))

let test_solver_meets_error_bound () =
  let n = 50 in
  let g = Graph_gen.connected_gnp ~seed:100L n 0.3 in
  let b = demand n in
  List.iter
    (fun eps ->
      let r = Laplacian.Solver.solve ~eps g b in
      let err = Laplacian.Solver.error_in_l_norm g r.Laplacian.Solver.x b in
      if err > eps then
        Alcotest.failf "L-norm error %g exceeds eps %g" err eps)
    [ 1e-2; 1e-4; 1e-6 ]

let test_solver_weighted_graph () =
  let n = 40 in
  let g = Graph_gen.weighted_gnp ~seed:101L n 0.3 32 in
  let b = demand n in
  let r = Laplacian.Solver.solve ~eps:1e-5 g b in
  let err = Laplacian.Solver.error_in_l_norm g r.Laplacian.Solver.x b in
  Alcotest.(check bool)
    (Printf.sprintf "err=%g" err)
    true (err <= 1e-5)

let test_solver_iterations_grow_with_precision () =
  let n = 45 in
  let g = Graph_gen.connected_gnp ~seed:102L n 0.25 in
  let b = demand n in
  let r1 = Laplacian.Solver.solve ~eps:1e-2 g b in
  let r2 = Laplacian.Solver.solve ~eps:1e-8 g b in
  Alcotest.(check bool) "more precision, more iterations" true
    (r2.Laplacian.Solver.iterations >= r1.Laplacian.Solver.iterations)

let test_solver_rounds_breakdown () =
  let n = 40 in
  let g = Graph_gen.connected_gnp ~seed:103L n 0.3 in
  let b = demand n in
  let r = Laplacian.Solver.solve g b in
  let phases = List.map fst r.Laplacian.Solver.phase_rounds in
  List.iter
    (fun p ->
      if not (List.mem p phases) then Alcotest.failf "missing phase %s" p)
    [ "sparsify"; "kappa-estimate"; "chebyshev" ];
  let total =
    List.fold_left (fun a (_, r) -> a + r) 0 r.Laplacian.Solver.phase_rounds
  in
  Alcotest.(check int) "phases sum to total" r.Laplacian.Solver.rounds total

let test_solver_reuse_sparsifier () =
  let n = 40 in
  let g = Graph_gen.connected_gnp ~seed:104L n 0.3 in
  let sp = Sparsify.Spectral.sparsify g in
  let b = demand n in
  let r = Laplacian.Solver.solve_with_sparsifier g sp b in
  let err = Laplacian.Solver.error_in_l_norm g r.Laplacian.Solver.x b in
  Alcotest.(check bool) "reused sparsifier solves" true (err < 1e-4);
  (* No sparsify phase charged. *)
  Alcotest.(check bool) "no sparsify charge" true
    (not (List.mem_assoc "sparsify" r.Laplacian.Solver.phase_rounds))

let test_cg_baseline_solves () =
  let n = 40 in
  let g = Graph_gen.connected_gnp ~seed:105L n 0.3 in
  let b = demand n in
  let r = Laplacian.Solver.solve_cg_baseline ~eps:1e-6 g b in
  let err = Laplacian.Solver.error_in_l_norm g r.Laplacian.Solver.x b in
  Alcotest.(check bool) "baseline error" true (err < 1e-5);
  Alcotest.(check bool) "rounds = iterations" true
    (r.Laplacian.Solver.rounds = r.Laplacian.Solver.iterations)

let test_solver_iterative_inner () =
  let n = 60 in
  let g = Graph_gen.connected_gnp ~seed:106L n 0.2 in
  let b = demand n in
  let r = Laplacian.Solver.solve ~inner:Laplacian.Solver.Iterative g b in
  let err = Laplacian.Solver.error_in_l_norm g r.Laplacian.Solver.x b in
  Alcotest.(check bool) "iterative inner solves" true (err < 1e-4)

let test_solver_on_structured_graphs () =
  List.iter
    (fun (name, g) ->
      let n = Graph.n g in
      let b = demand n in
      let r = Laplacian.Solver.solve ~eps:1e-4 g b in
      let err = Laplacian.Solver.error_in_l_norm g r.Laplacian.Solver.x b in
      if err > 1e-4 then Alcotest.failf "%s: error %g" name err)
    [
      ("grid 6x8", Graph_gen.grid 6 8);
      ("cycle 50", Graph_gen.cycle 50);
      ("expander 48", Graph_gen.expander 48 8);
      ("barbell 15", Graph_gen.barbell 15);
      ("star 40", Graph_gen.star 40);
    ]

let test_solver_path_effective_resistance () =
  (* On a path, L†(e_s − e_t) gives potentials with difference = distance. *)
  let n = 10 in
  let g = Graph_gen.path n in
  let b = Linalg.Vec.sub (Linalg.Vec.basis n 0) (Linalg.Vec.basis n (n - 1)) in
  let r = Laplacian.Solver.solve ~eps:1e-8 g b in
  let x = r.Laplacian.Solver.x in
  Alcotest.(check (float 1e-4)) "effective resistance of P10"
    (float_of_int (n - 1))
    (x.(0) -. x.(n - 1))

let qcheck_tests =
  let open QCheck in
  [
    Test.make ~name:"solver meets bound on random graphs" ~count:8 small_nat
      (fun seed ->
        let g =
          Graph_gen.connected_gnp ~seed:(Int64.of_int (seed + 61)) 30 0.3
        in
        let b = demand 30 in
        let r = Laplacian.Solver.solve ~eps:1e-4 g b in
        Laplacian.Solver.error_in_l_norm g r.Laplacian.Solver.x b <= 1e-4);
  ]

let suite =
  [
    Alcotest.test_case "meets Theorem 1.1 error bound" `Quick
      test_solver_meets_error_bound;
    Alcotest.test_case "weighted graphs" `Quick test_solver_weighted_graph;
    Alcotest.test_case "iterations grow with precision" `Quick
      test_solver_iterations_grow_with_precision;
    Alcotest.test_case "round breakdown consistent" `Quick
      test_solver_rounds_breakdown;
    Alcotest.test_case "sparsifier reuse" `Quick test_solver_reuse_sparsifier;
    Alcotest.test_case "cg baseline" `Quick test_cg_baseline_solves;
    Alcotest.test_case "iterative inner solver" `Quick
      test_solver_iterative_inner;
    Alcotest.test_case "structured graphs" `Quick
      test_solver_on_structured_graphs;
    Alcotest.test_case "path effective resistance" `Quick
      test_solver_path_effective_resistance;
  ]
  @ List.map (QCheck_alcotest.to_alcotest ~long:false) qcheck_tests

(* ----------------------------------------- prepared (amortized) solving *)

(* solve_prepared must be indistinguishable from solve — solution bits,
   residual, and the whole round ledger — and stay so across repeat calls
   on the same handle (the daemon's steady state). *)
let test_prepared_matches_solve () =
  List.iter
    (fun (seed, n, p, eps) ->
      let g = Gen.connected_gnp ~seed:(Int64.of_int seed) n p in
      let b =
        Linalg.Vec.init n (fun i -> float_of_int ((i * 11) mod 7) -. 3.)
      in
      let r = Laplacian.Solver.solve ~eps g b in
      let prep = Laplacian.Solver.prepare ~eps g in
      let check_call tag =
        let r' = Laplacian.Solver.solve_prepared prep b in
        Alcotest.(check bool)
          (tag ^ ": x bit-identical") true
          (r.Laplacian.Solver.x = r'.Laplacian.Solver.x);
        Alcotest.(check (float 0.))
          (tag ^ ": residual") r.Laplacian.Solver.residual
          r'.Laplacian.Solver.residual;
        Alcotest.(check int)
          (tag ^ ": iterations") r.Laplacian.Solver.iterations
          r'.Laplacian.Solver.iterations;
        Alcotest.(check int)
          (tag ^ ": rounds") r.Laplacian.Solver.rounds
          r'.Laplacian.Solver.rounds;
        Alcotest.(check bool)
          (tag ^ ": phase ledger") true
          (r.Laplacian.Solver.phase_rounds = r'.Laplacian.Solver.phase_rounds)
      in
      check_call "first call";
      check_call "repeat call")
    [ (31, 24, 0.3, 1e-6); (32, 40, 0.15, 1e-4) ]

let test_prepared_cg_matches_baseline () =
  let g = Gen.connected_gnp ~seed:33L 30 0.25 in
  let b = Linalg.Vec.init 30 (fun i -> sin (float_of_int (2 * i))) in
  let r = Laplacian.Solver.solve_cg_baseline ~eps:1e-6 g b in
  let prep = Laplacian.Solver.prepare_cg ~eps:1e-6 g in
  let r1 = Laplacian.Solver.solve_cg_prepared prep b in
  let r2 = Laplacian.Solver.solve_cg_prepared prep b in
  Alcotest.(check bool)
    "x bit-identical" true
    (r.Laplacian.Solver.x = r1.Laplacian.Solver.x);
  Alcotest.(check bool)
    "repeat call bit-identical" true
    (r1.Laplacian.Solver.x = r2.Laplacian.Solver.x);
  Alcotest.(check (float 0.))
    "residual" r.Laplacian.Solver.residual r1.Laplacian.Solver.residual;
  Alcotest.(check int)
    "rounds" r.Laplacian.Solver.rounds r1.Laplacian.Solver.rounds

let test_prepared_distinct_rhs () =
  (* One handle, many right-hand sides: each must match the from-scratch
     solve for that rhs. *)
  let g = Gen.connected_gnp ~seed:34L 20 0.35 in
  let prep = Laplacian.Solver.prepare g in
  List.iter
    (fun k ->
      let b =
        Linalg.Vec.init 20 (fun i -> float_of_int (((i + k) * 17) mod 13))
      in
      let r = Laplacian.Solver.solve g b in
      let r' = Laplacian.Solver.solve_prepared prep b in
      Alcotest.(check bool)
        (Printf.sprintf "rhs %d bit-identical" k)
        true
        (r.Laplacian.Solver.x = r'.Laplacian.Solver.x))
    [ 0; 1; 5 ]

let test_prepared_accessors () =
  let g = Gen.connected_gnp ~seed:35L 16 0.4 in
  let prep = Laplacian.Solver.prepare g in
  let b = Linalg.Vec.init 16 (fun i -> float_of_int (i mod 5) -. 2.) in
  let r = Laplacian.Solver.solve_prepared prep b in
  Alcotest.(check int)
    "dim" 16
    (Laplacian.Solver.prepared_dim prep);
  Alcotest.(check (float 0.))
    "kappa matches report" r.Laplacian.Solver.kappa
    (Laplacian.Solver.prepared_kappa prep);
  Alcotest.(check int)
    "sparsifier edges match report" r.Laplacian.Solver.sparsifier_edges
    (Laplacian.Solver.prepared_sparsifier_edges prep)

let suite =
  suite
  @ [
      Alcotest.test_case "prepared matches solve" `Quick
        test_prepared_matches_solve;
      Alcotest.test_case "prepared cg matches baseline" `Quick
        test_prepared_cg_matches_baseline;
      Alcotest.test_case "prepared handle, many rhs" `Quick
        test_prepared_distinct_rhs;
      Alcotest.test_case "prepared accessors" `Quick test_prepared_accessors;
    ]

(* ------------------------------------------------ pinned κ across commits *)

(* FNV-1a over the IEEE-754 bits of every entry, little-endian. *)
let fnv_bits x =
  Array.fold_left
    (fun h xi ->
      let b = Int64.bits_of_float xi in
      let h = ref h in
      for k = 0 to 7 do
        h :=
          Wire.Fnv.add_byte !h
            (Int64.to_int (Int64.shift_right_logical b (8 * k)))
      done;
      !h)
    Wire.Fnv.offset x

(* E2's n-sweep fixtures (bench/main.ml, seed 7, eps = 1e-6). κ only
   reaches the ungated [stats] of BENCH_E2.json and the prepared-vs-one-shot
   test moves with the code it compares, so κ's bits, the Chebyshev
   iteration count and the solution's bits are pinned here. n = 30 keeps
   G's support and takes the certified κ (exactly 1.2); n = 60, 90, 120
   take the Lanczos estimate. *)
let test_e2_nsweep_pinned () =
  List.iter
    (fun (n, kappa_bits, iterations, x_fnv) ->
      let g = Gen.connected_gnp ~seed:7L n 0.3 in
      let b =
        Linalg.Vec.sub (Linalg.Vec.basis n 0) (Linalg.Vec.basis n (n - 1))
      in
      let r = Laplacian.Solver.solve ~eps:1e-6 g b in
      Alcotest.(check int64)
        (Printf.sprintf "n=%d kappa bits" n)
        kappa_bits
        (Int64.bits_of_float r.Laplacian.Solver.kappa);
      Alcotest.(check int)
        (Printf.sprintf "n=%d iterations" n)
        iterations r.Laplacian.Solver.iterations;
      Alcotest.(check int64)
        (Printf.sprintf "n=%d x fnv" n)
        x_fnv
        (fnv_bits r.Laplacian.Solver.x))
    [
      (30, 4608083138725491507L, 7, 7525225659943094731L);
      (60, 4618420603450775456L, 22, 6342113830789887129L);
      (90, 4615107380745358494L, 16, -3468756687366448664L);
      (120, 4619004782912125290L, 23, 6609512105227040435L);
    ]

let suite =
  suite
  @ [
      Alcotest.test_case "E2 n-sweep kappa pinned" `Quick
        test_e2_nsweep_pinned;
    ]

(* ------------------------------------------------- κ: certificate, Lanczos *)

(* Eigenvalues of a symmetric matrix by cyclic Jacobi rotations — the
   dense oracle the κ tests compare against. *)
let jacobi_eigenvalues m =
  let a = Array.map Array.copy m in
  let k = Array.length a in
  let off () =
    let s = ref 0. in
    for i = 0 to k - 1 do
      for j = 0 to k - 1 do
        if i <> j then s := !s +. (a.(i).(j) *. a.(i).(j))
      done
    done;
    !s
  in
  let sweeps = ref 0 in
  while off () > 1e-40 && !sweeps < 100 do
    for p = 0 to k - 2 do
      for q = p + 1 to k - 1 do
        if a.(p).(q) <> 0. then begin
          let theta = (a.(q).(q) -. a.(p).(p)) /. (2. *. a.(p).(q)) in
          let t =
            Float.copy_sign 1. theta
            /. (Float.abs theta +. sqrt ((theta *. theta) +. 1.))
          in
          let c = 1. /. sqrt ((t *. t) +. 1.) in
          let s = t *. c in
          for r = 0 to k - 1 do
            let x = a.(r).(p) and y = a.(r).(q) in
            a.(r).(p) <- (c *. x) -. (s *. y);
            a.(r).(q) <- (s *. x) +. (c *. y)
          done;
          for r = 0 to k - 1 do
            let x = a.(p).(r) and y = a.(q).(r) in
            a.(p).(r) <- (c *. x) -. (s *. y);
            a.(q).(r) <- (s *. x) +. (c *. y)
          done
        end
      done
    done;
    incr sweeps
  done;
  Array.init k (fun i -> a.(i).(i))

(* The exact extremes of the pencil (L_G, L_H) on 1⊥: both forms are
   invariant under adding a constant, so ground vertex 0; with
   L̃_H = C Cᵀ the pencil is the spectrum of C⁻¹ L̃_G C⁻ᵀ. *)
let exact_pencil g h =
  let grounded g =
    let l = Graph.laplacian_dense g in
    let k = Graph.n g - 1 in
    Array.init k (fun i -> Array.init k (fun j -> l.(i + 1).(j + 1)))
  in
  let lg = grounded g and c = Linalg.Dense.cholesky (grounded h) in
  let k = Array.length lg in
  (* y = C⁻¹ x by forward substitution. *)
  let lower_solve x =
    let y = Array.make k 0. in
    for i = 0 to k - 1 do
      let s = ref x.(i) in
      for j = 0 to i - 1 do
        s := !s -. (c.(i).(j) *. y.(j))
      done;
      y.(i) <- !s /. c.(i).(i)
    done;
    y
  in
  (* L̃_G is symmetric, so column i of W = C⁻¹ L̃_G is C⁻¹ (row i of L̃_G);
     column j of M = C⁻¹ Wᵀ is C⁻¹ (row j of W). *)
  let w = Array.map lower_solve lg in
  let m = Array.init k (fun j -> lower_solve (Array.init k (fun i -> w.(i).(j)))) in
  let m = Array.init k (fun i -> Array.init k (fun j -> 0.5 *. (m.(i).(j) +. m.(j).(i)))) in
  let ev = jacobi_eigenvalues m in
  (Array.fold_left Float.min infinity ev, Array.fold_left Float.max 0. ev)

(* H on G's support, each vertex pair's merged weight scaled by a factor in
   [1/4, 4] drawn from [seed]. *)
let reweighted ~seed g =
  let rng = Prng.create seed in
  let simple = Graph.reweight_simple g in
  Graph.map_weights (fun e -> e.Graph.w *. (0.25 +. Prng.float rng 3.75)) simple

let qcheck_certificate =
  QCheck.Test.make ~name:"certified bracket contains the exact pencil"
    ~count:25
    QCheck.(pair (int_range 3 40) small_nat)
    (fun (n, seed) ->
      let seed = Int64.of_int (seed + 1) in
      let base = Gen.weighted_gnp ~seed n 0.3 16 in
      (* Parallel copies of every third edge: the certificate must merge
         them before it compares supports. *)
      let g =
        Graph.union base
          (Graph.sub_edges base
             (List.filter (fun i -> i mod 3 = 0)
                (List.init (Graph.m base) Fun.id)))
      in
      let h = reweighted ~seed g in
      match Laplacian.Solver.certified_bounds g h with
      | None -> QCheck.Test.fail_report "same support not certified"
      | Some (lo, hi) ->
        let lmin, lmax = exact_pencil g h in
        lo <= lmin *. (1. +. 1e-9) && hi >= lmax *. (1. -. 1e-9))

let kappa_phase r =
  try List.assoc "kappa-estimate" r.Laplacian.Solver.phase_rounds
  with Not_found -> 0

let sparsifier_of h =
  {
    Sparsify.Spectral.sparsifier = h;
    levels = 0;
    classes = 0;
    rounds = 0;
    phase_rounds = [];
  }

(* Dropping one edge of H, or adding one, loses the certificate: the
   solver then takes the Lanczos path and charges more than the one
   broadcast round. *)
let test_certificate_mutations () =
  let n = 24 in
  let g = Gen.connected_gnp ~seed:41L n 0.4 in
  let b = demand n in
  let h = reweighted ~seed:42L g in
  let es = Array.to_list (Graph.edges h) in
  let cases =
    [
      ("same support", h, true);
      ("one edge dropped", Graph.create n (List.tl es), false);
      ( "one edge added",
        (let absent =
           let rec find u v =
             if List.exists
                  (fun (e : Graph.edge) ->
                    (e.u = u && e.v = v) || (e.u = v && e.v = u))
                  es
             then if v + 1 < n then find u (v + 1) else find (u + 1) (u + 2)
             else { Graph.u; v; w = 1. }
           in
           find 0 1
         in
         Graph.create n (absent :: es)),
        false );
    ]
  in
  List.iter
    (fun (name, h, certified) ->
      Alcotest.(check bool)
        (name ^ ": certificate") certified
        (Laplacian.Solver.certified_bounds g h <> None);
      let r = Laplacian.Solver.solve_with_sparsifier g (sparsifier_of h) b in
      Alcotest.(check bool)
        (name ^ ": one kappa round iff certified") certified
        (kappa_phase r = Runtime.Cost.broadcast_rounds);
      let err = Laplacian.Solver.error_in_l_norm g r.Laplacian.Solver.x b in
      if err > 1e-6 then Alcotest.failf "%s: error %g" name err)
    cases

(* A tolerance out of floating-point reach (ε = 1e-17, so Chebyshev aims
   at a 1e-19 residual) makes every Chebyshev run miss. On the Lanczos
   path each miss doubles κ and reruns under "kappa-retry", four times
   at most; a certified κ is never second-guessed. *)
let test_kappa_retry () =
  let n = 24 in
  let g = Gen.connected_gnp ~seed:41L n 0.4 in
  let b = demand n in
  let h = reweighted ~seed:42L g in
  let dropped = Graph.create n (List.tl (Array.to_list (Graph.edges h))) in
  let solve eps h =
    Laplacian.Solver.solve_with_sparsifier ~eps g (sparsifier_of h) b
  in
  let retry r =
    try List.assoc "kappa-retry" r.Laplacian.Solver.phase_rounds
    with Not_found -> 0
  in
  let reached = solve 1e-6 dropped and missed = solve 1e-17 dropped in
  Alcotest.(check int) "no retry when Chebyshev converges" 0 (retry reached);
  Alcotest.(check bool) "retries charged" true (retry missed > 0);
  Alcotest.(check (float 0.))
    "kappa doubled four times" (16. *. reached.Laplacian.Solver.kappa)
    missed.Laplacian.Solver.kappa;
  Alcotest.(check int)
    "phases sum to total" missed.Laplacian.Solver.rounds
    (List.fold_left (fun a (_, r) -> a + r) 0 missed.Laplacian.Solver.phase_rounds);
  Alcotest.(check int) "certified: no retry" 0 (retry (solve 1e-17 h))

(* E2's n-sweep fixtures where the sparsifier drops edges (H ≠ G): the κ
   the solver runs with must cover the exact pencil, and the estimate
   under the 1.2 margin (the Ritz ratio widened by its residuals) must
   read between 0.99 and 1.05 of it. *)
let test_lanczos_kappa () =
  List.iter
    (fun n ->
      let eps = 1e-6 in
      let g = Gen.connected_gnp ~seed:7L n 0.3 in
      let g' =
        Graph.map_weights
          (fun e -> eps *. Float.max 1. (Float.round (e.Graph.w /. eps)))
          g
      in
      let h = (Sparsify.Spectral.sparsify g').Sparsify.Spectral.sparsifier in
      Alcotest.(check bool)
        (Printf.sprintf "n=%d: H differs from G" n)
        true
        (Laplacian.Solver.certified_bounds g' h = None);
      let lmin, lmax = exact_pencil g' h in
      let exact = lmax /. lmin in
      let b = Linalg.Vec.sub (Linalg.Vec.basis n 0) (Linalg.Vec.basis n (n - 1)) in
      let r = Laplacian.Solver.solve ~eps g b in
      let used = r.Laplacian.Solver.kappa in
      if used < exact then
        Alcotest.failf "n=%d: kappa %g below the exact %g" n used exact;
      let estimate = used /. 1.2 in
      if estimate < 0.99 *. exact || estimate > 1.05 *. exact then
        Alcotest.failf "n=%d: estimate %g not within [0.99, 1.05] of %g" n
          estimate exact)
    [ 60; 90; 120 ]

(* solve_prepared replays the κ rounds prepare charged, on both paths. *)
let test_prepared_replays_kappa_rounds () =
  List.iter
    (fun (n, certified) ->
      let g = Gen.connected_gnp ~seed:7L n 0.3 in
      let b = Linalg.Vec.sub (Linalg.Vec.basis n 0) (Linalg.Vec.basis n (n - 1)) in
      let r = Laplacian.Solver.solve ~eps:1e-6 g b in
      let r' =
        Laplacian.Solver.solve_prepared (Laplacian.Solver.prepare ~eps:1e-6 g) b
      in
      Alcotest.(check bool)
        (Printf.sprintf "n=%d: certified path" n)
        certified
        (kappa_phase r = Runtime.Cost.broadcast_rounds);
      Alcotest.(check int)
        (Printf.sprintf "n=%d: rounds" n)
        r.Laplacian.Solver.rounds r'.Laplacian.Solver.rounds;
      Alcotest.(check (list (pair string int)))
        (Printf.sprintf "n=%d: phase rounds" n)
        r.Laplacian.Solver.phase_rounds r'.Laplacian.Solver.phase_rounds)
    [ (30, true); (60, false) ]

let suite =
  suite
  @ [
      QCheck_alcotest.to_alcotest ~long:false qcheck_certificate;
      Alcotest.test_case "certificate mutations" `Quick
        test_certificate_mutations;
      Alcotest.test_case "Lanczos kappa covers the exact pencil" `Quick
        test_lanczos_kappa;
      Alcotest.test_case "estimated kappa retried on a miss" `Quick
        test_kappa_retry;
      Alcotest.test_case "prepared replays kappa rounds" `Quick
        test_prepared_replays_kappa_rounds;
    ]
