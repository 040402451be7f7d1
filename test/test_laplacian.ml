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
   iteration count and the solution's bits are pinned here as recorded
   before the allocation-free rewrite of Fiedler, the small-cut enumeration
   and the κ power loops. *)
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
      (30, 4608083138725491504L, 7, -2590138469489925068L);
      (60, 4618029039925332268L, 26, -495639194846872154L);
      (90, 4614928519738668452L, 16, 98993935538581910L);
      (120, 4618416613683784602L, 23, 5453984488452370630L);
    ]

let suite =
  suite
  @ [
      Alcotest.test_case "E2 n-sweep kappa pinned" `Quick
        test_e2_nsweep_pinned;
    ]
