(* End-to-end integration tests across the whole stack: every pipeline run
   with non-default backends, chained pipelines, and cross-checked round
   accounting. *)

module Graph_gen = Gen

let arc src dst cap cost = { Digraph.src; dst; cap; cost }

(* Theorem 1.2 with the full Theorem 1.1 solver in the inner loop — the
   maximum-fidelity configuration (slow, so small instance). *)
let test_maxflow_with_theorem11_backend () =
  let g = Graph_gen.layered_network ~seed:2L 2 3 4 in
  let t = Digraph.n g - 1 in
  let r =
    Maxflow_ipm.max_flow ~solver:(Electrical.Theorem_1_1 1e-8) g ~s:0 ~t
  in
  Alcotest.(check int) "exact" (Dinic.max_flow_value g ~s:0 ~t)
    r.Maxflow_ipm.value;
  (* The charged rounds must now include sparsifier construction every
     solve, so the ipm phase dominates massively. *)
  Alcotest.(check bool) "ipm phase dominates" true
    (List.assoc "ipm" r.Maxflow_ipm.phase_rounds > r.Maxflow_ipm.rounds / 2)

let test_maxflow_with_exact_backend () =
  let g = Graph_gen.random_network ~seed:3L 10 24 5 in
  let r = Maxflow_ipm.max_flow ~solver:Electrical.Exact g ~s:0 ~t:9 in
  Alcotest.(check int) "exact" (Dinic.max_flow_value g ~s:0 ~t:9)
    r.Maxflow_ipm.value

let test_mcf_with_exact_backend () =
  let g, sigma = Graph_gen.random_mcf ~seed:4L 9 20 6 in
  match
    (Mcf_ipm.solve ~solver:Electrical.Exact g ~sigma, Mcf_ssp.solve g ~sigma)
  with
  | Some r, Some oracle ->
    Alcotest.(check (float 1e-6)) "cost" oracle.Mcf_ssp.cost r.Mcf_ipm.cost
  | None, None -> ()
  | _ -> Alcotest.fail "feasibility disagreement"

(* Chained sparsification: the sparsifier of a sparsifier still
   preconditions the original graph. *)
let test_sparsifier_chain () =
  let g = Graph_gen.connected_gnp ~seed:5L 70 0.5 in
  let h1 = (Sparsify.Spectral.sparsify g).Sparsify.Spectral.sparsifier in
  let h2 = (Sparsify.Spectral.sparsify h1).Sparsify.Spectral.sparsifier in
  let kappa = Sparsify.Quality.relative_condition g h2 in
  Alcotest.(check bool)
    (Printf.sprintf "chained kappa=%f finite" kappa)
    true
    (Float.is_finite kappa);
  let n = Graph.n g in
  let b = Linalg.Vec.sub (Linalg.Vec.basis n 0) (Linalg.Vec.basis n (n - 1)) in
  let lh = Graph.laplacian_dense h2 in
  let x, st =
    Linalg.Chebyshev.solve_grounded
      ~apply_a:(Graph.apply_laplacian g)
      ~solve_b:(fun v -> Linalg.Dense.solve_grounded lh (Linalg.Vec.center v))
      ~kappa:(1.2 *. kappa) ~tol:1e-8 b
  in
  ignore x;
  Alcotest.(check bool) "chained preconditioner converges" true
    st.Linalg.Chebyshev.converged

(* Electrical flow backends agree. *)
let test_electrical_backends_agree () =
  let g = Graph_gen.connected_gnp ~seed:6L 25 0.3 in
  let b = Linalg.Vec.sub (Linalg.Vec.basis 25 3) (Linalg.Vec.basis 25 19) in
  let resistance _ = 1.5 in
  let exact =
    Electrical.compute ~solver:Electrical.Exact ~support:g ~resistance ~b ()
  in
  let cg =
    Electrical.compute ~solver:(Electrical.Cg 1e-12) ~support:g ~resistance ~b ()
  in
  let thm =
    Electrical.compute ~solver:(Electrical.Theorem_1_1 1e-9) ~support:g
      ~resistance ~b ()
  in
  Alcotest.(check bool) "cg = exact" true
    (Linalg.Vec.equal ~eps:1e-6 exact.Electrical.flow cg.Electrical.flow);
  Alcotest.(check bool) "thm11 = exact" true
    (Linalg.Vec.equal ~eps:1e-4 exact.Electrical.flow thm.Electrical.flow)

(* The solver's x actually solves downstream tasks: potentials-based s-t cut
   heuristic separates a barbell. *)
let test_solver_potentials_separate_barbell () =
  let g = Graph_gen.barbell 10 in
  let n = Graph.n g in
  let b = Linalg.Vec.sub (Linalg.Vec.basis n 0) (Linalg.Vec.basis n (n - 1)) in
  let x, _ = (fun r -> (r.Laplacian.Solver.x, r)) (Laplacian.Solver.solve ~eps:1e-8 g b) in
  (* Potentials inside the first clique must all exceed those in the second. *)
  let min_left = ref infinity and max_right = ref neg_infinity in
  for v = 0 to 9 do
    min_left := Float.min !min_left x.(v)
  done;
  for v = 10 to 19 do
    max_right := Float.max !max_right x.(v)
  done;
  Alcotest.(check bool) "potential gap across the bridge" true
    (!min_left > !max_right)

(* Cost-aware rounding end-to-end inside the MCF pipeline: build a fractional
   flow by hand on a graph where the wrong cycle direction is expensive. *)
let test_rounding_cost_rule_e2e () =
  let g =
    Digraph.create 6
      [
        arc 0 1 1 0; arc 1 5 1 0;
        (* cheap cycle pair *)
        arc 0 2 1 1; arc 2 5 1 1;
        (* expensive cycle pair *)
        arc 0 3 1 9; arc 3 5 1 9;
        (* middle *)
        arc 0 4 1 4; arc 4 5 1 4;
      ]
  in
  let f = Array.make 8 0.5 in
  let cost id = float_of_int (Digraph.arc g id).Digraph.cost in
  let r = Rounding.Flow_rounding.round ~cost g ~s:0 ~t:5 ~delta:0.5 f in
  let rf = r.Rounding.Flow_rounding.f in
  Alcotest.(check bool) "feasible" true (Flow.is_feasible g ~s:0 ~t:5 ~f:rf);
  Alcotest.(check bool) "value kept" true (Flow.value g ~s:0 ~f:rf >= 2. -. 1e-9);
  Alcotest.(check bool)
    (Printf.sprintf "cost %.1f <= fractional %.1f" (Flow.cost g rf)
       (Flow.cost g f))
    true
    (Flow.cost g rf <= Flow.cost g f +. 1e-9)

(* Orientation at scale inside rounding. *)
let test_rounding_large_network () =
  let g = Graph_gen.layered_network ~seed:7L 8 6 4 in
  let t = Digraph.n g - 1 in
  let f, v = Dinic.max_flow g ~s:0 ~t in
  let frac = Array.map (fun x -> 0.75 *. x) f in
  let items = Decompose.decompose g ~s:0 ~t frac in
  let q = Decompose.accumulate g (Decompose.quantize_paths ~delta:0.25 items) in
  let r = Rounding.Flow_rounding.round g ~s:0 ~t ~delta:0.25 q in
  Alcotest.(check bool) "integral" true
    (Flow.is_integral r.Rounding.Flow_rounding.f);
  Alcotest.(check bool) "feasible" true
    (Flow.is_feasible g ~s:0 ~t ~f:r.Rounding.Flow_rounding.f);
  Alcotest.(check bool) "value near optimum" true
    (Flow.value g ~s:0 ~f:r.Rounding.Flow_rounding.f >= 0.7 *. float_of_int v)

(* Core umbrella consistency. *)
let test_core_umbrella () =
  Alcotest.(check bool) "version" true (String.length Core.version > 0);
  let g = Core.Gen.connected_gnp ~seed:8L 30 0.3 in
  let b = Core.Vec.sub (Core.Vec.basis 30 0) (Core.Vec.basis 30 29) in
  let x, report = Core.solve_laplacian ~eps:1e-6 g b in
  Alcotest.(check bool) "solves" true
    (Core.Solver.error_in_l_norm g x b <= 1e-6);
  let total =
    List.fold_left (fun a (_, r) -> a + r) 0 report.Core.Solver.phase_rounds
  in
  Alcotest.(check int) "phase sum" report.Core.Solver.rounds total;
  let reff = Core.effective_resistance g 0 29 in
  Alcotest.(check bool) "effective resistance positive" true (reff > 0.);
  (* Consistent with the solver's potentials. *)
  Alcotest.(check bool) "consistent with solve" true
    (Float.abs (reff -. (x.(0) -. x.(29))) < 1e-3)

let test_core_min_cost_max_flow () =
  let g = Graph_gen.unit_bipartite ~seed:9L 4 0.6 in
  let s = 0 and t = Digraph.n g - 1 in
  match Core.min_cost_max_flow g ~s ~t with
  | None -> Alcotest.fail "feasible"
  | Some (r, _) ->
    let _, v_oracle, _ = Mcf_ssp.solve_max_flow_min_cost g ~s ~t in
    Alcotest.(check int) "max value" v_oracle
      (int_of_float (Float.round (Flow.value g ~s ~f:r.Mcf_ipm.f)))

(* MST of a sparsifier still spans. *)
let test_mst_of_sparsifier () =
  let g = Graph_gen.connected_gnp ~seed:10L 50 0.4 in
  let h = (Core.spectral_sparsifier g).Sparsify.Spectral.sparsifier in
  let mst = Core.minimum_spanning_tree h in
  Alcotest.(check int) "spans" 49 (List.length mst.Clique.Boruvka.edges)

(* Round-count parity with the pre-runtime seed: after the functorized
   Runtime refactor every experiment must report exactly the same totals
   as the original per-module ledgers, and the per-phase breakdown must
   always sum to the total. The constants below are the seed bench
   outputs for one representative instance per experiment family. *)
let phase_sum ps = List.fold_left (fun a (_, r) -> a + r) 0 ps

let check_total_and_phases name expected rounds phase_rounds =
  Alcotest.(check int) (name ^ " rounds match seed") expected rounds;
  Alcotest.(check int) (name ^ " phases sum to total") rounds
    (phase_sum phase_rounds)

let test_seed_round_parity_sparsify () =
  let r =
    Sparsify.Spectral.sparsify (Graph_gen.connected_gnp ~seed:3L 40 0.5)
  in
  check_total_and_phases "E1 n=40 u=1" 84 r.Sparsify.Spectral.rounds
    r.Sparsify.Spectral.phase_rounds;
  let r =
    Sparsify.Spectral.sparsify (Graph_gen.weighted_gnp ~seed:3L 60 0.5 16)
  in
  check_total_and_phases "E1 n=60 u=16" 251 r.Sparsify.Spectral.rounds
    r.Sparsify.Spectral.phase_rounds

let test_seed_round_parity_solver () =
  let n = 30 in
  let g = Graph_gen.connected_gnp ~seed:7L n 0.3 in
  let b = Linalg.Vec.sub (Linalg.Vec.basis n 0) (Linalg.Vec.basis n (n - 1)) in
  let r = Laplacian.Solver.solve ~eps:1e-6 g b in
  (* 157 until the κ bound on this H = G fixture became the one-round
     support certificate: kappa-estimate 80 → 1. *)
  check_total_and_phases "E2 n=30" 78 r.Laplacian.Solver.rounds
    r.Laplacian.Solver.phase_rounds

let test_seed_round_parity_orientation () =
  List.iter
    (fun (n, expected) ->
      let g = Graph_gen.cycle_union ~seed:5L n (max 3 (n / 16)) in
      let r = Euler.Orientation.orient g in
      check_total_and_phases
        (Printf.sprintf "E3 n=%d" n)
        expected r.Euler.Orientation.rounds r.Euler.Orientation.phase_rounds)
    [ (64, 264); (256, 358) ]

let test_seed_round_parity_rounding () =
  let g = Graph_gen.layered_network ~seed:11L 4 4 6 in
  let t = Digraph.n g - 1 in
  let f, _ = Dinic.max_flow g ~s:0 ~t in
  let delta = 0.25 in
  let frac = Array.map (fun x -> 2. /. 3. *. x) f in
  let items = Decompose.decompose g ~s:0 ~t frac in
  let q = Decompose.accumulate g (Decompose.quantize_paths ~delta items) in
  let r = Rounding.Flow_rounding.round g ~s:0 ~t ~delta q in
  check_total_and_phases "E4 k=2" 304 r.Rounding.Flow_rounding.rounds
    r.Rounding.Flow_rounding.phase_rounds

let test_seed_round_parity_maxflow () =
  let g = Graph_gen.layered_network ~seed:13L 2 4 8 in
  let r = Maxflow_ipm.max_flow g ~s:0 ~t:(Digraph.n g - 1) in
  check_total_and_phases "E5 layers=2" 1931 r.Maxflow_ipm.rounds
    r.Maxflow_ipm.phase_rounds

let test_seed_round_parity_mcf () =
  let g, sigma = Graph_gen.random_mcf ~seed:17L 8 16 10 in
  match Mcf_ipm.solve g ~sigma with
  | None -> Alcotest.fail "seed instance must be feasible"
  | Some r ->
    check_total_and_phases "E6 m=16" 1201 r.Mcf_ipm.rounds
      r.Mcf_ipm.phase_rounds

(* Every experiment family runs clean under the dynamic sanitizer and
   reports the exact same totals: enabling the checks must never change
   the computation. E7/E7b are closed-form reference curves with no
   communication; E8's ablations re-run the E1/E2 machinery with
   non-default backends, represented here by the bucket-vs-BSS pair and
   the CG baseline. The bench binary covers the full E1-E8 surface under
   CC_SANITIZE=1 in CI. *)
let with_sanitizer f =
  Runtime.Config.with_ { (Runtime.Config.get ()) with sanitize = true } f

let test_families_under_sanitizer () =
  with_sanitizer (fun () ->
      (* E1: sparsifier. *)
      let r =
        Sparsify.Spectral.sparsify (Graph_gen.connected_gnp ~seed:3L 40 0.5)
      in
      check_total_and_phases "E1 sanitized" 84 r.Sparsify.Spectral.rounds
        r.Sparsify.Spectral.phase_rounds;
      (* E2: solver. *)
      let n = 30 in
      let g = Graph_gen.connected_gnp ~seed:7L n 0.3 in
      let b =
        Linalg.Vec.sub (Linalg.Vec.basis n 0) (Linalg.Vec.basis n (n - 1))
      in
      let r = Laplacian.Solver.solve ~eps:1e-6 g b in
      check_total_and_phases "E2 sanitized" 78 r.Laplacian.Solver.rounds
        r.Laplacian.Solver.phase_rounds;
      (* E3: Euler orientation. *)
      let r = Euler.Orientation.orient (Graph_gen.cycle_union ~seed:5L 64 4) in
      check_total_and_phases "E3 sanitized" 264 r.Euler.Orientation.rounds
        r.Euler.Orientation.phase_rounds;
      (* E4: flow rounding. *)
      let g = Graph_gen.layered_network ~seed:11L 4 4 6 in
      let t = Digraph.n g - 1 in
      let f, _ = Dinic.max_flow g ~s:0 ~t in
      let delta = 0.25 in
      let frac = Array.map (fun x -> 2. /. 3. *. x) f in
      let items = Decompose.decompose g ~s:0 ~t frac in
      let q = Decompose.accumulate g (Decompose.quantize_paths ~delta items) in
      let r = Rounding.Flow_rounding.round g ~s:0 ~t ~delta q in
      check_total_and_phases "E4 sanitized" 304 r.Rounding.Flow_rounding.rounds
        r.Rounding.Flow_rounding.phase_rounds;
      (* E5: max flow IPM. *)
      let g = Graph_gen.layered_network ~seed:13L 2 4 8 in
      let r = Maxflow_ipm.max_flow g ~s:0 ~t:(Digraph.n g - 1) in
      check_total_and_phases "E5 sanitized" 1931 r.Maxflow_ipm.rounds
        r.Maxflow_ipm.phase_rounds;
      (* E6: min-cost flow IPM. *)
      let g, sigma = Graph_gen.random_mcf ~seed:17L 8 16 10 in
      (match Mcf_ipm.solve g ~sigma with
      | None -> Alcotest.fail "seed instance must be feasible"
      | Some r ->
        check_total_and_phases "E6 sanitized" 1201 r.Mcf_ipm.rounds
          r.Mcf_ipm.phase_rounds);
      (* E8-style ablations: alternate sparsifier backend and the plain-CG
         solver baseline also run clean under the checks. *)
      let g = Graph_gen.connected_gnp ~seed:29L 36 0.5 in
      ignore (Sparsify.Bss.sparsify ~d:4 g);
      let n = Graph.n g in
      let b =
        Linalg.Vec.sub (Linalg.Vec.basis n 0) (Linalg.Vec.basis n (n - 1))
      in
      ignore (Laplacian.Solver.solve_cg_baseline ~eps:1e-8 g b))

(* Determinism: the whole Theorem 1.2 pipeline is bit-for-bit repeatable. *)
let test_pipeline_determinism () =
  let g = Graph_gen.layered_network ~seed:11L 3 3 5 in
  let t = Digraph.n g - 1 in
  let r1 = Maxflow_ipm.max_flow g ~s:0 ~t in
  let r2 = Maxflow_ipm.max_flow g ~s:0 ~t in
  Alcotest.(check bool) "same flow vector" true
    (r1.Maxflow_ipm.f = r2.Maxflow_ipm.f);
  Alcotest.(check int) "same rounds" r1.Maxflow_ipm.rounds r2.Maxflow_ipm.rounds

let suite =
  [
    Alcotest.test_case "maxflow with Theorem 1.1 backend" `Slow
      test_maxflow_with_theorem11_backend;
    Alcotest.test_case "maxflow with exact backend" `Quick
      test_maxflow_with_exact_backend;
    Alcotest.test_case "mcf with exact backend" `Quick
      test_mcf_with_exact_backend;
    Alcotest.test_case "sparsifier chain" `Quick test_sparsifier_chain;
    Alcotest.test_case "electrical backends agree" `Quick
      test_electrical_backends_agree;
    Alcotest.test_case "solver potentials separate barbell" `Quick
      test_solver_potentials_separate_barbell;
    Alcotest.test_case "rounding cost rule e2e" `Quick
      test_rounding_cost_rule_e2e;
    Alcotest.test_case "rounding large network" `Quick
      test_rounding_large_network;
    Alcotest.test_case "core umbrella" `Quick test_core_umbrella;
    Alcotest.test_case "core min-cost max-flow" `Quick
      test_core_min_cost_max_flow;
    Alcotest.test_case "mst of sparsifier" `Quick test_mst_of_sparsifier;
    Alcotest.test_case "pipeline determinism" `Quick test_pipeline_determinism;
    Alcotest.test_case "seed round parity: sparsifier (E1)" `Quick
      test_seed_round_parity_sparsify;
    Alcotest.test_case "seed round parity: solver (E2)" `Quick
      test_seed_round_parity_solver;
    Alcotest.test_case "seed round parity: orientation (E3)" `Quick
      test_seed_round_parity_orientation;
    Alcotest.test_case "seed round parity: rounding (E4)" `Quick
      test_seed_round_parity_rounding;
    Alcotest.test_case "seed round parity: maxflow (E5)" `Quick
      test_seed_round_parity_maxflow;
    Alcotest.test_case "seed round parity: mcf (E6)" `Quick
      test_seed_round_parity_mcf;
    Alcotest.test_case "experiment families under sanitizer" `Quick
      test_families_under_sanitizer;
  ]
