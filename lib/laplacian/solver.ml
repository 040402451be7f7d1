let log_src = Logs.Src.create "repro.solver" ~doc:"Theorem 1.1 Laplacian solver"

module Log = (val Logs.src_log log_src : Logs.LOG)

type inner_solver = Direct | Iterative

type report = {
  x : Linalg.Vec.t;
  iterations : int;
  kappa : float;
  sparsifier_edges : int;
  rounds : int;
  phase_rounds : (string * int) list;
  residual : float;
}

let default_inner n = if n <= 400 then Direct else Iterative

(* Node-internal solver for the sparsifier Laplacian: every node knows H, so
   this costs zero rounds (Theorem 1.1's proof). Operator-into form: every
   buffer is preallocated at closure-build time, so steady-state
   applications allocate nothing. *)
let inner_solve_into inner h =
  match inner with
  | Direct ->
    let n = Graph.n h in
    let l = Graph.laplacian_dense h in
    let reduced = Linalg.Dense.init (n - 1) (fun i j -> l.(i + 1).(j + 1)) in
    let chol = Linalg.Dense.cholesky ~shift:1e-12 reduced in
    let c = Linalg.Vec.create n in
    let bsub = Linalg.Vec.create (n - 1) in
    let ysub = Linalg.Vec.create (n - 1) in
    let xsub = Linalg.Vec.create (n - 1) in
    fun src dst ->
      Linalg.Vec.center_into src c;
      Array.blit c 1 bsub 0 (n - 1);
      Linalg.Dense.cholesky_solve_into chol bsub ysub xsub;
      Linalg.Vec.fill dst 0.;
      Array.blit xsub 0 dst 1 (n - 1);
      Linalg.Vec.center_into dst dst
  | Iterative ->
    let n = Graph.n h in
    let cgws = Linalg.Cg.Workspace.create n in
    let cb = Linalg.Vec.create n in
    let apply_h src dst = Graph.apply_laplacian_into h src dst in
    fun src dst ->
      Linalg.Vec.center_into src cb;
      let (_ : Linalg.Cg.stats) =
        Linalg.Cg.solve_into ~tol:1e-13 cgws apply_h cb
      in
      Linalg.Vec.center_into cgws.Linalg.Cg.Workspace.x dst

let kappa_power_iters = 40

(* Distributed estimation of the pencil extremes of (L_G, L_H): power
   iteration on B†A (one matvec round per application, B†-solves internal),
   then on its reflection cI − B†A to reach the bottom of the spectrum. The
   iterate never depends on the Rayleigh quotient, so each loop takes it
   once, on its final iterate: 40 + 1 applications per loop. The charge
   stays 2 × 40 matvec rounds. *)
let estimate_kappa rt g solve_h_into =
  let n = Graph.n g in
  let cv = Linalg.Vec.create n
  and lv = Linalg.Vec.create n
  and cw = Linalg.Vec.create n
  and w = Linalg.Vec.create n in
  (* w <- B†A (center v) *)
  let bta v =
    Linalg.Vec.center_into v cv;
    Graph.apply_laplacian_into g cv lv;
    solve_h_into lv w
  in
  (* w <- c v − B†A (center v) *)
  let reflected c v =
    bta v;
    Linalg.Vec.scale_into c v cw;
    Linalg.Vec.sub_into cw w w
  in
  let start =
    Linalg.Vec.normalize
      (Linalg.Vec.center
         (Linalg.Vec.init n (fun i ->
              let s = if i land 1 = 0 then 1. else -1. in
              s *. (1. +. (float_of_int ((i * 48271) land 0x3fff) /. 16384.)))))
  in
  (* [step] leaves its image of [v] in [w]; [v <- w / ‖w‖] unless zero. *)
  let power step =
    let v = Linalg.Vec.copy start in
    let moved = ref false in
    for _ = 1 to kappa_power_iters do
      step v;
      let nw = Linalg.Vec.norm2 w in
      if nw > 0. then begin
        Linalg.Vec.scale_into (1. /. nw) w v;
        moved := true
      end
    done;
    (v, !moved)
  in
  (* B†A is self-adjoint in the B-inner product and only the extreme is
     needed, so the ordinary Rayleigh quotient of the unit iterate serves
     as the generalized one. *)
  let v, moved = power bta in
  let mu_max =
    if moved then begin
      bta v;
      Linalg.Vec.dot v w
    end
    else 1.
  in
  let c = mu_max *. 1.05 in
  let v, moved =
    power (fun v ->
        reflected c v;
        Linalg.Vec.center_into w w)
  in
  let mu_reflected =
    if moved then begin
      reflected c v;
      Linalg.Vec.dot v w
    end
    else 0.
  in
  let mu_min = Float.max (c -. mu_reflected) (mu_max *. 1e-8) in
  Clique.Kernel.charge rt ~phase:"kappa-estimate"
    (2 * kappa_power_iters * Runtime.Cost.matvec_rounds);
  (mu_max, mu_min)

let preprocess_weights eps g =
  (* Theorem 3.3 takes integer weights; round to multiples of ε as the
     Theorem 1.1 proof prescribes. *)
  Graph.map_weights
    (fun e -> eps *. Float.max 1. (Float.round (e.Graph.w /. eps)))
    g

type prepared = {
  p_graph : Graph.t;
  p_eps : float;
  p_sparsifier : Sparsify.Spectral.result;
  p_kappa : float;
  p_solve_b_into : Linalg.Vec.t -> Linalg.Vec.t -> unit;
  p_apply_a_into : Linalg.Vec.t -> Linalg.Vec.t -> unit;
  p_ws : Linalg.Chebyshev.Workspace.t;
}

(* Every per-graph phase after the sparsifier: the inner B†-solve state and
   the κ estimate, whose rounds are charged to [rt]. *)
let prepare_with_sparsifier ~eps ?inner rt g sp =
  let n = Graph.n g in
  let inner = match inner with Some i -> i | None -> default_inner n in
  let h = sp.Sparsify.Spectral.sparsifier in
  let solve_h_into = inner_solve_into inner h in
  let lmax, lmin = estimate_kappa rt g solve_h_into in
  let inv_lmax = 1. /. lmax in
  let solve_b_into src dst =
    solve_h_into src dst;
    Linalg.Vec.scale_into inv_lmax dst dst
  in
  {
    p_graph = g;
    p_eps = eps;
    p_sparsifier = sp;
    p_kappa = 1.2 *. lmax /. lmin;
    p_solve_b_into = solve_b_into;
    p_apply_a_into = (fun src dst -> Graph.apply_laplacian_into g src dst);
    p_ws = Linalg.Chebyshev.Workspace.create n;
  }

(* The Chebyshev phase, charged to [rt]. *)
let chebyshev_solve p rt b =
  let eps = p.p_eps and kappa = p.p_kappa in
  (* Two successive centerings: centering is not an exact FP projection,
     and the recorded solution bits (bench baselines, pinned tests) come
     from centering twice. *)
  let b1 = Linalg.Vec.center b in
  let b2 = Linalg.Vec.center b1 in
  let max_iters = Linalg.Chebyshev.iteration_bound ~kappa ~eps:(eps /. 10.) in
  let st =
    Linalg.Chebyshev.solve_into ~max_iters ~tol:(eps /. 100.)
      ~apply_a_into:p.p_apply_a_into ~solve_b_into:p.p_solve_b_into ~kappa
      p.p_ws b2
  in
  let x = Linalg.Vec.center p.p_ws.Linalg.Chebyshev.Workspace.x in
  Clique.Kernel.charge rt ~phase:"chebyshev"
    (st.Linalg.Chebyshev.iterations * Runtime.Cost.matvec_rounds);
  Log.debug (fun k ->
      k "solve: n=%d kappa=%.3f iterations=%d residual=%.2e"
        (Graph.n p.p_graph) kappa st.Linalg.Chebyshev.iterations
        st.Linalg.Chebyshev.residual);
  {
    x;
    iterations = st.Linalg.Chebyshev.iterations;
    kappa;
    sparsifier_edges = Graph.m p.p_sparsifier.Sparsify.Spectral.sparsifier;
    rounds = Clique.Kernel.rounds rt;
    phase_rounds = Clique.Kernel.phases rt;
    residual = st.Linalg.Chebyshev.residual;
  }

let solve_with_sparsifier ?(eps = 1e-6) ?inner ?rt g sp b =
  let rt =
    match rt with Some rt -> rt | None -> Clique.Kernel.clique (Graph.n g)
  in
  chebyshev_solve (prepare_with_sparsifier ~eps ?inner rt g sp) rt b

let prepare ?(eps = 1e-6) ?(phi = 0.05) ?inner ?backend ?model g =
  if not (Graph.is_connected g) then
    invalid_arg
      "Solver.prepare: graph must be connected (L† needs one component)";
  let g' = preprocess_weights eps g in
  let sp = Sparsify.Spectral.sparsify ~phi ?backend ?model g' in
  (* The κ rounds are replayed by every [solve_prepared]; this ledger is
     discarded. *)
  prepare_with_sparsifier ~eps ?inner (Clique.Kernel.clique (Graph.n g)) g sp

let prepared_dim p = Graph.n p.p_graph

let prepared_kappa p = p.p_kappa

let prepared_sparsifier_edges p =
  Graph.m p.p_sparsifier.Sparsify.Spectral.sparsifier

let solve_prepared p b =
  let rt = Clique.Kernel.clique (Graph.n p.p_graph) in
  Clique.Kernel.charge rt ~phase:"sparsify"
    p.p_sparsifier.Sparsify.Spectral.rounds;
  Clique.Kernel.charge rt ~phase:"kappa-estimate"
    (2 * kappa_power_iters * Runtime.Cost.matvec_rounds);
  chebyshev_solve p rt b

type prepared_cg = {
  pc_eps : float;
  pc_apply_into : Linalg.Vec.t -> Linalg.Vec.t -> unit;
  pc_ws : Linalg.Cg.Workspace.t;
}

let prepare_cg ?(eps = 1e-6) g =
  {
    pc_eps = eps;
    pc_apply_into = (fun src dst -> Graph.apply_laplacian_into g src dst);
    pc_ws = Linalg.Cg.Workspace.create (Graph.n g);
  }

let solve_cg_prepared p b =
  let eps = p.pc_eps in
  (* [solve_cg_baseline] centers once, then [Cg.solve_grounded] centers
     again — replicated for bit-identity, as in [chebyshev_solve]. *)
  let b1 = Linalg.Vec.center b in
  let b2 = Linalg.Vec.center b1 in
  let st = Linalg.Cg.solve_into ~tol:(eps /. 100.) p.pc_ws p.pc_apply_into b2 in
  let x = Linalg.Vec.center p.pc_ws.Linalg.Cg.Workspace.x in
  {
    x;
    iterations = st.Linalg.Cg.iterations;
    kappa = nan;
    sparsifier_edges = 0;
    rounds = st.Linalg.Cg.iterations * Runtime.Cost.matvec_rounds;
    phase_rounds = [ ("cg", st.Linalg.Cg.iterations) ];
    residual =
      st.Linalg.Cg.residual /. Float.max (Linalg.Vec.norm2 b1) 1e-300;
  }

let solve ?(eps = 1e-6) ?(phi = 0.05) ?inner ?backend ?model g b =
  if not (Graph.is_connected g) then
    invalid_arg "Solver.solve: graph must be connected (L† needs one component)";
  let g' = preprocess_weights eps g in
  (* Only the sparsifier phase is model-sensitive: κ-estimation and the
     Chebyshev loop are matvecs against a globally-known iterate, which
     is one broadcast round per iteration in either model (DESIGN.md
     §13). *)
  let sp = Sparsify.Spectral.sparsify ~phi ?backend ?model g' in
  (* One ledger for the whole pipeline: the sparsifier's charged rounds land
     in the same runtime the solve phases charge into. *)
  let rt = Clique.Kernel.clique (Graph.n g) in
  Clique.Kernel.charge rt ~phase:"sparsify" sp.Sparsify.Spectral.rounds;
  solve_with_sparsifier ~eps ?inner ~rt g sp b

let solve_cg_baseline ?(eps = 1e-6) g b =
  let b = Linalg.Vec.center b in
  let x, st =
    Linalg.Cg.solve_grounded ~tol:(eps /. 100.) (Graph.apply_laplacian g) b
  in
  {
    x;
    iterations = st.Linalg.Cg.iterations;
    kappa = nan;
    sparsifier_edges = 0;
    rounds = st.Linalg.Cg.iterations * Runtime.Cost.matvec_rounds;
    phase_rounds = [ ("cg", st.Linalg.Cg.iterations) ];
    residual =
      st.Linalg.Cg.residual /. Float.max (Linalg.Vec.norm2 b) 1e-300;
  }

let error_in_l_norm g x b =
  let b = Linalg.Vec.center b in
  let xstar = Linalg.Dense.solve_grounded (Graph.laplacian_dense g) b in
  let diff = Linalg.Vec.sub x xstar in
  let num = sqrt (Float.max 0. (Graph.quadratic_form g diff)) in
  let den = sqrt (Float.max 0. (Graph.quadratic_form g xstar)) in
  if den = 0. then num else num /. den
