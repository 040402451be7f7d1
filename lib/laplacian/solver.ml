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

(* Support certificate for the pencil (L_G, L_H). When H's edges are
   exactly G's with parallel edges merged, both quadratic forms sum over
   the same vertex pairs, x'L_G x = Σ_p (w_G,p / w_H,p)·w_H,p (x_u − x_v)²,
   so the pencil spectrum on 1⊥ lies in [min_p w_G,p/w_H,p,
   max_p w_G,p/w_H,p]. Each node checks its own incident pairs — [acc]
   merges its G-edges by neighbour, [mark] catches a repeated H-neighbour
   — and the broadcast of its (min, max, flag) lets every node agree. *)
let certified_bounds g h =
  let n = Graph.n g in
  let acc = Array.make n 0. and mark = Array.make n (-1) in
  let lo = ref infinity and hi = ref 0. and same = ref (Graph.n h = n) in
  let v = ref 0 in
  while !same && !v < n do
    let distinct = ref 0 in
    List.iter
      (fun (u, id) ->
        if acc.(u) = 0. then incr distinct;
        acc.(u) <- acc.(u) +. (Graph.edge g id).Graph.w)
      (Graph.adj g !v);
    List.iter
      (fun (u, id) ->
        if acc.(u) = 0. || mark.(u) = !v then same := false
        else begin
          mark.(u) <- !v;
          decr distinct;
          let r = acc.(u) /. (Graph.edge h id).Graph.w in
          lo := Float.min !lo r;
          hi := Float.max !hi r
        end)
      (Graph.adj h !v);
    if !distinct <> 0 then same := false;
    List.iter (fun (u, _) -> acc.(u) <- 0.) (Graph.adj g !v);
    incr v
  done;
  if not !same then None
  else if !hi = 0. then Some (1., 1.)
  else Some (!lo, !hi)

(* Eigenpairs of a small symmetric matrix by cyclic Jacobi rotations: [a]
   is left diagonal (the eigenvalues), and column [i] of the returned
   matrix is the eigenvector of [a.(i).(i)]. *)
let jacobi_eig a =
  let k = Array.length a in
  let v = Array.init k (fun i -> Array.init k (fun j -> if i = j then 1. else 0.)) in
  let total = Array.fold_left (Array.fold_left (fun s x -> s +. (x *. x))) 0. a in
  let off () =
    let s = ref 0. in
    for i = 0 to k - 1 do
      for j = i + 1 to k - 1 do
        s := !s +. (a.(i).(j) *. a.(i).(j))
      done
    done;
    !s
  in
  let sweeps = ref 0 in
  while !sweeps < 50 && off () > 1e-32 *. total do
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
          let rotate m r =
            let x = m.(r).(p) and y = m.(r).(q) in
            m.(r).(p) <- (c *. x) -. (s *. y);
            m.(r).(q) <- (s *. x) +. (c *. y)
          in
          for r = 0 to k - 1 do
            rotate a r;
            rotate v r
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
  v

let lanczos_max_steps = 20

let ritz_tol = 1e-2

(* Lanczos on the pencil (L_G, L_H), read off the coefficients of
   L_H†-preconditioned CG on L_G y = r₀: with α_j the step lengths and
   β_j the ratios of successive (r, z), the tridiagonal T has diagonal
   1/α_j + β_{j−1}/α_{j−1} and off-diagonal √β_j/α_j, and its extreme
   eigenvalues (Ritz values) approach the pencil extremes from inside.
   Each step is one L_G-matvec round; the dot products are local, since
   every vector involved is globally known after that round. It stops
   when both extreme Ritz pairs have residual β_k|s_k| ≤ [ritz_tol]
   relative, on a breakdown (the Krylov space is invariant, so the Ritz
   values are exact), or after [lanczos_max_steps]. Ritz values lie
   inside the spectrum, so each end is pushed out by its residual, which
   bounds its distance to an eigenvalue. Returns [(lo, hi, steps)]. *)
let lanczos_bounds g solve_h_into =
  let n = Graph.n g in
  let r =
    Linalg.Vec.normalize
      (Linalg.Vec.center
         (Linalg.Vec.init n (fun i ->
              let s = if i land 1 = 0 then 1. else -1. in
              s *. (1. +. (float_of_int ((i * 48271) land 0x3fff) /. 16384.)))))
  in
  let z = Linalg.Vec.create n
  and p = Linalg.Vec.create n
  and ap = Linalg.Vec.create n in
  solve_h_into r z;
  Linalg.Vec.copy_into z p;
  let rz0 = Linalg.Vec.dot r z in
  let diag = Array.make lanczos_max_steps 0.
  and off = Array.make lanczos_max_steps 0. in
  (* The extreme Ritz values of T_k, each pushed out by its residual, and
     whether both residuals are within [ritz_tol]. *)
  let ritz k =
    let t =
      Array.init k (fun i ->
          Array.init k (fun j ->
              if i = j then diag.(i)
              else if j = i + 1 then off.(i)
              else if i = j + 1 then off.(j)
              else 0.))
    in
    let s = jacobi_eig t in
    let top = ref 0 and bot = ref 0 in
    for i = 1 to k - 1 do
      if t.(i).(i) > t.(!top).(!top) then top := i;
      if t.(i).(i) < t.(!bot).(!bot) then bot := i
    done;
    let residual i = off.(k - 1) *. Float.abs s.(k - 1).(i) in
    let hi = t.(!top).(!top) and lo = t.(!bot).(!bot) in
    let rhi = residual !top and rlo = residual !bot in
    ( (Float.max (lo -. rlo) (lo /. 2.), hi +. rhi),
      rlo <= ritz_tol *. lo && rhi <= ritz_tol *. hi )
  in
  (* Step [k]: one L_G-matvec, then the CG update that yields α_{k−1},
     β_{k−1}; [carry] is β_{k−2}/α_{k−2}. *)
  let rec step k rz carry =
    Graph.apply_laplacian_into g p ap;
    let pap = Linalg.Vec.dot p ap in
    if not (pap > 0. && Float.is_finite pap) then
      (* A zero or unusable direction: T_{k−1} is all there is. *)
      ((if k = 1 then (1., 1.) else fst (ritz (k - 1))), k)
    else begin
      let alpha = rz /. pap in
      Linalg.Vec.axpy_into (-.alpha) ap r r;
      solve_h_into r z;
      let rz' = Float.max 0. (Linalg.Vec.dot r z) in
      let beta = rz' /. rz in
      diag.(k - 1) <- (1. /. alpha) +. carry;
      off.(k - 1) <- sqrt beta /. alpha;
      let bounds, converged = ritz k in
      if converged || rz' <= 1e-28 *. rz0 || k = lanczos_max_steps then
        (bounds, k)
      else begin
        Linalg.Vec.scale_into beta p p;
        Linalg.Vec.add_into z p p;
        step (k + 1) rz' (beta /. alpha)
      end
    end
  in
  let (lo, hi), steps = step 1 rz0 0. in
  (lo, hi, steps)

(* The pencil extremes (lo, hi) of (L_G, L_H) and the rounds spent on
   them: the support certificate when it applies — one broadcast round —
   else the Lanczos estimate, whose first matvec round carries the
   certificate's words, so it charges one round per step. *)
let pencil_bounds g h solve_h_into =
  match certified_bounds g h with
  | Some (lo, hi) -> (lo, hi, Runtime.Cost.broadcast_rounds, true)
  | None ->
    let lo, hi, steps = lanczos_bounds g solve_h_into in
    (lo, hi, steps * Runtime.Cost.matvec_rounds, false)

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
  p_certified : bool;
  p_kappa_rounds : int;
  p_solve_b_into : Linalg.Vec.t -> Linalg.Vec.t -> unit;
  p_apply_a_into : Linalg.Vec.t -> Linalg.Vec.t -> unit;
  p_ws : Linalg.Chebyshev.Workspace.t;
}

(* Every per-graph phase after the sparsifier: the inner B†-solve state and
   the pencil bounds, whose rounds are charged to [rt]. *)
let prepare_with_sparsifier ~eps ?inner rt g sp =
  let n = Graph.n g in
  let inner = match inner with Some i -> i | None -> default_inner n in
  let h = sp.Sparsify.Spectral.sparsifier in
  let solve_h_into = inner_solve_into inner h in
  let lmin, lmax, rounds, certified = pencil_bounds g h solve_h_into in
  Clique.Kernel.charge rt ~phase:"kappa-estimate" rounds;
  let inv_lmax = 1. /. lmax in
  let solve_b_into src dst =
    solve_h_into src dst;
    Linalg.Vec.scale_into inv_lmax dst dst
  in
  {
    p_graph = g;
    p_eps = eps;
    p_sparsifier = sp;
    (* The 1.2 margin also keeps Chebyshev's δ = (1 − 1/κ)/2 positive when
       the certified κ is 1. *)
    p_kappa = 1.2 *. lmax /. lmin;
    p_certified = certified;
    p_kappa_rounds = rounds;
    p_solve_b_into = solve_b_into;
    p_apply_a_into = (fun src dst -> Graph.apply_laplacian_into g src dst);
    p_ws = Linalg.Chebyshev.Workspace.create n;
  }

let max_kappa_retries = 4

(* The Chebyshev phase, charged to [rt]. A certified κ bounds the pencil;
   an estimated one may not, so there a run that misses its tolerance
   doubles κ and reruns, each rerun charged to "kappa-retry". *)
let chebyshev_solve p rt b =
  let eps = p.p_eps in
  (* Two successive centerings: centering is not an exact FP projection,
     and the recorded solution bits (bench baselines, pinned tests) come
     from centering twice. *)
  let b1 = Linalg.Vec.center b in
  let b2 = Linalg.Vec.center b1 in
  let rec run phase kappa retries =
    let max_iters =
      Linalg.Chebyshev.iteration_bound ~kappa ~eps:(eps /. 10.)
    in
    let st =
      Linalg.Chebyshev.solve_into ~max_iters ~tol:(eps /. 100.)
        ~apply_a_into:p.p_apply_a_into ~solve_b_into:p.p_solve_b_into ~kappa
        p.p_ws b2
    in
    Clique.Kernel.charge rt ~phase
      (st.Linalg.Chebyshev.iterations * Runtime.Cost.matvec_rounds);
    if
      st.Linalg.Chebyshev.converged || p.p_certified
      || retries = max_kappa_retries
    then (kappa, st)
    else run "kappa-retry" (2. *. kappa) (retries + 1)
  in
  let kappa, st = run "chebyshev" p.p_kappa 0 in
  let x = Linalg.Vec.center p.p_ws.Linalg.Chebyshev.Workspace.x in
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
  (* The κ rounds are recorded in the handle and replayed by every
     [solve_prepared]; this ledger is discarded. *)
  prepare_with_sparsifier ~eps ?inner (Clique.Kernel.clique (Graph.n g)) g sp

let prepared_dim p = Graph.n p.p_graph

let prepared_kappa p = p.p_kappa

let prepared_sparsifier_edges p =
  Graph.m p.p_sparsifier.Sparsify.Spectral.sparsifier

let solve_prepared p b =
  let rt = Clique.Kernel.clique (Graph.n p.p_graph) in
  Clique.Kernel.charge rt ~phase:"sparsify"
    p.p_sparsifier.Sparsify.Spectral.rounds;
  Clique.Kernel.charge rt ~phase:"kappa-estimate" p.p_kappa_rounds;
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
  (* Only the sparsifier phase is model-sensitive: the κ certificate is
     one broadcast round, and the Lanczos and Chebyshev loops are matvecs
     against a globally-known iterate, one broadcast round per iteration,
     in either model (DESIGN.md §13). *)
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
