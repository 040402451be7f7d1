(** Deterministic congested-clique Laplacian solver — Theorem 1.1.

    Pipeline, exactly as §3 implements it:
    + round edge weights to multiples of [ε] and rescale (the theorem takes
      integer weight classes);
    + build a deterministic spectral sparsifier [H] ({!Sparsify.Spectral});
      after this phase [H] is known to every node;
    + bound the pencil condition number [κ] of [(L_G, L_H)]: when [H] has
      exactly [G]'s support (parallel edges merged), the per-edge weight
      ratios bracket the pencil ({!certified_bounds}) and one broadcast
      round agrees on them; otherwise a Lanczos estimate read off
      [L_H†]-preconditioned CG, one [L_G]-matvec round per step (at most
      20), the [L_H†] applications node-internal;
    + run preconditioned Chebyshev (Corollary 2.3): [O(√κ·log(1/ε))]
      iterations of one matvec round plus an internal [L_H]-solve.

    Round accounting: the sparsifier phase charges its Theorem 3.3 cost, and
    every matvec charges {!Runtime.Cost.matvec_rounds}; all charges flow
    through one clique-runtime ledger ({!Clique.Kernel}) and are broken down
    per phase in the report. *)

type inner_solver =
  | Direct  (** grounded dense Cholesky of [L_H] — exact, [O(n³)] once *)
  | Iterative  (** tightly-converged CG on [L_H] — for larger [n] *)

type report = {
  x : Linalg.Vec.t;  (** the approximate solution *)
  iterations : int;  (** Chebyshev iterations of the run that produced [x] *)
  kappa : float;
      (** the κ the Chebyshev run that produced [x] used: 1.2 × the
          certified or Lanczos pencil ratio, doubled once per rerun *)
  sparsifier_edges : int;
  rounds : int;  (** total charged rounds *)
  phase_rounds : (string * int) list;
      (** ledger breakdown (sorted): "chebyshev", "kappa-estimate",
          "kappa-retry" (only when an estimated κ made Chebyshev miss its
          tolerance and rerun with κ doubled), "sparsify" *)
  residual : float;  (** final relative ℓ₂ residual ‖b − L_G x‖/‖b‖ *)
}

val certified_bounds : Graph.t -> Graph.t -> (float * float) option
(** [certified_bounds g h] is [Some (lo, hi)] when [h] is simple and has
    exactly the vertex pairs of [g] (parallel edges of [g] merged):
    [lo]/[hi] are the least/greatest ratio [w_G/w_H] over those pairs,
    and [lo·L_H ≼ L_G ≼ hi·L_H]. [None] when the supports differ; then
    the solver estimates κ by Lanczos instead. *)

val solve :
  ?eps:float ->
  ?phi:float ->
  ?inner:inner_solver ->
  ?backend:Sparsify.Spectral.backend ->
  ?model:Runtime.Model.t ->
  Graph.t ->
  Linalg.Vec.t ->
  report
(** [solve g b] approximately solves [L_G x = b] for connected [g] and
    [b ⊥ 1] (it is centered defensively). [eps] (default [1e-6]) is the
    target of Theorem 1.1: [‖x − L†b‖_{L_G} ≤ ε‖L†b‖_{L_G}]. [inner]
    defaults to [Direct] for [n ≤ 400], [Iterative] above. [model]
    (default [CC_MODEL], [Runtime.Config.t.model]) selects unicast vs broadcast
    round accounting for the sparsifier phase; the matvec-driven phases
    (the κ bound, Chebyshev) cost the same in both models, and the
    solution is bit-identical. Raises [Invalid_argument] on a
    disconnected graph. *)

val solve_with_sparsifier :
  ?eps:float ->
  ?inner:inner_solver ->
  ?rt:Clique.Kernel.t ->
  Graph.t ->
  Sparsify.Spectral.result ->
  Linalg.Vec.t ->
  report
(** Reuse a previously built sparsifier (the flow IPMs re-solve on graphs
    whose resistances change every iteration but whose support is fixed;
    when the caller knows the sparsifier is still valid it can skip phase 1).
    The sparsifier construction rounds are {e not} re-charged. [rt] lets a
    caller thread its own runtime ledger through the solve (default: a fresh
    one, so the report stands alone). *)

(** {2 Prepared (amortized) solving}

    The throughput daemon serves many right-hand sides against the same
    graph. {!prepare} performs the per-graph work once — weight
    preprocessing, sparsifier construction, the inner Cholesky/CG state,
    the κ bound, and the Chebyshev workspace — and {!solve_prepared} then
    answers each request with bit-identical reports to {!solve} while
    performing zero heap allocations per Chebyshev iteration (with the
    [Direct] inner solver; [Iterative] allocates O(1) words per outer
    iteration for the nested CG call). A [prepared] handle holds mutable
    workspaces: concurrent {!solve_prepared} calls on the same handle are
    unsound — callers serialize (the daemon guards each cached handle with
    a mutex). *)

type prepared

val prepare :
  ?eps:float ->
  ?phi:float ->
  ?inner:inner_solver ->
  ?backend:Sparsify.Spectral.backend ->
  ?model:Runtime.Model.t ->
  Graph.t ->
  prepared
(** Same parameters and validation as {!solve}; runs every phase that does
    not depend on the right-hand side. Raises [Invalid_argument] on a
    disconnected graph. *)

val solve_prepared : prepared -> Linalg.Vec.t -> report
(** [solve_prepared p b] is bit-identical to
    [solve ?eps ?phi ?inner ?backend ?model g b] for the arguments [p] was
    prepared with — including [rounds] and [phase_rounds], which replay the
    sparsify and κ rounds [prepare] recorded, so a cached answer is
    indistinguishable from a cold one. *)

val prepared_dim : prepared -> int

val prepared_kappa : prepared -> float

val prepared_sparsifier_edges : prepared -> int

type prepared_cg

val prepare_cg : ?eps:float -> Graph.t -> prepared_cg
(** Workspace-backed counterpart of {!solve_cg_baseline}: one CG workspace
    per graph, reused across right-hand sides. *)

val solve_cg_prepared : prepared_cg -> Linalg.Vec.t -> report
(** Bit-identical to {!solve_cg_baseline} on the graph [prepare_cg] was
    given; zero heap allocations per CG iteration. Same single-handle
    concurrency caveat as {!solve_prepared}. *)

val solve_cg_baseline : ?eps:float -> Graph.t -> Linalg.Vec.t -> report
(** Baseline for experiment E8: plain distributed conjugate gradients
    (each iteration = one matvec round, no sparsifier). Reports rounds the
    same way so the two are directly comparable. *)

val error_in_l_norm : Graph.t -> Linalg.Vec.t -> Linalg.Vec.t -> float
(** [error_in_l_norm g x b]: the Theorem 1.1 error metric
    [‖x − L†b‖_L / ‖L†b‖_L], computed against a dense-oracle [L†b] —
    test/bench instrumentation, not part of the distributed algorithm. *)
