(** Deterministic approximate Fiedler vectors.

    Substitute for the spectral engine inside the Chang–Saranurak expander
    decomposition (DESIGN.md, substitution 2). Forward power iteration on
    [2I − N], where [N = D^{-1/2} L D^{-1/2}] is the normalized Laplacian,
    deflated against its kernel direction [D^{1/2} 1], from a fixed
    starting vector — no randomness, so the whole decomposition stays
    deterministic as the paper requires. *)

val approx : ?iters:int -> Graph.t -> float * Linalg.Vec.t
(** [approx g] returns [(λ₂ estimate, x)] where [x] approximates the Fiedler
    vector of the *normalized* Laplacian, already rescaled by [D^{-1/2}] so
    that {!Conductance.sweep_cut} can consume it directly. [λ₂ ∈ [0, 2]].
    [iters] (default 400) power steps run; the Rayleigh quotient is taken
    once, on the final iterate, and is 0 (so [λ₂ = 2]) when no step moved
    the iterate. [N] is applied edge by edge, with isolated vertices as
    fixed points. Allocates O(n) words per call, none per step. Requires
    [Graph.n g ≥ 2]. *)

val lambda2_exact : Graph.t -> float
(** Exact [λ₂] of the normalized Laplacian via dense eigendecomposition
    (Jacobi iteration); [O(n³)] — a test oracle for {!approx}. *)
