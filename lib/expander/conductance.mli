(** Conductance (Definition 3.1) and sweep cuts.

    Volumes use weighted degrees, which coincides with the unweighted
    definition on weight-1 graphs — the case the decomposition pipeline
    actually runs on (weights are handled by binary weight classes in
    Theorem 3.3). *)

val volume : Graph.t -> bool array -> float
(** [volume g inside] is [Σ_{v ∈ S} deg_w(v)]. *)

val cut_weight : Graph.t -> bool array -> float
(** Total weight of edges with exactly one endpoint in the set. *)

val of_cut : Graph.t -> bool array -> float
(** [of_cut g s = w(E(S, S̄)) / min(vol S, vol S̄)]; [infinity] when either
    side is empty or has zero volume. *)

val best_cut : Graph.t -> bool array * float
(** [best_cut g] is a minimum-conductance cut of [g] with its conductance,
    by enumerating every subset that contains vertex 0 and at least one
    other vertex but not all of them (complements cover the rest), keeping
    the first minimum in mask order. Exponential; [1 ≤ n ≤ 20] (raises
    [Invalid_argument] otherwise). With [n ≤ 2] nothing is enumerated and
    the result is [(all false, infinity)]. The decomposition certifies its
    small parts with it. *)

val exact : Graph.t -> float
(** Exact conductance [Φ(G)] by enumerating all cuts — exponential; only for
    [n ≤ 20] (raises [Invalid_argument] beyond). Test oracle. *)

val sweep_cut : Graph.t -> Linalg.Vec.t -> bool array * float
(** [sweep_cut g x] orders vertices by [x] and returns the best of the [n−1]
    prefix cuts together with its conductance — the Cheeger rounding used by
    the deterministic decomposition. *)
