(** Structural FNV-1a fingerprints and canonical cache keys.

    A fingerprint folds the full structure (sizes, endpoints, weight/cap
    bits) through {!Wire.Fnv}, so equal inputs — however they were
    specified on the wire — get the same 16-hex-digit spelling, across
    processes and runs. Replies carry it; the daemon's cache does not key
    on it, because FNV-1a collisions can be built on purpose and a
    colliding graph would be served another graph's artifact under the
    default [none] policy. The cache keys on {!graph_key} /
    {!digraph_key}, the exact fields the fingerprint folds. *)

val graph : Graph.t -> int64

val digraph : Digraph.t -> int64

val vec : int64 -> Linalg.Vec.t -> int64
(** Fold a vector into an existing fingerprint. *)

val to_hex : int64 -> string
(** 16 lowercase hex digits — the wire spelling. *)

val graph_key : Graph.t -> string
(** The canonical input [graph] folds — [n], [m], every edge's endpoints
    and weight bits in edge order — as fixed-width bytes. Two keys are
    equal exactly when those inputs are. *)

val digraph_key : s:int -> t:int -> Digraph.t -> string
(** The same for a flow instance: the terminals, then the fields
    [digraph] folds ([n], [m], every arc's endpoints, capacity, cost). *)
