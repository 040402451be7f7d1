(** Thread-safe LRU artifact cache keyed by canonical-input strings.

    The daemon keeps one of these per process: entries hold prepared
    solver handles, sparsifiers, and memoized pipeline reports, keyed by
    the exact input ({!Fingerprint.graph_key}, {!Fingerprint.digraph_key})
    behind a per-kind prefix. Each entry carries its own mutex serializing
    use of the artifact (prepared handles own mutable workspaces), so
    same-key jobs take turns while different-key jobs run concurrently;
    the table lock itself is never held across a build or a solve. *)

type 'v t

val create : cap:int -> 'v t
(** [cap] (clamped to ≥ 1) bounds the entry count; inserting into a full
    cache evicts the least-recently-used entry (a worker still holding an
    evicted entry finishes normally on its private reference). *)

val use : 'v t -> string -> build:(unit -> 'v) -> ('v -> 'a) -> 'a * bool
(** [use t key ~build f] looks up [key] — counting a hit iff the entry
    already existed — locks the entry, runs [build] if it has no value yet
    (exactly one caller ever builds a given entry), applies [f] to the
    value and returns [(f value, hit)]. Exceptions from [build] or [f]
    release the entry lock and propagate ([build]'s failure leaves the
    entry empty for the next caller). *)

type stats = { entries : int; hits : int; misses : int; evictions : int }

val stats : 'v t -> stats
