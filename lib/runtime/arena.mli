(** The arena message kernel: a reusable per-round delivery buffer.

    One [Arena.t] is sized once per simulation — at [Congest.create], or
    at a clique's first exchange — and reused every round: the
    flat message table (parallel [src]/[dst]/payload-reference arrays), the
    counting-sort scratch, and the per-link width table are {e reset}, not
    reallocated, on each {!deliver}. Delivery is a counting sort into
    contiguous per-destination slices, so building the inboxes is two
    linear passes with no hashing and no per-message key allocation.

    Per-link width accounting uses a dense [n*n] int table indexed by
    [src * n + dst] and invalidated by epoch stamps (so a round reset is
    O(1), not O(n²)); above [n = 1024] the table would be too large and
    the arena falls back to an int-keyed [Hashtbl].

    This is the only in-process delivery kernel. The differential suite
    ([test_kernel_equiv]) holds it, on both width tables, to a naive
    list-and-[Hashtbl] reference walk: same validation order, same error
    payloads, same inbox contents in the same list order. Sender payload
    arrays are shared with receivers, never copied. *)

type t
(** A delivery arena for a fixed number of nodes. *)

val create : ?dense_threshold:int -> n:int -> unit -> t
(** [create ~n ()] sizes an arena for [n] nodes. The dense width table is
    used iff [n <= 1024]: it is two [n*n] int arrays (word counts and epoch
    stamps), ≈16 MB at [n = 1024], growing quadratically past that. Beyond
    the cutoff the per-link accounting falls back to an int-keyed
    [Hashtbl] whose memory scales with traffic, not [n²].
    [?dense_threshold] replaces the cutoff; it exists so tests can force
    the [Hashtbl] fallback at small [n]. *)

val n : t -> int
(** The node count the arena was sized for. *)

val uses_dense_table : t -> bool
(** Whether per-link widths are accounted in the dense [n*n] table. *)

val deliver :
  t ->
  width:int ->
  ?check:(src:int -> dst:int -> unit) ->
  (int * int array) list array ->
  (int * int array) list array * int
(** [deliver t ~width outboxes] performs one round's delivery over this
    arena's [n]. It walks the messages in arrival order (source
    ascending, then outbox order): it validates each destination
    ([Invalid_argument] naming the source, phase and width), runs [check]
    on every (src, dst) — the hook where [Congest] rejects non-edges — and
    enforces that the words accumulated over each ordered pair stay ≤
    [width] (raising {!Mailbox.Bandwidth_exceeded}). It returns
    [(inboxes, total_words)]; [inboxes.(d)] lists [(src, payload)] in
    reverse arrival order. *)

val stats : t -> (string * int) list
(** Cumulative [kernel.arena.*] counters, sorted by name: [resets] (calls
    to {!deliver}, counted before validation, so rounds that raise count
    too), [grows] (capacity doublings), [slot_words_reused] (message
    slots served from already-allocated capacity), [dense] (1 iff the
    dense width table is active). Exported into a {!Metrics.t} registry by
    [Runtime.S.export_metrics] via [Transport.S.stats]. *)
