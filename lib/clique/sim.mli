(** Synchronous message-passing kernel — the congested clique itself (§2.1).

    [n] nodes, identified [0..n-1], proceed in synchronous rounds. In one
    round every ordered pair of nodes may exchange one message of
    [O(log n)] bits, modeled as at most [width] machine words per ordered
    pair ([width = 2] by default: a tag word plus a value word). Exceeding
    the budget raises {!Bandwidth_exceeded} — algorithms cannot cheat.

    This module is a {!Runtime.TRANSPORT} instance (delivery and bandwidth
    checks live in {!Runtime.Mailbox}); node programs run on it through
    [Runtime.Make (Sim)] — see {!Kernel}. The genuinely distributed
    subroutines (Borůvka, the Eulerian-orientation coloring) have their
    round counts *measured* here, not charged. *)

type t
(** A clique session: delivery state, round counter, word counter. *)

type kernel = Arena | Shard
(** Which delivery engine [exchange] runs on. [Arena] (the default) is the
    in-process reusable-buffer counting-sort kernel of {!Runtime.Arena};
    [Shard] is the multi-process socket transport of {!Socket}, whose
    [CC_SHARDS] workers start at the first [exchange] or [broadcast].
    Both are bit-identical in rounds, words, inbox contents, errors, and
    sanitizer transcripts — the differential suite [test_kernel_equiv]
    holds them to that. *)

exception
  Bandwidth_exceeded of {
    src : int;
    dst : int;
    words : int;
    width : int;
    phase : string;
  }
(** The same exception as {!Runtime.Mailbox.Bandwidth_exceeded} (rebound),
    so either name catches it. *)

val name : string
(** ["clique"]. *)

val create : ?kernel:kernel -> int -> t
(** [create n] makes a clique of [n] nodes running on [kernel]. The
    default is [Shard] when the {!Runtime.Config} asks for more than one
    shard ([CC_SHARDS]) or sets [force_socket], else [Arena].

    [create] records [n] and the kernel and builds nothing else. The
    engine is built by the first call that must deliver through it:
    {!exchange} on either kernel, or {!broadcast} on [Shard]. The arena is
    sized then and reused every later round; the socket session is
    seeded with the rounds charged so far, so its round numbering
    ([Shard_down.round], the supervisor log) is as if it had existed from
    [create]. {!route} and {!charge} are coordinator-side counters on both
    kernels, so a session that only charges never allocates an [n²] width
    table and never forks a worker. *)

val n : t -> int

val rounds : t -> int
(** Rounds elapsed so far. *)

val words_sent : t -> int
(** Total words ever sent (message-complexity measure). *)

val recovery_rounds : t -> int
(** Rounds spent replaying operations after a worker death — nonzero only
    on the sharded engine (delegates to [Socket.recovery_rounds]). *)

val default_width : int
(** 2 — a tag word plus a value word per ordered pair per round. *)

val unicast : bool
(** [true] — every ordered pair gets its own [width]-word budget. *)

val exchange :
  ?width:int -> t -> (int * int array) list array -> (int * int array) list array
(** [exchange t outboxes] performs one synchronous round. [outboxes.(v)] is
    node [v]'s list of [(dst, payload)] messages; the result [inboxes.(v)] is
    the list of [(src, payload)] received by [v], in unspecified order.
    Raises {!Bandwidth_exceeded} if some ordered pair carries more than
    [width] words (default 2). Increments {!rounds} by 1. *)

val route :
  ?width:int -> t -> (int * int * int array) list -> (int * int array) list array
(** [route t msgs] delivers an arbitrary multiset of [(src, dst, payload)]
    messages using the Lenzen routing subroutine. One batch moves up to
    [n·width] words per node, so the round counter advances by
    [⌈load / (n·width)⌉ · Cost.lenzen_routing_rounds] where [load] is the
    maximum number of words any single node sends or receives (a
    within-bound batch costs exactly 16 rounds, like the paper's step 2b).
    A single payload longer than [width] words does not fit any message and
    raises {!Bandwidth_exceeded}; out-of-range endpoints raise
    [Invalid_argument]. *)

val broadcast : ?width:int -> t -> int array array -> int array array
(** [broadcast t values] has every node send [values.(v)] (at most [width]
    words, default 2 — enforced, raising {!Bandwidth_exceeded}) to all
    others; returns the array of all values (the global view every node now
    shares). One round. *)

val charge : t -> int -> unit
(** Advance the round counter without communication (used when a node-local
    computation stands for a subroutine whose rounds are charged, e.g. the
    final O(1)-size cycle leader election). *)

val close : t -> unit
(** Close the socket session if one was built; a no-op otherwise.
    {!Kernel.with_clique} calls it when its scope ends. *)

val stats : t -> (string * int) list
(** The arena's [kernel.arena.*] counters ({!Runtime.Arena.stats}), or the
    socket transport's [wire.*]/[shard.*] counters on the [Shard]
    kernel. An engine not yet built reports no counters ([[]]), so
    [Runtime.S.export_metrics] of a ledger-only runtime carries only the
    ledger keys and [kernel.domains]. *)
