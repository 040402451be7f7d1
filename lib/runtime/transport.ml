(** The [TRANSPORT] signature: what a message kernel must provide so that
    {!Runtime.Make} can drive node programs on it and account for every
    round in one ledger.

    Two instances live in [lib/clique]: [Sim] (the congested clique itself —
    all ordered pairs may talk) and [Congest] (the topology-restricted
    sibling — messages only along graph edges). Both deliver through
    {!Arena} and raise {!Mailbox.Bandwidth_exceeded} when a round would
    carry more than [width] words over one ordered pair. *)

module type S = sig
  type t

  val name : string
  (** Kernel name for reports ("clique", "congest"). *)

  val n : t -> int
  (** Number of nodes. *)

  val default_width : int
  (** Per-ordered-pair word budget used when a call omits [?width]; the
      sanitizer asserts against the same value the kernel enforces. *)

  val unicast : bool
  (** Width rule the kernel enforces: [true] when each ordered pair gets
      its own [width]-word budget (the standard clique / CONGEST rule),
      [false] when each {e source} gets one payload per round that every
      node receives (the Broadcast Congested Clique rule,
      arXiv:2205.12059). The runtime picks the matching sanitizer check
      ({!Sanitize.check_exchange} vs
      {!Sanitize.check_exchange_broadcast}) off this flag. *)

  val rounds : t -> int
  (** Rounds elapsed on this transport so far (measured + charged). *)

  val words_sent : t -> int
  (** Total words ever sent (message-complexity measure). *)

  val recovery_rounds : t -> int
  (** Of {!rounds}, how many were consumed replaying operations after a
      worker death (DESIGN.md §14). Always 0 on in-process kernels. *)

  val exchange :
    ?width:int ->
    t ->
    (int * int array) list array ->
    (int * int array) list array
  (** One synchronous round: [outboxes.(v)] is node [v]'s [(dst, payload)]
      list; the result is the inboxes, [(src, payload)] per node. At most
      [width] words (default {!default_width}) per ordered pair. *)

  val route :
    ?width:int ->
    t ->
    (int * int * int array) list ->
    (int * int array) list array
  (** Lenzen routing of an arbitrary [(src, dst, payload)] multiset;
      [⌈load / (n·width)⌉] batches of {!Cost.lenzen_routing_rounds} rounds
      where [load] is the max words any node sends or receives. *)

  val broadcast : ?width:int -> t -> int array array -> int array array
  (** Every node sends [values.(v)] (at most [width] words) to all others;
      returns the shared global view. One round. *)

  val charge : t -> int -> unit
  (** Advance the round counter without communication (a node-local stand-in
      for a subroutine whose rounds are charged analytically). *)

  val stats : t -> (string * int) list
  (** Kernel-internal counters (full metric names, e.g.
      [kernel.arena.resets]), exported into a registry by
      [Runtime.S.export_metrics]. May be empty. *)
end
