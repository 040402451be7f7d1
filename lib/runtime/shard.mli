(** Shard partitioning and order-preserving reassembly (DESIGN.md §11).

    Node IDs are split across [CC_SHARDS] contiguous ranges (the same
    fixed partition as [Pool.chunk_bounds]). This module holds every
    order-sensitive piece of multi-process delivery — and none of the
    I/O, which lives in [Clique.Socket] on top of [Wire]:

    every message is tagged with its {e global arrival index} [gidx], the
    position the in-process kernels would process it at (source ascending,
    outbox order). Workers re-sort inbound traffic by [gidx] before
    delivering on a local arena, and the coordinator resolves competing
    errors by minimal [gidx] — which together make sharded rounds
    bit-identical to single-process rounds: same inbox contents and order,
    same error at the same message. *)

(** What the socket supervisor does when a worker dies mid-session
    (DESIGN.md §14): [Fail] propagates {!Shard_down} (the pre-supervision
    behaviour), [Respawn] replaces the worker and replays the interrupted
    operation, [Drain] hands the dead shard's node range to survivors and
    continues degraded. *)
type policy = Fail | Respawn | Drain

val policy_of_string : string -> policy option
(** Case-insensitive ["fail"]/["respawn"]/["drain"]. *)

val policy_to_string : policy -> string

exception Shard_down of { shard : int; round : int; during : string }
(** A worker process died or its socket reached EOF mid-operation and the
    active policy could not (or, under [Fail], would not) recover. Raised
    by the socket transport (never a hang), naming the shard and the round
    it went down in.

    Layering rule (cc_lint L13): only the supervisor layer —
    [lib/clique/socket.ml] and [lib/fault/] — may catch this exception.
    Charged algorithm layers must let it propagate, otherwise a dead
    worker could be silently papered over without certification. *)

val bounds : shards:int -> n:int -> int -> int * int
(** [bounds ~shards ~n s] is shard [s]'s half-open node range — the fixed
    partition [Pool.chunk_bounds ~size:shards ~n s].

    Edge cases, pinned by the drain reassignment logic: ranges are
    monotone and concatenate to [[0, n)] for {e every} [shards >= 1],
    including [n = 0] (all ranges empty) and [n < shards] (exactly [n]
    singleton ranges, the rest empty); a shard [s] with
    [s * n mod shards = 0] starts exactly at [s * n / shards]. *)

val owners : shards:int -> n:int -> int array
(** [owners.(v)] is the shard owning node [v]. Length [n]; the empty
    array when [n = 0]. Every entry is a shard with a non-empty range, so
    when [n < shards] exactly [n] distinct shards appear (ascending, one
    singleton each — which [n] is [Pool.chunk_bounds]'s business). *)

(** Epoch-versioned live partition — the coordinator's view of which
    shards are alive and which node range each one currently owns. Epoch
    starts at 1 and is bumped by every supervision event; receivers use
    it to reject late frames from dead incarnations. *)
module Partition : sig
  type t

  val create : shards:int -> n:int -> t
  (** All shards alive, ranges = {!bounds}, epoch 1. *)

  val shards : t -> int

  val n : t -> int

  val epoch : t -> int

  val alive : t -> int -> bool

  val bounds : t -> int -> int * int
  (** Shard [s]'s current half-open range (empty once drained). *)

  val live : t -> int
  (** Count of live shards. *)

  val live_list : t -> int list
  (** Live shard ids, ascending. *)

  val owners : t -> int array
  (** [owners.(v)] over the live ranges. Equal to
      [owners ~shards ~n] while every shard is alive. *)

  val bump : t -> t
  (** Epoch + 1, everything else unchanged (used by respawn, which
      restores the same ranges under a new incarnation). *)

  val drain : t -> int -> t
  (** Mark a shard dead and merge its range into the nearest live
      predecessor (extending upward), or the nearest live successor when
      no live shard precedes it. Live ranges stay contiguous and still
      concatenate to [[0, n)]; epoch is bumped. Raises
      [Invalid_argument] if the shard is already dead or is the last one
      alive. *)
end

type msg = { gidx : int; src : int; dst : int; pay : int array }

type split = {
  by_src_shard : msg list array;
      (** shard [s]'s sources' messages, gidx-ascending. *)
  expect : bool array array;
      (** [expect.(d).(s)]: worker [d] should await a peer batch from [s]. *)
  words : int;  (** total payload words (counted on success). *)
  crossings : int;  (** messages whose src and dst live on different shards. *)
  messages : int;
  range_error : (int * string) option;
      (** first out-of-range destination: its gidx and the exact
          [Invalid_argument] message the in-process kernels raise. The
          walk stops recording there. *)
}

val split_exchange :
  owner:int array ->
  shards:int ->
  n:int ->
  width:int ->
  (int * int array) list array ->
  split
(** Coordinator-side split of one round's outboxes by source shard.
    Raises [Invalid_argument] on an outbox array length mismatch (same
    message as [Arena.deliver]). *)

val partition_by_dst : owner:int array -> shards:int -> msg list -> msg list array
(** Worker-side regrouping of its own sources' messages by destination
    shard, gidx order preserved within each group. *)

val merge_inbound : msg list list -> msg list
(** Merge gidx-ascending lists into one gidx-ascending stream. *)

type overflow = { gidx : int; src : int; dst : int; words : int; width : int }

val first_overflow : n:int -> width:int -> msg list -> overflow option
(** First per-ordered-pair width overflow of a gidx-ascending stream —
    complete for the pairs this worker owns, since all messages of a pair
    land on the destination's shard. *)

type delivery =
  | Inboxes of (int * int array) list array
      (** per destination in [lo, hi), in the arena's inbox order. *)
  | Overflow of overflow

val deliver_local :
  arena:Arena.t ->
  n:int ->
  width:int ->
  lo:int ->
  hi:int ->
  msg list ->
  delivery
(** Deliver a worker's gidx-ascending inbound stream on its local arena
    and slice out destinations [lo, hi). Bit-identical to the slices of a
    single-process delivery of the full round. *)
