(** The multi-process clique: a {!Runtime.TRANSPORT} instance whose
    delivery runs on [CC_SHARDS] worker processes connected by framed
    sockets (DESIGN.md §11), under supervision (§14).

    Node IDs are partitioned into contiguous shard ranges
    ([Runtime.Shard]); each worker delivers its range on a private
    [Runtime.Arena], encoding its reply over its own domain pool
    ([CC_DOMAINS] applies per shard). Per round the coordinator writes one
    frame per worker, each worker writes at most one frame per ordered
    (shard, shard) pair that actually carries cross traffic — shard-level
    Lenzen batching — and replies once. Links are Unix-domain socket
    pairs by default, TCP when [CC_SHARD_ADDR=host:port] (or [?addr]) is
    set; with a TCP rendezvous, [CC_SHARD_REMOTE=k] reserves the last [k]
    shard slots for externally-launched workers ([bin/cc_worker], which
    may run on any host that can reach the coordinator).

    Rounds are bit-identical to the in-process kernels: same inbox
    contents and order, same errors ({!Bandwidth_exceeded} with the same
    (src, dst, words, width, phase) fields even when detected inside a
    worker), same sanitizer transcripts.

    {2 Supervision}

    Every blocking wait is bounded by [CC_SHARD_TIMEOUT] (seconds, default
    30) and every frame carries the session {!epoch}. A worker death —
    EOF, a timeout, or a survivor's report of a dead mesh peer — is
    handled per [CC_SHARD_POLICY] ([?policy]):

    - [Fail] (default): raise [Runtime.Shard.Shard_down] naming the shard
      and round, exactly the pre-supervision behaviour.
    - [Respawn]: replace the dead worker (up to 3 times, exponential
      backoff from [?backoff] seconds), bump the
      epoch, rebuild the mesh, and replay the interrupted operation from
      its retained input — output bit-identical to an undisturbed run.
    - [Drain]: mark the shard dead, merge its node range into a surviving
      neighbour (epoch-versioned [Runtime.Shard.Partition]), and continue
      degraded on the remaining workers.

    Each aborted-and-replayed attempt is charged one round to
    {!recovery_rounds}; [Runtime.Make] routes that delta to the
    ["recovery"] ledger phase, so resilience cost is a visible line item.
    Frames from a dead incarnation carry a stale epoch and are skipped on
    receipt. Bootstrap itself is deadline-bounded too: a worker that dies
    — or a client that connects but never completes the hello — yields a
    structured [Shard_down] with [round = 0], never a hang. *)

type t
(** A live sharded session: coordinator state, links, worker processes,
    and the epoch-versioned live partition. *)

exception
  Bandwidth_exceeded of {
    src : int;
    dst : int;
    words : int;
    width : int;
    phase : string;
  }
(** [Runtime.Mailbox.Bandwidth_exceeded], rebound. *)

val name : string
(** ["clique+shard"]. *)

val create :
  ?shards:int ->
  ?addr:string ->
  ?remote:int ->
  ?policy:Runtime.Shard.policy ->
  ?timeout:float ->
  ?backoff:float ->
  ?log:string ->
  int ->
  t
(** [create n] spawns the worker family by re-executing the current
    binary ([Unix.fork] is unavailable once any domain ever ran; the
    [CC_SHARD_WORKER] entry of the worker's configuration diverts the
    re-exec into the worker loop before the program's own entry point),
    then wires every link through a socket rendezvous: workers dial the coordinator's
    listener, receive the epoch-stamped live-partition config, build the
    full worker mesh, and confirm ready before the session goes live —
    the same config/ready round that recovery replays later.

    [shards], [addr], [remote], [policy], [timeout] and [log] default to
    the {!Runtime.Config} fields [shards], [shard_addr], [shard_remote],
    [shard_policy], [shard_timeout] and [shard_log]. [shards] is clamped
    to [n]. An absent [addr] means Unix-domain sockets under the temp
    directory. [remote] reserves the last [remote] shard slots for
    external workers joining through the TCP rendezvous — it requires
    [addr], and bootstrap waits for them like any other worker, bounded
    by [timeout]. [backoff] (default 0.2 s) is the first respawn pause;
    attempt [i] waits [backoff · 2^(i-1)]. Every bootstrap failure is a
    structured [Runtime.Shard.Shard_down] with [round = 0]. *)

val close : t -> unit
(** Send shutdown frames, close links, reap the worker processes.
    Idempotent; registered sessions are closed automatically at exit. *)

val shutdown_all : unit -> unit
(** {!close} every live session (the test-suite and at-exit hook). *)

val live_sessions : unit -> int
(** How many sessions are registered — built and not yet closed, a
    session that went down included. *)

val shards : t -> int
(** Worker-slot count of this session (dead slots included). *)

val pids : t -> int list
(** Worker process IDs in shard order; [-1] for remote or reaped slots —
    the kill-matrix tests SIGKILL one to exercise the supervisor. *)

val n : t -> int
(** Number of clique nodes in the session. *)

val rounds : t -> int
(** Rounds elapsed so far (coordinator view), replays included. *)

val words_sent : t -> int
(** Total words ever sent, identical to the in-process kernels (an
    aborted attempt's words are never counted — only the successful
    replay's). *)

val recovery_rounds : t -> int
(** Of {!rounds}, how many were aborted by a worker death and replayed —
    the delta [Runtime.Make] charges to the ["recovery"] phase. *)

val epoch : t -> int
(** Current session epoch: 1 at bootstrap, bumped by every recovery
    event. Frames stamped with an older epoch are ignored on receipt. *)

val live_workers : t -> int
(** How many shard slots are currently alive (< {!shards} after drains). *)

val policy : t -> Runtime.Shard.policy
(** The supervision policy this session runs under. *)

val heartbeat : t -> unit
(** Probe every live worker now and run recovery for any that fails to
    ack within the session timeout — for long idle periods, between
    operations. Heartbeat-triggered recovery charges no round (there was
    no operation to replay). *)

val default_width : int
(** 2, as on every clique kernel. *)

val unicast : bool
(** [true] — sharding changes the delivery engine, not the width rule. *)

val exchange :
  ?width:int -> t -> (int * int array) list array -> (int * int array) list array
(** One synchronous round over the workers; bit-identical inboxes to
    {!Sim.exchange} (the differential suite's core claim), including
    across a mid-round worker death recovered under [Respawn]/[Drain]. *)

val route :
  ?width:int -> t -> (int * int * int array) list -> (int * int array) list array
(** Lenzen routing stays a coordinator-side analytic path (identical cost
    model on every kernel; no charged workload drives it through the
    message stream). *)

val broadcast : ?width:int -> t -> int array array -> int array array
(** One-to-all broadcast: each worker width-checks and echoes its node
    range, the coordinator assembles the common view. *)

val charge : t -> int -> unit
(** Advance the round counter analytically (no delivery). *)

val stats : t -> (string * int) list
(** [wire.frames], [wire.bytes_sent], [wire.bytes_recv] (coordinator
    traffic plus worker-reported mesh traffic), [shard.crossings] (count
    of cross-shard messages), [shard.shards], and the supervision
    counters: [shard.live], [shard.epoch], [shard.deaths],
    [shard.respawn], [shard.drain], [shard.heartbeat.sent] / [.acked] /
    [.missed], [shard.recovery_rounds]. *)

val remote_worker : string -> unit
(** Run this process as a remote worker: dial the coordinator at the
    given address ([host:port], or explicit [tcp:]/[unix:]), join the
    hello rendezvous with a slot-assignment request, serve rounds until
    shutdown, then [Unix._exit]. Never returns. [bin/cc_worker] is the
    launcher. *)
