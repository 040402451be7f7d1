(** One communication substrate for every layer of the reproduction.

    The congested clique measures complexity in synchronous rounds (§2.1).
    This library defines the {!TRANSPORT} signature a message kernel must
    implement (the clique itself and its CONGEST sibling live in
    [lib/clique]), and the {!Make} functor that turns a transport into a
    {e runtime}: every communication call and every analytic charge flows
    through a single phase-tagged {!Cost.t} ledger, is recorded in a
    {!Trace.t} ring buffer, and is reported to any registered
    [on_round] observers. Node programs written against {!S} run unchanged
    on every kernel and always produce the same per-phase round
    breakdown. *)

module Cost = Cost
module Trace = Trace
module Mailbox = Mailbox
module Sanitize = Sanitize
module Arena = Arena
module Pool = Pool
module Shard = Shard
module Model = Model
module Config = Config

module type TRANSPORT = Transport.S

(** The runtime interface node programs and charged layers are written
    against. *)
module type S = sig
  type transport
  (** The underlying kernel state. *)

  type t

  val kernel : string
  (** The transport's {!Transport.S.name}. *)

  val unicast : bool
  (** The transport's {!Transport.S.unicast} flag: whether per-destination
      distinct payloads are legal in one round. When [false], the
      sanitizer enforces the broadcast width rule
      ({!Sanitize.check_exchange_broadcast}) on every exchange. *)

  val create :
    ?phase:string ->
    ?trace_capacity:int ->
    ?sanitize:bool ->
    ?domains:int ->
    transport ->
    t
  (** A fresh runtime (empty ledger and trace) over an existing transport.
      [phase] (default ["main"]) is the initial ledger tag;
      [trace_capacity] (default 256) bounds the event ring. [sanitize]
      (default [CC_SANITIZE], [Config.t.sanitize]) turns on the dynamic
      model-compliance checks and determinism transcripts of {!Sanitize}.
      [domains] (default [CC_DOMAINS], [Config.t.domains]) is the
      parallelism {!exchange_map} fans per-node steps over —
      results are bit-identical for every value. *)

  val transport : t -> transport
  (** The kernel this runtime wraps (shared, not copied). *)

  val n : t -> int
  (** Number of nodes of the underlying kernel. *)

  val domains : t -> int
  (** The domain-pool width {!exchange_map} uses (≥ 1). *)

  val ledger : t -> Cost.t
  (** The single cost ledger all calls charge into. *)

  val trace : t -> Trace.t
  (** The bounded event ring every call records into. *)

  val sanitized : t -> bool
  (** Whether this runtime runs the dynamic {!Sanitize} checks. *)

  val sanitizer : t -> Sanitize.t option
  (** The sanitizer state (for reading transcript hashes), if enabled. *)

  val rounds : t -> int
  (** Total rounds this runtime has charged (= ledger total). *)

  val words : t -> int
  (** Total words sent through this runtime. *)

  val phases : t -> (string * int) list
  (** Per-phase round totals, sorted by phase name. *)

  val phase_rounds : t -> string -> int
  (** Rounds charged under one phase (0 if never charged). *)

  val current_phase : t -> string
  (** The phase new charges land under. *)

  val set_phase : t -> string -> unit
  (** Switch the current phase permanently (prefer {!with_phase}). *)

  val with_phase : t -> string -> (unit -> 'a) -> 'a
  (** [with_phase t p f] runs [f] with the current phase set to [p],
      restoring the previous phase afterwards (also on exceptions). *)

  val on_round : t -> (phase:string -> rounds:int -> words:int -> unit) -> unit
  (** Register an observer called after every call that moved rounds or
      words (communication and analytic charges alike). *)

  val attach_metrics : t -> Metrics.t -> unit
  (** [attach_metrics t m] registers an {!on_round} observer mirroring the
      ledger into registry [m] live: counters [runtime.rounds],
      [runtime.words], [runtime.events] and [phase.<p>.rounds], plus the
      [runtime.event_rounds] histogram. A no-op (nothing registered) when
      [m] is disabled, so instrumentation costs one boolean test. *)

  val export_metrics : t -> Metrics.t -> unit
  (** [export_metrics t m] snapshots the ledger into [m] after the fact:
      per-phase counters under [ledger.<kernel>.<phase>] (plus [.total])
      and a [ledger.<kernel>.words] gauge. Useful when the runtime was not
      instrumented from creation. *)

  val exchange :
    ?width:int ->
    t ->
    (int * int array) list array ->
    (int * int array) list array
  (** {!Transport.S.exchange}, measured into the ledger under the current
      phase. *)

  val exchange_map :
    ?width:int ->
    t ->
    (int -> (int * int array) list) ->
    (int * int array) list array
  (** [exchange_map t step] is [exchange t [|step 0; ...; step (n-1)|]]
      with the per-node outbox construction fanned over the runtime's
      domain pool ({!domains} fixed contiguous chunks). [step v] must be a
      proper node program step: it may read shared pre-round state but
      must not mutate anything other than node [v]'s own slots. Rounds,
      words, and sanitizer transcripts are bit-identical to the
      sequential run for every domain count. Observes the
      [kernel.domain.imbalance] histogram when metrics are attached. *)

  val route :
    ?width:int ->
    t ->
    (int * int * int array) list ->
    (int * int array) list array
  (** {!Transport.S.route}, measured into the ledger. *)

  val broadcast : ?width:int -> t -> int array array -> int array array
  (** {!Transport.S.broadcast}, measured into the ledger. *)

  val charge : ?phase:string -> t -> int -> unit
  (** [charge ?phase t r] adds [r] analytically-derived rounds under
      [phase] (default: the current phase), advancing the transport's
      counter too so measured and charged totals agree. [r ≥ 0]. *)

  val report : t -> string
  (** Human-readable summary: kernel, totals, per-phase breakdown, and the
      trace's per-phase event-size histogram. *)
end

module Make (T : TRANSPORT) : S with type transport = T.t
(** The functor is applicative: [Make (Sim)] names the same types wherever
    it is applied, so instances can be shared across modules. *)
