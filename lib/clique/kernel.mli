(** The two standard runtime instantiations.

    [Runtime.Make] is applied exactly once per kernel here, so every layer
    of the repo shares the same runtime types: {!On_sim} is the congested
    clique ({!Sim} under the ledger), {!On_congest} its CONGEST sibling, and
    {!Sim_programs}/{!Congest_programs} are the generic node programs
    ({!Programs}) instantiated on each.

    The charged layers (sparsifier, solver, IPMs, rounding) talk to the
    clique runtime through the aliases below: [Kernel.clique n] is their
    ledger, and [Kernel.charge rt ~phase r] is the single entry point
    through which all analytic round charges flow. Such a runtime only
    charges, so it never builds a delivery engine ({!Sim.create}): no
    arena, no worker process. A runtime whose programs exchange messages
    (Borůvka, the Cole–Vishkin contraction of the Eulerian orientation)
    comes from {!with_clique}, which closes its socket session when the
    scope ends. *)

module On_sim : Runtime.S with type transport = Sim.t
(** The congested-clique runtime — {!Sim} under the cost ledger. *)

module On_congest : Runtime.S with type transport = Congest.t
(** The CONGEST-model sibling — {!Congest} under the same ledger. *)

module On_bcast : Runtime.S with type transport = Broadcast.t
(** The runtime over the Broadcast Congested Clique kernel
    ({!Broadcast}): one payload per source per round, heard by everyone.
    Its sanitizer enforces the broadcast width rule (DESIGN.md §13). *)

module Sim_programs : Programs.S with type runtime = On_sim.t
(** The generic node programs ({!Programs}) on the clique runtime. *)

module Congest_programs : Programs.S with type runtime = On_congest.t
(** The generic node programs on the CONGEST runtime. *)

module Bcast_programs : Programs.S with type runtime = On_bcast.t
(** The generic node programs on the broadcast kernel — same results as
    on every unicast kernel (the receivers filter the wider inboxes). *)

type t = On_sim.t
(** The clique runtime — the type every charged layer carries. *)

val clique : ?phase:string -> int -> t
(** [clique n] is a fresh runtime over a fresh [n]-node clique. Under
    [CC_SHARDS ≥ 2] its first exchange starts a worker session that only
    the at-exit hook closes; runtimes that exchange should come from
    {!with_clique}. *)

val with_clique : ?phase:string -> int -> (t -> 'a) -> 'a
(** [with_clique n f] runs [f] on a fresh [clique n] and closes the
    clique's socket session, if its first exchange built one, when [f]
    returns or raises (a no-op on the arena kernel). [f]'s runtime must
    not exchange after the scope ends; its ledger stays readable. *)

val congest : ?phase:string -> Graph.t -> On_congest.t
(** [congest g] is a fresh runtime over a fresh CONGEST kernel on [g]. *)

val bcast : ?phase:string -> int -> On_bcast.t
(** [bcast n] is a fresh runtime over a fresh [n]-node broadcast clique. *)

(** Convenience delegates to {!On_sim} (so call sites read
    [Kernel.charge rt ~phase:"ipm" r]): *)

val charge : ?phase:string -> t -> int -> unit
(** {!Runtime.S.charge}: add analytic rounds under a ledger phase. *)

val rounds : t -> int
(** {!Runtime.S.rounds}: total rounds, measured plus charged. *)

val words : t -> int
(** {!Runtime.S.words}: total words sent on the transport. *)

val phases : t -> (string * int) list
(** {!Runtime.S.phases}: the per-phase round breakdown, sorted. *)

val phase_rounds : t -> string -> int
(** {!Runtime.S.phase_rounds}: rounds charged under one phase. *)

val with_phase : t -> string -> (unit -> 'a) -> 'a
(** {!Runtime.S.with_phase}: run a thunk with the ledger phase set. *)

val on_round : t -> (phase:string -> rounds:int -> words:int -> unit) -> unit
(** {!Runtime.S.on_round}: observe every round as it is recorded. *)

val report : t -> string
(** {!Runtime.S.report}: human-readable ledger summary. *)
