(** Deterministic, seeded fault schedules.

    A schedule is a seed plus a list of independently rated {!rule}s, each
    naming a fault {!kind} and optionally scoped to one runtime phase
    and/or a window of transport rounds. Whether a rule fires on a given
    message is a pure function of the seed and the message's coordinates
    (round, operation, endpoints, index) through a SplitMix64-style bit
    mixer — no PRNG stream, no wall clock, no [Random] — so a replay of
    the same program under the same schedule injects bit-identical faults
    regardless of evaluation order. *)

type kind =
  | Drop  (** the message silently disappears *)
  | Corrupt  (** one payload word is XORed with a nonzero mask *)
  | Truncate  (** the payload loses its trailing words *)
  | Stall  (** the source node sends nothing this transport call *)
  | Crash  (** the source node sends nothing ever again (crash-stop) *)

val kind_name : kind -> string
(** ["drop"], ["corrupt"], ["truncate"], ["stall"], ["crash"]. *)

type rule = {
  kind : kind;
  rate : float;  (** firing probability per message (per node for
                     stall/crash), in [0,1] *)
  phase : string option;  (** only fire under this runtime phase *)
  first : int;  (** window start, in transport rounds at call entry *)
  last : int;  (** window end, inclusive; [max_int] = unbounded *)
}

type t

val empty : t
(** No rules: a faulty transport under [empty] is an exact passthrough. *)

val is_empty : t -> bool

val rule : ?phase:string -> ?rounds:int * int -> kind -> float -> rule
(** [rule ?phase ?rounds kind rate]. Raises [Invalid_argument] when [rate]
    leaves [0,1] or the window is malformed. *)

val create : ?seed:int -> rule list -> t
(** [create ~seed rules]; [seed] defaults to 1. *)

val seed : t -> int

val rules : t -> rule list
(** The parsed rules, in schedule order. *)

val applies : rule -> phase:string -> round:int -> bool
(** Whether the rule's phase and round-window scope admit this message. *)

val draw : t -> int list -> float
(** [draw t coords] is a uniform float in [0,1) determined entirely by the
    seed and [coords]; injectors compare it against a rule's [rate]. *)

val bits : t -> int list -> int
(** A non-negative pseudo-random integer from the same keyed mixer, for
    corruption masks and truncation lengths. *)

val of_string : string -> (t, string) result
(** Parse a schedule spec:
    [seed=N;kind:rate\[@phase=p\]\[@rounds=a-b\];...] — e.g.
    ["seed=7;drop:0.25;corrupt:0.1@phase=gather;stall:0.05@rounds=4-32"].
    An omitted seed defaults to 1; [rounds=a-] leaves the window open. *)

val of_env : unit -> t option
(** The schedule in [CC_FAULTS] ([Runtime.Config.t.faults]), if set.
    Raises [Invalid_argument] naming [CC_FAULTS] on a malformed spec (a
    chaos run must never silently fall back to faults-off). *)

val to_string : t -> string
(** Render back to the {!of_string} grammar. *)
