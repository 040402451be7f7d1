(** The run configuration: every [CC_*] environment variable the
    programs read, parsed once into one typed record (DESIGN.md §16).

    The name set is closed. An unknown [CC_*] name or a malformed value
    is an error that names the variable, never a silent default; an
    empty value counts as unset. The process environment is parsed when
    this module initializes, so the first {!get} of a process with a bad
    environment raises {!Invalid}; every binary linking [Clique] calls
    it at startup. Spawned shard workers receive the resolved record
    through {!to_env}, not the parent's raw environment.

    Two values keep their grammar with their owner and are stored raw
    here: [CC_FAULTS] ([Fault.Schedule.of_string]) and [CC_SERVE_POLICY]
    ([Serve.Exec.policy_of_string]). *)

type bench_mode = Full | Reduced

type t = {
  domains : int;
      (** [CC_DOMAINS]: domain-pool width per runtime, ≥ 1 (default 1). *)
  sanitize : bool;
      (** [CC_SANITIZE]: the default of [Runtime.Make.create ?sanitize]
          ([1|true|yes|on] or [0|false|no|off]; default off). *)
  model : Model.t;
      (** [CC_MODEL]: the default of the charged pipelines' [?model]
          ([unicast|clique] or [broadcast|bcast]; default unicast). *)
  shards : int;
      (** [CC_SHARDS]: socket-transport worker count, ≥ 1 (default 1 =
          in-process delivery). *)
  shard_policy : Shard.policy;
      (** [CC_SHARD_POLICY]: [fail|respawn|drain] (default fail). *)
  shard_timeout : float;
      (** [CC_SHARD_TIMEOUT]: seconds bounding every supervised wait,
          > 0 (default 30). *)
  shard_addr : string option;
      (** [CC_SHARD_ADDR]: TCP rendezvous [host:port] (default: Unix
          sockets under the temp directory). *)
  shard_remote : int;
      (** [CC_SHARD_REMOTE]: shard slots reserved for remote workers, ≥ 0
          (default 0). *)
  shard_log : string option;
      (** [CC_SHARD_LOG]: file that supervisor events are appended to. *)
  shard_worker : string option;
      (** [CC_SHARD_WORKER]: the spec a coordinator hands a worker it
          spawns; its presence turns the process into that worker. *)
  faults : string option;  (** [CC_FAULTS]: raw fault-schedule spec. *)
  serve_addr : string;
      (** [CC_SERVE_ADDR]: where [cc_serve] listens (default
          [unix:/tmp/cc-serve.sock]). *)
  serve_jobs : int;  (** [CC_SERVE_JOBS]: worker domains, ≥ 1 (default 2). *)
  serve_cache : int;
      (** [CC_SERVE_CACHE]: artifact-cache capacity, ≥ 1 (default 32). *)
  serve_policy : string option;
      (** [CC_SERVE_POLICY]: raw certification-policy name. *)
  bench_mode : bench_mode;
      (** [CC_BENCH_MODE]: [full] (default) or [reduced] (alias [ci]). *)
  bench_out : string;
      (** [CC_BENCH_OUT]: directory for [BENCH_E*.json] (default ["."]). *)
  force_socket : bool;
      (** No environment name sets this: [true] makes [Clique.Sim] run on
          the socket transport even at [shards = 1], the single-worker
          legs of the differential suite. *)
}

val parse : (string * string) list -> (t, string) result
(** Parse an environment given as [(name, value)] pairs. Names without
    the [CC_] prefix are ignored; unknown [CC_*] names and malformed
    values yield [Error] with a message that starts with the variable's
    name. *)

exception Invalid of string
(** The process environment does not {!parse}; the payload is the
    parse error. *)

val get : unit -> t
(** The active configuration: the {!with_} override if one is running,
    else the process environment as parsed at startup. Raises {!Invalid}
    if that environment is malformed. *)

val with_ : t -> (unit -> 'a) -> 'a
(** [with_ c f] runs [f] with {!get} returning [c], then restores the
    previous configuration — for tests, and for binaries that fold
    command-line flags over the environment. Call it from the main
    domain only. *)

val to_env : t -> (string * string) list
(** The environment that {!parse}s back to the same record: every field
    with an environment name, unset options omitted ([force_socket] is
    dropped). *)

val to_json : t -> Metrics.Json.t
(** {!to_env} as a JSON object — the provenance record echoed into
    [BENCH_E*.json] and the [cc_serve] stats reply. *)
