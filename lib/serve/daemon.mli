(** The [cc_serve] batched-solve daemon (DESIGN.md §15).

    A listener domain owns all sockets — it accepts clients, reads
    {!Job.frame_job} frames, answers [Stats]/[Shutdown] inline, and
    enqueues everything else; [jobs] worker domains pop jobs, execute
    them through {!Exec} (shared artifact {!Cache} + [CC_SERVE_POLICY]
    certification), and reply on the requesting client's link. *)

type config = {
  addr : string;
      (** ["unix:PATH"] for a Unix-domain socket, otherwise ["host:port"]
          (TCP port 0 picks an ephemeral port — read it back from
          {!addr}) *)
  jobs : int;  (** worker domains *)
  cache_cap : int;  (** LRU artifact-cache capacity (entries) *)
  policy : Exec.policy;
  max_bytes : int;  (** largest accepted request payload *)
}

type t

val start : config -> t
(** Bind, spawn the worker and listener domains, and return immediately.
    Raises [Unix.Unix_error] if the address cannot be bound. *)

val addr : t -> string
(** The actual address — equal to [config.addr] except that a TCP
    port 0 request is resolved to the port the kernel picked. *)

val stop : t -> unit
(** Request shutdown: stop accepting, let workers drain the queue, then
    exit. Idempotent; also triggered by a [Shutdown] job. *)

val wait : t -> unit
(** Join the listener and worker domains (blocks until {!stop} or a
    [Shutdown] job lands), then close all sockets and remove the
    Unix-domain socket file. *)
