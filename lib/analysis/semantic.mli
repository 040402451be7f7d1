(** The lint pass: every rule of {!Rule.all}, over one parse of each file.

    Every [.ml] and [.mli] is parsed once with the compiler's own frontend
    ({!Ast}). Each tree is walked for the per-reference rules of {!Lint}
    (L1-L5, L7, L9, L13); the implementations also feed a
    module-qualified call graph ({!Callgraph}) and interprocedural
    reachability ({!Dataflow}) for the rules below, and {!Hotpath} (L12).
    {!analyze_paths} adds the on-disk interface check L6.

    - {b L10 — transitive model purity.} An impure primitive ([Random.*],
      [Unix.time]/[Unix.gettimeofday], [Sys.time], [Domain.*], raw socket
      syscalls) reachable through any call chain from a function defined
      in a charged layer is a violation even when the primitive lives
      three helpers away in [lib/core]. Traversal does not descend into
      the sanctioned infrastructure layers ([lib/runtime], [lib/clique],
      [lib/wire], [lib/fault], [lib/metrics]) — calling the metered
      runtime is the model, not a violation. The finding prints the chain
      hop by hop.

    - {b L11 — domain-race detector.} Top-level mutable state (ref cells,
      global [Hashtbl]/[Array]/[Bytes]/array-literal values) written from
      the domain-fanned region — functions in files that orchestrate
      [Domain]/[Pool] plus everything reachable from closures passed to
      [Pool.run]/[Domain.spawn] — is flagged unless the enclosing
      function uses [Mutex.lock]/[Mutex.protect], the state is managed
      through [Atomic], or the line carries an allow marker. Scoped to
      [lib/]: harness globals in tests are out of model.

    - {b L12 — hot-path allocation} (see {!Hotpath}).

    Every finding except L6 honors the per-line [(* cc_lint: allow Lk *)]
    markers. *)

type result = {
  findings : Lint.finding list;  (** sorted, suppressions applied *)
  errors : string list;
      (** files that failed to parse, as [file:line message] strings; they
          are excluded from the graph rather than aborting the run *)
  graph : Callgraph.t;  (** for [--graph] dumps and tests *)
}

val analyze : (string * string) list -> result
(** [analyze sources] over [(file, contents)] pairs: every rule except
    L6. Paths decide layer scoping and need not exist on disk; a file that
    fails to parse is reported in [errors] and skipped. *)

val analyze_paths : string list -> result
(** [analyze] over every [.ml]/[.mli] under the given roots
    (see {!Walk.collect}), plus L6 ({!Lint.missing_mlis}) over the
    collected files. Raises [Invalid_argument] on a root that is missing
    or is neither a directory nor a source file. *)

val traversal_stops : string -> bool
(** Whether L10 reachability refuses to descend into functions of this
    file: the transport/wire-privileged layers plus [lib/fault] and
    [lib/metrics], whose primitive use is governed by their own rules. *)
