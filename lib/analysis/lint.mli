(** Findings, path classification, and the per-reference rules.

    Charged layers ([lib/sparsify], [lib/laplacian], [lib/flow],
    [lib/euler], [lib/rounding], [lib/expander]) must be deterministic and
    free of wall-clock state (L1, L2) and leave recovery to the driver
    (L7); transports may only be driven through the [Runtime] ledger
    outside [lib/runtime], [lib/clique] and the harness trees (L3);
    [Obj.magic] (L4) and catch-all exception handlers (L5) are forbidden
    everywhere; every [lib] module ships an [.mli] (L6); raw socket
    syscalls are confined to [lib/wire] and the socket transport (L9);
    [Shard_down] is named only by the supervisor layer (L13). Rules match
    references in the parse tree ({!Ast}), never text, so comments and
    string literals are immune. {!Semantic.analyze} runs these alongside
    the call-graph rules. *)

type finding = { file : string; line : int; rule : Rule.id; message : string }
(** One lint hit, pointing at the offending source line. *)

val compare_findings : finding -> finding -> int
(** Orders by file, then line, then rule id. *)

val reference_findings :
  file:string -> expand:(string list -> string list) -> Ast.tree -> finding list
(** L1-L5, L7, L9 and L13 over one parsed file. [file] decides which
    rules apply and need not exist on disk. Every longident is matched
    (see {!Ast.reference_iterator}) after [expand] rewrites its module
    path — pass {!Callgraph.expand_aliases} so [module S = Clique.Sim]
    makes [S.exchange] a transport call. L5 flags each unguarded [_] case
    of a [try ... with] and each unguarded [| exception _] arm. Unsorted,
    one finding per match; {!Semantic.analyze} sorts, keeps one finding per
    line and rule, and applies suppression markers. *)

val missing_mlis : string list -> finding list
(** L6 over a path set: every [lib/**.ml] whose sibling [.mli] is neither
    in the list nor on disk yields a finding at line 1. *)

val under : string -> string -> bool
(** [under dir path]: whether [path] lies in [lib/dir]. *)

val is_lib_module : string -> bool
(** Whether a path is a module of some [lib/<layer>/]. *)

val is_charged : string -> bool
(** Whether a path lies in a charged (round-priced) layer. *)

val transport_privileged : string -> bool
(** Whether a path may touch [Sim]/[Congest] directly: [lib/runtime],
    [lib/clique], and the harness trees ([test/], [bench/]) that exercise
    transport primitives by design. *)

val wire_privileged : string -> bool
(** Whether a path may issue raw socket syscalls ([Unix.socket],
    [Unix.connect], [Unix.read], [Unix.write], ...): [lib/wire/**] and
    [lib/clique/socket.ml] only. Rule L9 flags them everywhere else. *)

val socket_syscalls : string list
(** The [Unix] functions L9 (and L10's impure-sink set) treat as raw
    socket I/O. *)
