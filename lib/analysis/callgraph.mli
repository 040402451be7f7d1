(** Module-qualified call graph over a set of parsed implementations.

    Every structure-level [let]-bound value (at any module depth, including
    functor bodies) becomes a node named [Unit.Sub.name], where [Unit] is
    the capitalized compilation-unit name of its file. Value references in
    a node's body (including inside nested [let]s — local shadowing is not
    modeled) become edges when they resolve to a known node, and are kept
    as raw module paths otherwise so sink predicates can match external
    primitives ([Random.int], [Unix.gettimeofday], [Domain.spawn]).

    Resolution is syntactic (DESIGN.md §12): bare names resolve within the
    defining file; qualified names resolve by longest-common-suffix match
    between the reference's module path and the candidates' module paths,
    after expanding file-local [module X = Y] aliases and the head of
    functor applications ([module R = Runtime.Make (T)] makes [R.f]
    resolve like [Runtime.Make.f]). No higher-order resolution: a function
    received as an argument is not traversed. *)

type node = {
  id : string;  (** ["Unit.Sub.name"], unique per definition site *)
  unit_name : string;  (** capitalized compilation-unit module *)
  path : string list;  (** enclosing module path, starting with [unit_name] *)
  name : string;  (** bound value name; ["<init:k>"] for [let () = ...] *)
  file : string;
  line : int;
}

type t
(** The resolved call graph: definitions, edges, unresolved references. *)

val build : Ast.impl list -> t
(** Construct the graph over the given implementations. *)

val nodes : t -> node list
(** Every definition, sorted by (file, line). *)

val defs_in_file : t -> string -> node list

val callees : t -> node -> node list
(** Resolved out-edges, deduplicated, in first-reference order. *)

val callers : t -> node -> node list

val externals : t -> node -> (string list * int) list
(** References (alias-expanded, with line numbers) that resolved to no
    known node: stdlib and runtime primitives, locals, and parameters. *)

val refs : t -> node -> (string list * int) list
(** Every reference in the node's body, resolved or not, alias-expanded. *)

val body : t -> node -> Parsetree.expression
(** The bound expression, for rule-specific AST walks. *)

val call_line : t -> caller:node -> callee:node -> int option
(** Line (in [caller.file]) of the first reference from caller to callee. *)

val resolve : t -> from:node -> string list -> node list
(** Resolve a flattened value longident as seen from [from]'s file; [[]]
    when it refers to nothing the graph knows. *)

val expand_aliases : t -> file:string -> string list -> string list
(** Expand a file-local module alias at the head of a module path, as
    resolution does: with [module S = Clique.Sim] in [file], [["S"]]
    becomes [["Clique"; "Sim"]]. *)

val to_dot : t -> string
(** GraphViz rendering of the resolved call graph, one node per
    definition, clustered by file. *)
