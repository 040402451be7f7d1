(** Source-tree traversal for the linter. *)

val collect : string list -> string list
(** All [.ml]/[.mli] files under the given roots (a root may itself be a
    source file), sorted and deduplicated. [_build], [_opam], and
    dot-directories are skipped. Raises [Invalid_argument] on a root that
    does not exist or is neither a directory nor an [.ml]/[.mli] file, so
    a mistyped root can never pass as a clean lint. *)

val source_file : string -> bool
(** Whether a filename has a linted extension. *)
