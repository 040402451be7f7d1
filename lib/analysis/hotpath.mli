(** Rule L12: allocation in a hot-path function.

    The hot set is read off [(* cc_lint: hot name ... *)] markers; the
    named functions are located in the parse tree at any nesting depth, so
    a hot closure bound by a [let] inside a cold factory is covered too.
    Allocation primitives: [Hashtbl.create], [Array.make],
    [Bytes.create]. *)

val findings : Ast.impl -> Lint.finding list
(** All L12 findings of one implementation, sorted, one per allocation
    site; {!Semantic.analyze} applies the suppression markers. *)
