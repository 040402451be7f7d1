(* Parsing through the compiler's own frontend (compiler-libs.common).
   The linter runs on the developer's machine and in CI, never inside a
   charged layer, so allocating freely here is in-model. *)

type impl = {
  file : string;
  src : string;
  structure : Parsetree.structure;
}

let line_of_loc (loc : Location.t) = loc.loc_start.pos_lnum

let describe_error ~file = function
  | Syntaxerr.Error err ->
    let loc = Syntaxerr.location_of_error err in
    Printf.sprintf "%s:%d syntax error" file (line_of_loc loc)
  | Lexer.Error (_, loc) ->
    Printf.sprintf "%s:%d lexer error" file (line_of_loc loc)
  | e -> Printf.sprintf "%s:1 parse failure: %s" file (Printexc.to_string e)

let with_lexbuf ~file src parse =
  let lexbuf = Lexing.from_string src in
  Location.init lexbuf file;
  (* The compiler's error reporter must not print to stderr on its own;
     parse exceptions are caught and rendered as one-line strings. *)
  match parse lexbuf with
  | v -> Ok v
  | exception (Syntaxerr.Error _ as e) -> Error (describe_error ~file e)
  | exception (Lexer.Error _ as e) -> Error (describe_error ~file e)

let parse_impl ~file src =
  match with_lexbuf ~file src Parse.implementation with
  | Ok structure -> Ok { file; src; structure }
  | Error e -> Error e

let parse_interface ~file src = with_lexbuf ~file src Parse.interface

type tree = Impl of Parsetree.structure | Intf of Parsetree.signature

(* [Longident.flatten] aborts on functor applications; a path through
   one ([Map.Make (String).t]) keeps the functor and drops the argument. *)
let rec flatten = function
  | Longident.Lident s -> [ s ]
  | Ldot (l, s) -> flatten l @ [ s ]
  | Lapply (f, _) -> flatten f

let raw_lines src = Array.of_list (String.split_on_char '\n' src)

(* Depth-first expression traversal via Ast_iterator: the default iterator
   already recurses through every syntactic category (match arms, local
   modules, classes), so overriding [expr] alone visits each
   sub-expression exactly once. *)
let iter_expressions f expr =
  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun it e ->
          f e;
          Ast_iterator.default_iterator.expr it e);
    }
  in
  it.expr it expr

let iter_bindings f structure =
  let visit_vb it (vb : Parsetree.value_binding) =
    (match vb.pvb_pat.ppat_desc with
    | Ppat_var { txt; loc } -> f ~name:txt ~line:(line_of_loc loc) vb.pvb_expr
    | _ -> ());
    Ast_iterator.default_iterator.value_binding it vb
  in
  let it =
    { Ast_iterator.default_iterator with value_binding = visit_vb }
  in
  it.structure it structure

(* Every longident in the tree, at every syntactic position that names a
   value, constructor, field, type, or module. Item paths ([A.B.x]) split
   into their module qualifier and the item; module paths ([open A.B],
   [module M = A.B], [A.B.(e)]) have no item. *)
let reference_iterator f =
  let item ({ txt; loc } : Longident.t Location.loc) =
    match List.rev (flatten txt) with
    | name :: rev_mods ->
      f ~modules:(List.rev rev_mods) ~item:(Some name) ~line:(line_of_loc loc)
    | [] -> ()
  in
  let modpath ({ txt; loc } : Longident.t Location.loc) =
    f ~modules:(flatten txt) ~item:None ~line:(line_of_loc loc)
  in
  let d = Ast_iterator.default_iterator in
  {
    d with
    expr =
      (fun it e ->
        (match e.pexp_desc with
        | Pexp_ident l | Pexp_construct (l, _) | Pexp_field (_, l)
        | Pexp_setfield (_, l, _) ->
          item l
        | Pexp_record (fields, _) -> List.iter (fun (l, _) -> item l) fields
        | _ -> ());
        d.expr it e);
    pat =
      (fun it p ->
        (match p.ppat_desc with
        | Ppat_construct (l, _) | Ppat_type l -> item l
        | Ppat_record (fields, _) -> List.iter (fun (l, _) -> item l) fields
        | Ppat_open (l, _) -> modpath l
        | _ -> ());
        d.pat it p);
    typ =
      (fun it t ->
        (match t.ptyp_desc with
        | Ptyp_constr (l, _) | Ptyp_class (l, _) -> item l
        | _ -> ());
        d.typ it t);
    module_expr =
      (fun it m ->
        (match m.pmod_desc with Pmod_ident l -> modpath l | _ -> ());
        d.module_expr it m);
    module_type =
      (fun it m ->
        (match m.pmty_desc with
        | Pmty_ident l | Pmty_alias l -> modpath l
        | _ -> ());
        d.module_type it m);
    open_description =
      (fun it o ->
        modpath o.popen_expr;
        d.open_description it o);
    extension_constructor =
      (fun it ec ->
        (match ec.pext_kind with Pext_rebind l -> item l | _ -> ());
        d.extension_constructor it ec);
  }
