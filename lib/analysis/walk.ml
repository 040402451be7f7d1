(* Filesystem traversal for the linter: collect every .ml/.mli under the
   given roots, skipping build artifacts and dot-directories. The linter
   runs on the developer's machine and in CI, never inside a charged layer,
   so plain Sys primitives are in-model here. *)

let skip_dir name =
  name = "_build" || name = "_opam"
  || (String.length name > 0 && name.[0] = '.')

let source_file name =
  Filename.check_suffix name ".ml" || Filename.check_suffix name ".mli"

let collect roots =
  let acc = ref [] in
  let rec visit path =
    if Sys.is_directory path then
      Array.iter
        (fun entry ->
          if not (skip_dir entry) then visit (Filename.concat path entry))
        (Sys.readdir path)
    else if source_file path then acc := path :: !acc
  in
  List.iter
    (fun root ->
      if not (Sys.file_exists root) then
        invalid_arg (Printf.sprintf "Walk.collect: no such path: %s" root)
      else if Sys.is_directory root || source_file root then visit root
      else
        invalid_arg
          (Printf.sprintf "Walk.collect: not a directory or .ml/.mli file: %s"
             root))
    roots;
  List.sort_uniq compare !acc
