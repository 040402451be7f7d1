(* cc_lint — model-compliance linter for the congested-clique reproduction.

   Usage: cc_lint [--rules] [--graph] [--json] [PATH ...]
                                                      (default paths: lib bin)

   One pass (Analysis.Semantic): every .ml/.mli under the roots is parsed
   with the compiler frontend and checked against the whole catalog —
   per-reference rules on each tree, the interprocedural rules over the
   module-qualified call graph, and L6 over the files on disk. --graph
   dumps the call graph as GraphViz DOT to stdout and exits. --json
   renders findings through the dependency-free Metrics.Json instead of
   line-per-finding text.

   Exit codes: 0 clean, 1 findings (or parse errors), 2 usage or a root
   that is missing or not a directory/.ml/.mli file. *)

let usage () =
  prerr_endline
    "usage: cc_lint [--rules] [--graph] [--json] [PATH ...]   (default: lib \
     bin)";
  exit 2

type opts = { graph : bool; json : bool; roots : string list }

let parse_args args =
  let rec go opts = function
    | [] -> opts
    | "--graph" :: rest -> go { opts with graph = true } rest
    | "--json" :: rest -> go { opts with json = true } rest
    | arg :: _ when String.length arg > 1 && arg.[0] = '-' -> usage ()
    | path :: rest -> go { opts with roots = opts.roots @ [ path ] } rest
  in
  let opts = go { graph = false; json = false; roots = [] } args in
  if opts.roots = [] then { opts with roots = [ "lib"; "bin" ] } else opts

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  if List.mem "--help" args || List.mem "-h" args then usage ();
  if List.mem "--rules" args then begin
    print_endline (Analysis.Report.rules_table ());
    exit 0
  end;
  let opts = parse_args args in
  match Analysis.Semantic.analyze_paths opts.roots with
  | { graph; _ } when opts.graph ->
    print_string (Analysis.Callgraph.to_dot graph);
    exit 0
  | { findings; errors; _ } ->
    List.iter (fun e -> prerr_endline ("cc_lint: parse error: " ^ e)) errors;
    if opts.json then Analysis.Report.print_json stdout ~errors findings
    else Analysis.Report.print stdout findings;
    prerr_endline (Analysis.Report.summary findings);
    exit (if findings = [] && errors = [] then 0 else 1)
  | exception Invalid_argument msg ->
    prerr_endline ("cc_lint: " ^ msg);
    exit 2
