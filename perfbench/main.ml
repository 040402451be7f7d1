(* perfbench: run one workload, check its outputs, print every metric.

     main.exe --workload NAME --seed N --seconds S --trace 0|1
              --serve-exe PATH --out DIR [--git-rev REV]

   Normally started by perfbench/run.py, which builds this executable and
   bin/cc_serve.exe first. The last line of standard output is one JSON
   object {correct, attempted, failed, metrics}: the end-to-end metrics
   with --trace 0, the per-layer metrics with --trace 1. A fuller record
   (provenance, sample counts, failures) and, when traced, the Chrome
   trace-event file land in DIR. *)

module Json = Metrics.Json

let workloads = [ "solve-cold"; "serve-hot"; "serve-churn"; "clique-programs" ]

let die fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline ("perfbench: " ^ msg);
      exit 2)
    fmt

(* Environment knobs that change what the library or the daemon does
   (CC_SHARDS switches the kernel to sharded, CC_DOMAINS fans work over
   domains, CC_SANITIZE/CC_FAULTS change the program, OCAMLRUNPARAM the
   GC): a run under any of them would not measure the stock program. *)
let refuse_knobs () =
  let bad =
    List.filter
      (fun kv ->
        let name =
          match String.index_opt kv '=' with
          | Some i -> String.sub kv 0 i
          | None -> kv
        in
        (String.length name >= 3 && String.sub name 0 3 = "CC_")
        || name = "OCAMLRUNPARAM")
      (Array.to_list (Unix.environment ()))
  in
  if bad <> [] then
    die "refusing to run with %s set; unset it to measure the stock program"
      (String.concat ", " bad)

type args = {
  mutable workload : string;
  mutable seed : int option;
  mutable seconds : float;
  mutable trace : bool;
  mutable serve_exe : string;
  mutable out : string;
  mutable git_rev : string;
}

let parse_args () =
  let a =
    {
      workload = "";
      seed = None;
      seconds = 10.;
      trace = false;
      serve_exe = "";
      out = "_perfbench_out";
      git_rev = "unknown";
    }
  in
  let rec go = function
    | [] -> ()
    | "--workload" :: v :: rest ->
      a.workload <- v;
      go rest
    | "--seed" :: v :: rest ->
      a.seed <- int_of_string_opt v;
      if a.seed = None then die "--seed must be an integer, got %S" v;
      go rest
    | "--seconds" :: v :: rest ->
      (match float_of_string_opt v with
      | Some s when s > 0. -> a.seconds <- s
      | _ -> die "--seconds must be positive, got %S" v);
      go rest
    | "--trace" :: v :: rest ->
      (match v with
      | "0" -> a.trace <- false
      | "1" -> a.trace <- true
      | _ -> die "--trace must be 0 or 1, got %S" v);
      go rest
    | "--serve-exe" :: v :: rest ->
      a.serve_exe <- v;
      go rest
    | "--out" :: v :: rest ->
      a.out <- v;
      go rest
    | "--git-rev" :: v :: rest ->
      a.git_rev <- v;
      go rest
    | x :: _ -> die "unknown argument %S" x
  in
  go (List.tl (Array.to_list Sys.argv));
  if not (List.mem a.workload workloads) then
    die "--workload must be one of %s" (String.concat ", " workloads);
  if a.seed = None then die "--seed is required";
  a

let nproc () =
  match Unix.open_process_in "nproc" with
  | ic ->
    let n = try int_of_string_opt (String.trim (input_line ic)) with End_of_file -> None in
    ignore (Unix.close_process_in ic);
    Option.value n ~default:(Domain.recommended_domain_count ())
  | exception Unix.Unix_error _ -> Domain.recommended_domain_count ()

let metric_json (m : Common.metric) =
  (m.Common.name, Json.Assoc [ ("value", Json.Float m.Common.value); ("unit", Json.String m.Common.unit_) ])

let () =
  refuse_knobs ();
  let a = parse_args () in
  let seed = Option.get a.seed in
  let nproc = nproc () in
  let spans = Spans.create ~enabled:a.trace in
  (try Unix.mkdir a.out 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let run () =
    match a.workload with
    | "solve-cold" -> Solve_cold.run ~seed ~seconds:a.seconds ~trace:a.trace ~spans
    | "clique-programs" ->
      Clique_programs.run ~seed ~seconds:a.seconds ~trace:a.trace ~spans
    | w ->
      Serve_load.run ~hot:(w = "serve-hot") ~exe:a.serve_exe ~dir:a.out ~nproc
        ~seed ~seconds:a.seconds ~trace:a.trace ~spans
  in
  let r =
    match run () with
    | r -> r
    | exception e ->
      Serve_load.kill_children ();
      {
        Common.attempted = 0;
        failed = 1;
        failures = [ "aborted: " ^ Printexc.to_string e ];
        e2e = [];
        layers = [];
        notes = [];
      }
  in
  let metrics = if a.trace then r.Common.layers else r.Common.e2e in
  let finite = List.for_all (fun m -> Float.is_finite m.Common.value) metrics in
  let correct = r.Common.failed = 0 && finite && metrics <> [] in
  let provenance =
    [
      ("workload", Json.String a.workload);
      ("seed", Json.Int seed);
      ("seconds", Json.Float a.seconds);
      ("trace", Json.Bool a.trace);
      ("git_rev", Json.String a.git_rev);
      ("nproc", Json.Int nproc);
      ("ocaml_version", Json.String Sys.ocaml_version);
    ]
  in
  let base = Printf.sprintf "%s/%s-seed%d-trace%d" a.out a.workload seed (if a.trace then 1 else 0) in
  let record =
    Json.Assoc
      (provenance
      @ r.Common.notes
      @ [
          ("correct", Json.Bool correct);
          ("attempted", Json.Int r.Common.attempted);
          ("failed", Json.Int r.Common.failed);
          ( "failed_ratio",
            Json.Float
              (float_of_int r.Common.failed /. float_of_int (max 1 r.Common.attempted)) );
          ("failures", Json.List (List.map (fun s -> Json.String s) r.Common.failures));
          ("metrics", Json.Assoc (List.map metric_json (r.Common.e2e @ r.Common.layers)));
        ])
  in
  let oc = open_out (base ^ ".json") in
  output_string oc (Json.to_string record);
  close_out oc;
  if a.trace then Spans.write_chrome spans ~meta:provenance (base ^ ".trace.json");
  List.iter
    (fun (k, v) -> Printf.printf "# %s: %s\n" k (Json.to_string ~minify:true v))
    (provenance @ r.Common.notes);
  List.iter (fun s -> Printf.printf "# FAILURE: %s\n" s) r.Common.failures;
  Printf.printf "# output check: %s (%d of %d operations failed)\n"
    (if correct then "PASS" else "FAIL")
    r.Common.failed r.Common.attempted;
  List.iter
    (fun m -> Printf.printf "%-40s %18.6f %s\n" m.Common.name m.Common.value m.Common.unit_)
    metrics;
  print_endline
    (Json.to_string ~minify:true
       (Json.Assoc
          [
            ("correct", Json.Bool correct);
            ("attempted", Json.Int (max 1 r.Common.attempted));
            ("failed", Json.Int r.Common.failed);
            ("metrics", Json.Assoc (List.map metric_json metrics));
          ]));
  exit (if correct then 0 else 1)
