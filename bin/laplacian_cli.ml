(* Command-line front end: run each of the paper's algorithms on generated
   workloads and print results plus congested-clique round accounting.

     laplacian_cli solve    --n 80 --density 0.2 --eps 1e-6
     laplacian_cli sparsify --n 100 --density 0.4 --max-weight 16
     laplacian_cli euler    --n 512 --cycles 20
     laplacian_cli maxflow  --layers 4 --width 4 --maxcap 8
     laplacian_cli mincost  --n 12 --arcs 30 --maxcost 10
     laplacian_cli mst      --n 100 --density 0.2

   Every command also takes --seed S and --verbose (-v); -n and --vertices
   are synonyms of --n; `laplacian_cli COMMAND --help` lists its options. *)

(* Option values, shared by the commands that take them. *)
let seed = ref 42 and verbose = ref false and n = ref 0 and density = ref 0.2
let eps = ref 1e-6 and max_weight = ref 8 and cycles = ref 8
let layers = ref 4 and width = ref 4 and maxcap = ref 8
let arcs = ref 30 and maxcost = ref 10

let common =
  [
    ("--seed", Arg.Set_int seed, "S deterministic workload seed (default 42)");
    ("--verbose", Arg.Set verbose, " print per-phase debug traces");
    ("-v", Arg.Set verbose, " same as --verbose");
  ]

(* --n/--vertices with the command's default vertex count. *)
let vertices default =
  n := default;
  [
    ("--n", Arg.Set_int n, Printf.sprintf "N vertices (default %d)" default);
    ("-n", Arg.Set_int n, "N same as --n");
    ("--vertices", Arg.Set_int n, "N same as --n");
  ]

let density_arg =
  [ ("--density", Arg.Set_float density, "D edge density (default 0.2)") ]

let setup_logs () =
  Logs.set_reporter (Logs.format_reporter ());
  Logs.set_level (Some (if !verbose then Logs.Debug else Logs.Warning))

let run_solve () =
  let n = !n and eps = !eps in
  let g = Core.Gen.weighted_gnp ~seed:(Int64.of_int !seed) n !density 8 in
  let b = Core.Vec.sub (Core.Vec.basis n 0) (Core.Vec.basis n (n - 1)) in
  let x, r = Core.solve_laplacian ~eps g b in
  Printf.printf "n=%d m=%d eps=%g\n" n (Core.Graph.m g) eps;
  Printf.printf "rounds=%d iterations=%d kappa=%.3f sparsifier_edges=%d\n"
    r.Core.Solver.rounds r.Core.Solver.iterations r.Core.Solver.kappa
    r.Core.Solver.sparsifier_edges;
  Format.printf "phases: %a@." Core.pp_phases r.Core.Solver.phase_rounds;
  Printf.printf "error in ||.||_L: %.3e (target %.1e)\n"
    (Core.Solver.error_in_l_norm g x b)
    eps

let run_sparsify () =
  let n = !n and u = !max_weight in
  let g = Core.Gen.weighted_gnp ~seed:(Int64.of_int !seed) n !density u in
  let r = Core.spectral_sparsifier g in
  let h = r.Core.Sparsifier.sparsifier in
  Printf.printf "n=%d m=%d U=%d\n" n (Core.Graph.m g) u;
  Printf.printf "sparsifier: %d edges (bound %d), %d levels, %d classes\n"
    (Core.Graph.m h)
    (Core.Sparsifier.size_bound ~n ~u:(float_of_int u))
    r.Core.Sparsifier.levels r.Core.Sparsifier.classes;
  Printf.printf "rounds=%d\n" r.Core.Sparsifier.rounds;
  Printf.printf "measured alpha=%.3f  pencil condition=%.3f\n"
    (Core.Quality.approximation_factor g h)
    (Core.Quality.relative_condition g h)

let run_euler () =
  let n = !n in
  let g = Core.Gen.cycle_union ~seed:(Int64.of_int !seed) n !cycles in
  let r = Core.eulerian_orientation g in
  assert (Core.Orientation.check g r.Core.Orientation.orientation);
  Printf.printf "n=%d m=%d rings=%d\n" n (Core.Graph.m g)
    r.Core.Orientation.rings;
  Printf.printf
    "rounds=%d (reference %d)  iterations=%d  coloring rounds=%d\n"
    r.Core.Orientation.rounds
    (Core.Orientation.rounds_reference ~n)
    r.Core.Orientation.iterations r.Core.Orientation.coloring_rounds

let run_maxflow () =
  let g =
    Core.Gen.layered_network ~seed:(Int64.of_int !seed) !layers !width !maxcap
  in
  let n = Core.Digraph.n g in
  let r = Core.max_flow g ~s:0 ~t:(n - 1) in
  let ff = Core.Ford_fulkerson.max_flow g ~s:0 ~t:(n - 1) in
  let triv = Core.Trivial.max_flow g ~s:0 ~t:(n - 1) in
  Printf.printf "n=%d m=%d U=%d\n" n (Core.Digraph.m g) !maxcap;
  Printf.printf "max flow value=%d\n" r.Core.Maxflow.value;
  Printf.printf "IPM:            rounds=%-6d (iterations=%d, repairs=%d)\n"
    r.Core.Maxflow.rounds r.Core.Maxflow.ipm_iterations
    r.Core.Maxflow.repair_augmentations;
  Printf.printf "Ford-Fulkerson: rounds=%-6d (iterations=%d)\n"
    ff.Core.Ford_fulkerson.rounds ff.Core.Ford_fulkerson.iterations;
  Printf.printf "Trivial gather: rounds=%-6d\n" triv.Core.Trivial.rounds;
  assert (r.Core.Maxflow.value = ff.Core.Ford_fulkerson.value)

let run_mincost () =
  let g, sigma =
    Core.Gen.random_mcf ~seed:(Int64.of_int !seed) !n !arcs !maxcost
  in
  Printf.printf "n=%d m=%d W=%d\n" !n (Core.Digraph.m g) !maxcost;
  match Core.min_cost_flow g ~sigma with
  | None -> Printf.printf "instance infeasible\n"
  | Some r ->
    Printf.printf "optimal cost=%g rounds=%d iterations=%d repairs=%d\n"
      r.Core.Mincostflow.cost r.Core.Mincostflow.rounds
      r.Core.Mincostflow.ipm_iterations r.Core.Mincostflow.repair_augmentations;
    (match Core.Mcf_ssp.solve g ~sigma with
    | Some oracle ->
      Printf.printf "SSP oracle cost=%g (agrees: %b)\n" oracle.Core.Mcf_ssp.cost
        (Float.abs (oracle.Core.Mcf_ssp.cost -. r.Core.Mincostflow.cost) < 1e-6)
    | None -> assert false)

let run_mst () =
  let n = !n in
  let g = Core.Gen.connected_gnp ~seed:(Int64.of_int !seed) n !density in
  let g =
    Core.Graph.map_weights
      (fun e -> 1. +. float_of_int (((e.Core.Graph.u * 31) + e.Core.Graph.v) mod 23))
      g
  in
  let r = Core.minimum_spanning_tree g in
  Printf.printf "n=%d m=%d\n" n (Core.Graph.m g);
  Printf.printf "mst weight=%g edges=%d phases=%d rounds=%d (trivial: %d)\n"
    r.Core.Boruvka.weight
    (List.length r.Core.Boruvka.edges)
    r.Core.Boruvka.phases r.Core.Boruvka.rounds n

(* (name, summary, options (built when the command is chosen, so --n
   gets that command's default), run). *)
let commands =
  [
    ( "solve", "Theorem 1.1: deterministic Laplacian solve",
      (fun () ->
        vertices 80 @ density_arg
        @ [ ("--eps", Arg.Set_float eps, "E target precision (default 1e-6)") ]),
      run_solve );
    ( "sparsify", "Theorem 3.3: deterministic spectral sparsifier",
      (fun () ->
        vertices 100 @ density_arg
        @ [ ("--max-weight", Arg.Set_int max_weight, "U max weight (default 8)") ]),
      run_sparsify );
    ( "euler", "Theorem 1.4: Eulerian orientation",
      (fun () ->
        vertices 256
        @ [ ("--cycles", Arg.Set_int cycles, "C cycles (default 8)") ]),
      run_euler );
    ( "maxflow", "Theorem 1.2: exact maximum flow",
      (fun () ->
        [ ("--layers", Arg.Set_int layers, "L network layers (default 4)");
          ("--width", Arg.Set_int width, "W junctions per layer (default 4)");
          ("--maxcap", Arg.Set_int maxcap, "U max capacity (default 8)") ]),
      run_maxflow );
    ( "mincost", "Theorem 1.3: unit-capacity min-cost flow",
      (fun () ->
        vertices 12
        @ [ ("--arcs", Arg.Set_int arcs, "A random arcs to add (default 30)");
            ("--maxcost", Arg.Set_int maxcost, "W max arc cost (default 10)") ]),
      run_mincost );
    ( "mst", "Boruvka MST on the message-passing kernel",
      (fun () -> vertices 100 @ density_arg),
      run_mst );
  ]

let usage =
  "laplacian_cli " ^ Core.version
  ^ " - the Laplacian paradigm in the deterministic congested clique\n\
     usage: laplacian_cli COMMAND [OPTION ...]  (COMMAND --help: options)\n\
     commands:\n"
  ^ String.concat ""
      (List.map
         (fun (name, doc, _, _) -> Printf.sprintf "  %-9s %s\n" name doc)
         commands)

let () =
  match Array.to_list Sys.argv with
  | _ :: ("--help" | "-help" | "-h") :: _ -> print_string usage
  | _ :: "--version" :: _ -> print_endline Core.version
  | _ :: name :: _ when List.exists (fun (c, _, _, _) -> c = name) commands ->
    let _, doc, options, run = List.find (fun (c, _, _, _) -> c = name) commands in
    let specs = Arg.align (options () @ common) in
    (match
       Arg.parse_argv ~current:(ref 1) Sys.argv specs
         (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
         (Printf.sprintf "usage: laplacian_cli %s [OPTION ...]\n%s" name doc)
     with
    | () -> ()
    | exception Arg.Help msg ->
      print_string msg;
      exit 0
    | exception Arg.Bad msg ->
      prerr_string msg;
      exit 2);
    setup_logs ();
    run ()
  | _ ->
    prerr_string usage;
    exit 2
