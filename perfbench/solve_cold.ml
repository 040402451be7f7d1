(* solve-cold: Theorem 1.1 time-to-solution on a seeded stream of distinct
   connected graphs, one cold Laplacian.Solver.solve per operation. *)

open Common

let eps = 1e-6

let phi = 0.05

(* Four families (weighted G(n,p) at three weight ranges U, and planted
   two-community graphs with a sparse cut) times twelve sizes in 80..160:
   the seed draws the graphs, the schedule of families and sizes is the
   same for every seed so runs with different seeds do the same amount of
   work. *)
let families = [| `Gnp 2; `Gnp 64; `Gnp 1024; `Planted |]

let sizes = Array.init 12 (fun k -> 80 + (80 * k / 11))

type inst = { g : Graph.t; b : Linalg.Vec.t; label : string }

let rec connected_instance rng fam n =
  let seed = Prng.next_int64 rng in
  let g, label =
    match fam with
    | `Gnp u ->
      (Gen.weighted_gnp ~seed n (8. /. float_of_int n) u, Printf.sprintf "gnp U=%d" u)
    | `Planted ->
      ( Gen.planted_partition ~seed n (16. /. float_of_int n) (1. /. float_of_int n),
        "planted" )
  in
  if Graph.is_connected g then (g, label) else connected_instance rng fam n

let generate seed =
  let rng = Prng.create (Int64.of_int seed) in
  Array.concat
    (Array.to_list
       (Array.map
          (fun fam ->
            Array.map
              (fun n ->
                let g, label = connected_instance rng fam n in
                let b = Linalg.Vec.center (Array.init n (fun _ -> Prng.float rng 2. -. 1.)) in
                { g; b; label = Printf.sprintf "%s n=%d" label n })
              sizes)
          families))

(* What must repeat bit for bit: the solution and every reported count. *)
type summary = {
  x_fnv : string;
  rounds : int;
  phases : (string * int) list;
  iterations : int;
  kappa_bits : int64;
  sparsifier_edges : int;
}

let summarize (r : Laplacian.Solver.report) =
  {
    x_fnv = fnv_vec r.Laplacian.Solver.x;
    rounds = r.Laplacian.Solver.rounds;
    phases = r.Laplacian.Solver.phase_rounds;
    iterations = r.Laplacian.Solver.iterations;
    kappa_bits = Int64.bits_of_float r.Laplacian.Solver.kappa;
    sparsifier_edges = r.Laplacian.Solver.sparsifier_edges;
  }

let phase s p = Option.value (List.assoc_opt p s.phases) ~default:0

(* The weight rounding Solver.solve applies before sparsifying (Theorem
   3.3 takes integer weight classes). The traced path repeats it; the
   bit-for-bit comparison with the untraced solve catches any drift. *)
let preprocess g =
  Graph.map_weights (fun e -> eps *. Float.max 1. (Float.round (e.Graph.w /. eps))) g

let run ~seed ~seconds ~trace ~spans =
  let insts, release, setup_s =
    Measure.repeated_setup ~reps:3 (fun () ->
        let insts = generate seed in
        (* warm-up: one untimed pass *)
        Array.iter (fun inst -> ignore (Laplacian.Solver.solve ~eps inst.g inst.b)) insts;
        (insts, ignore))
  in
  release ();
  let size = Array.length insts in
  let plain_out = Hashtbl.create 4096 in
  let traced_out = Hashtbl.create 4096 and probe_out = Hashtbl.create 4096 in
  (* the solution and summary of each input's first untraced solve *)
  let first = Array.make size None in
  let minor_per_solve = ref [] in
  let errors = new_failures () in
  let guarded what seq (inst : inst) f =
    try f ()
    with e ->
      fail errors
        (Printf.sprintf "%s %d (%s): %s" what seq inst.label (Printexc.to_string e))
  in
  let op ~traced ~seq i =
    let inst = insts.(i) in
    guarded "op" seq inst @@ fun () ->
    if not traced then begin
      let r = Laplacian.Solver.solve ~eps inst.g inst.b in
      let s = summarize r in
      if first.(i) = None then first.(i) <- Some (r.Laplacian.Solver.x, s);
      Hashtbl.replace plain_out seq (i, s)
    end
    else begin
      (* Solver.solve's own steps, one span per layer call; the output
         must match the untraced solve bit for bit (checked below) *)
      let n = Graph.n inst.g in
      let sp =
        Spans.with_span spans "sparsify.sparsify" (fun () ->
            Sparsify.Spectral.sparsify ~phi (preprocess inst.g))
      in
      let rt = Clique.Kernel.clique n in
      Clique.Kernel.charge rt ~phase:"sparsify" sp.Sparsify.Spectral.rounds;
      let r =
        Spans.with_span spans "laplacian.solve_with_sparsifier" (fun () ->
            Laplacian.Solver.solve_with_sparsifier ~eps ~rt inst.g sp inst.b)
      in
      Hashtbl.replace traced_out seq (i, summarize r)
    end
  in
  (* Probe, outside the operation: the prepared path the daemon runs, on
     the same input (Solver.prepare + solve_prepared = Solver.solve). *)
  let probe ~seq i =
    let inst = insts.(i) in
    guarded "probe" seq inst @@ fun () ->
    let p =
      Spans.with_span spans "laplacian.prepare" (fun () -> Laplacian.Solver.prepare ~eps inst.g)
    in
    let r =
      Spans.with_span spans "laplacian.solve_prepared" (fun () ->
          let w0 = Gc.minor_words () in
          let r = Laplacian.Solver.solve_prepared p inst.b in
          minor_per_solve := (Gc.minor_words () -. w0) :: !minor_per_solve;
          r)
    in
    Hashtbl.replace probe_out seq (i, summarize r)
  in
  let plain, traced =
    closed_loop ~probe ~seconds ~size ~trace ~spans ~root:"bench.solve" op
  in
  (* ---- output checks, outside the timed window ---- *)
  let verified =
    Array.mapi
      (fun i inst ->
        match first.(i) with
        | None -> false
        | Some (x, _) ->
          let err = Laplacian.Solver.error_in_l_norm inst.g x inst.b in
          let resid = Fault.Check.solver_residual inst.g ~b:inst.b x in
          (* a failed input fails every operation on it, counted below *)
          if err > eps then begin
            note errors (Printf.sprintf "%s: L-norm error %.3e > eps" inst.label err);
            false
          end
          else if not (Fault.Check.passed resid) then begin
            note errors (Printf.sprintf "%s: %s" inst.label (Fault.Check.to_string resid));
            false
          end
          else true)
      insts
  in
  let canon i =
    match first.(i) with
    | Some (_, s) -> s
    | None -> invalid_arg "solve-cold: an input never ran"
  in
  let check_table what tbl =
    Hashtbl.iter
      (fun seq (i, s) ->
        if not (verified.(i) && canon i = s) then
          fail errors
            (Printf.sprintf "%s op %d (%s): output differs from the verified one"
               what seq insts.(i).label))
      tbl
  in
  check_table "untraced" plain_out;
  check_table "traced" traced_out;
  check_table "probe" probe_out;
  let pool_mean f =
    Measure.mean (Array.init size (fun i -> f i (canon i)))
  in
  let attempted = plain.ops + traced.ops in
  let lat_metrics, lat_notes = latency_metrics (latencies plain) in
  let e2e =
    [
      { name = "setup_s"; value = setup_s; unit_ = "s" };
      { name = "ops_per_s"; value = ops_per_s plain; unit_ = "1/s" };
    ]
    @ lat_metrics
    @ [
        {
          name = "rounds_per_op";
          value = pool_mean (fun _ s -> float_of_int s.rounds);
          unit_ = "rounds";
        };
        { name = "peak_rss_mb"; value = Measure.peak_rss_mb 0; unit_ = "MB" };
      ]
  in
  let layers =
    if not trace then []
    else begin
      let per_traced_op name = Spans.total_ms spans name /. float_of_int traced.ops in
      [
        ("sparsify.busy_ms_per_op", per_traced_op "sparsify.sparsify");
        ("sparsify.rounds_per_op", pool_mean (fun _ s -> float_of_int (phase s "sparsify")));
        ( "sparsify.edge_ratio",
          pool_mean (fun i s ->
              float_of_int s.sparsifier_edges /. float_of_int (Graph.m insts.(i).g)) );
        ("laplacian.prepare_ms_per_op", per_traced_op "laplacian.prepare");
        ("laplacian.solve_prepared_ms_per_op", per_traced_op "laplacian.solve_prepared");
        ( "laplacian.kappa_rounds_per_op",
          pool_mean (fun _ s -> float_of_int (phase s "kappa-estimate")) );
        ( "laplacian.chebyshev_rounds_per_op",
          pool_mean (fun _ s -> float_of_int (phase s "chebyshev")) );
        ( "laplacian.chebyshev_iterations_per_op",
          pool_mean (fun _ s -> float_of_int s.iterations) );
        ("laplacian.kappa", pool_mean (fun _ s -> Int64.float_of_bits s.kappa_bits));
        ( "linalg.minor_words_per_solve",
          Measure.mean (Array.of_list !minor_per_solve) );
      ]
      @ gc_layers plain
      @ trace_layers ~plain ~traced ~spans ~root:"bench.solve"
    end
  in
  {
    attempted;
    failed = errors.count;
    failures = List.rev errors.msgs;
    e2e;
    layers = Common.layers layers;
    notes =
      lat_notes
      @ [
          ("inputs", Json.Int size);
          ("untraced_ops", Json.Int plain.ops);
          ("traced_ops", Json.Int traced.ops);
          ("eps", Json.Float eps);
        ];
  }
