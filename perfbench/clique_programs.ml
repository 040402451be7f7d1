(* clique-programs: node programs that really exchange messages on the
   congested-clique runtime (BFS, Bellman–Ford, Borůvka MST) plus the
   Theorem 1.4 Eulerian orientation, on graphs generated in set-up. *)

open Common

let sizes = [| 512; 640; 768; 896; 1024 |]

(* One run of one program: what must repeat bit for bit, the rounds it
   cost, and (for the first run of each input) the check of its output. *)
type out = {
  fp : string;
  rounds : int;
  words : int;  (* words on the benchmark-owned runtime; 0 for orient *)
  iterations : int;
  verify : unit -> string option;  (* [Some reason] when wrong *)
}

type prog = {
  label : string;
  on_runtime : bool;  (* runs on a benchmark-owned Runtime.Make instance *)
  run : unit -> out;
}

let fnv_ints a = Serve.Fingerprint.to_hex (Wire.Fnv.add_ints Wire.Fnv.offset (Array.to_list a))

let runtime_out rt fp verify =
  {
    fp;
    rounds = Clique.Kernel.rounds rt;
    words = Clique.Kernel.words rt;
    iterations = 0;
    verify;
  }

(* Exact single-source distances: Dijkstra over both arc directions. The
   weights are integers, so the program's 1/1024 fixed point is exact. *)
let reference_distances g src =
  let n = Graph.n g in
  let edges = Graph.edges g in
  let arcs =
    Array.fold_right
      (fun (e : Graph.edge) acc ->
        let c = int_of_float e.Graph.w in
        { Digraph.src = e.Graph.u; dst = e.Graph.v; cap = 1; cost = c }
        :: { Digraph.src = e.Graph.v; dst = e.Graph.u; cap = 1; cost = c }
        :: acc)
      edges []
  in
  fst (Sssp.dijkstra (Digraph.create n arcs) ~sources:[ src ] ())

let programs ~spans rng n =
  let weighted = Gen.weighted_gnp ~seed:(Prng.next_int64 rng) n (6. /. float_of_int n) 16 in
  let eulerian = Gen.even_gnp ~seed:(Prng.next_int64 rng) n (6. /. float_of_int n) in
  let src = Prng.int rng n in
  let bfs_ref = Traversal.bfs weighted src in
  let sssp_ref = reference_distances weighted src in
  let fresh () =
    Spans.with_span spans "clique.kernel_clique" (fun () -> Clique.Kernel.clique n)
  in
  let label k = Printf.sprintf "%s n=%d" k n in
  [
    {
      label = label "bfs";
      on_runtime = true;
      run =
        (fun () ->
          let rt = fresh () in
          let d =
            Spans.with_span spans "clique.bfs" (fun () ->
                Clique.Kernel.Sim_programs.bfs rt weighted src)
          in
          runtime_out rt (fnv_ints d) (fun () ->
              if d = bfs_ref then None else Some "differs from Traversal.bfs"));
    };
    {
      label = label "bellman-ford";
      on_runtime = true;
      run =
        (fun () ->
          let rt = fresh () in
          let d =
            Spans.with_span spans "clique.bellman_ford" (fun () ->
                Clique.Kernel.Sim_programs.bellman_ford rt weighted src)
          in
          runtime_out rt (fnv_vec d) (fun () ->
              if d = sssp_ref then None else Some "differs from Sssp.dijkstra"));
    };
    {
      label = label "boruvka";
      on_runtime = true;
      run =
        (fun () ->
          let rt = fresh () in
          let edges, weight, _ =
            Spans.with_span spans "clique.boruvka" (fun () ->
                Clique.Kernel.Sim_programs.boruvka rt weighted)
          in
          runtime_out rt
            (Printf.sprintf "%s/%h" (fnv_ints (Array.of_list edges)) weight)
            (fun () ->
              match Fault.Check.mst weighted ~weight edges with
              | Fault.Check.Pass -> None
              | v -> Some (Fault.Check.to_string v)));
    };
    {
      label = label "orient";
      on_runtime = false;
      run =
        (fun () ->
          let r =
            Spans.with_span spans "euler.orient" (fun () ->
                Euler.Orientation.orient eulerian)
          in
          let o = r.Euler.Orientation.orientation in
          {
            fp =
              fnv_ints (Array.map (fun b -> if b then 1 else 0) o);
            rounds = r.Euler.Orientation.rounds;
            words = 0;
            iterations = r.Euler.Orientation.iterations;
            verify =
              (fun () ->
                if Euler.Orientation.check eulerian o then None
                else Some "in-degree differs from out-degree");
          });
    };
  ]

let run ~seed ~seconds ~trace ~spans =
  let pool, release, setup_s =
    Measure.repeated_setup ~reps:3 (fun () ->
        let rng = Prng.create (Int64.of_int seed) in
        let pool =
          Array.concat (Array.to_list (Array.map (fun n -> Array.of_list (programs ~spans rng n)) sizes))
        in
        (* warm-up: one untimed pass *)
        Array.iter (fun p -> ignore (p.run ())) pool;
        (pool, ignore))
  in
  release ();
  (* only the measured window is traced, not the warm-up *)
  Spans.clear spans;
  let size = Array.length pool in
  let errors = new_failures () in
  let first = Array.make size None in
  let mismatched = Array.make size 0 in
  let runtime_minor = ref 0. in
  let op ~traced ~seq:_ i =
    let p = pool.(i) in
    match
      if traced && p.on_runtime then begin
        let w0 = Gc.minor_words () in
        let o = p.run () in
        runtime_minor := !runtime_minor +. (Gc.minor_words () -. w0);
        o
      end
      else p.run ()
    with
    | o -> (
      match first.(i) with
      | None -> first.(i) <- Some o
      | Some f ->
        if f.fp <> o.fp || f.rounds <> o.rounds || f.words <> o.words then
          mismatched.(i) <- mismatched.(i) + 1)
    | exception e ->
      fail errors (Printf.sprintf "%s: %s" p.label (Printexc.to_string e))
  in
  let plain, traced =
    closed_loop ~seconds ~size ~trace ~spans ~root:"bench.program" op
  in
  (* ---- output checks, outside the timed window ---- *)
  let runs_per_input = (plain.ops + traced.ops) / size in
  Array.iteri
    (fun i p ->
      match first.(i) with
      | None -> ()
      | Some o -> (
        match o.verify () with
        | Some why ->
          note errors (Printf.sprintf "%s: %s" p.label why);
          errors.count <- errors.count + runs_per_input
        | None ->
          if mismatched.(i) > 0 then begin
            note errors (Printf.sprintf "%s: %d runs differ from the first" p.label mismatched.(i));
            errors.count <- errors.count + mismatched.(i)
          end))
    pool;
  let outs = Array.map (fun o -> Option.get o) first in
  let pool_mean f = Measure.mean (Array.map f outs) in
  let lat_metrics, lat_notes = latency_metrics (latencies plain) in
  let e2e =
    [
      { name = "setup_s"; value = setup_s; unit_ = "s" };
      { name = "ops_per_s"; value = ops_per_s plain; unit_ = "1/s" };
    ]
    @ lat_metrics
    @ [
        { name = "rounds_per_op"; value = pool_mean (fun o -> float_of_int o.rounds); unit_ = "rounds" };
        { name = "peak_rss_mb"; value = Measure.peak_rss_mb 0; unit_ = "MB" };
      ]
  in
  let layers =
    if not trace then []
    else begin
      let per_op name = Spans.total_ms spans name /. float_of_int traced.ops in
      let is_runtime p = p.on_runtime in
      let sum_over pred f =
        Measure.sum (Array.mapi (fun i o -> if pred pool.(i) then f o else 0.) outs)
      in
      (* pool sums scaled to per-operation figures: each traced pass runs
         every input once *)
      let passes = float_of_int (traced.ops / size) in
      let measured_rounds = sum_over is_runtime (fun o -> float_of_int o.rounds) in
      let runtime_ms =
        Spans.total_ms spans "clique.bfs"
        +. Spans.total_ms spans "clique.bellman_ford"
        +. Spans.total_ms spans "clique.boruvka"
      in
      [
        ("clique.bfs_ms_per_op", per_op "clique.bfs");
        ("clique.bellman_ford_ms_per_op", per_op "clique.bellman_ford");
        ("clique.boruvka_ms_per_op", per_op "clique.boruvka");
        ("runtime.measured_rounds_per_op", measured_rounds /. float_of_int size);
        ("runtime.words_per_op", sum_over is_runtime (fun o -> float_of_int o.words) /. float_of_int size);
        ("runtime.ns_per_round", runtime_ms *. 1e6 /. (measured_rounds *. passes));
        ("runtime.minor_words_per_round", !runtime_minor /. (measured_rounds *. passes));
        ("euler.orient_ms_per_op", per_op "euler.orient");
        ( "euler.rounds_per_op",
          sum_over (fun p -> not (is_runtime p)) (fun o -> float_of_int o.rounds) /. float_of_int size );
        ( "euler.iterations_per_op",
          sum_over (fun p -> not (is_runtime p)) (fun o -> float_of_int o.iterations)
          /. float_of_int size );
      ]
      @ gc_layers plain
      @ trace_layers ~plain ~traced ~spans ~root:"bench.program"
    end
  in
  {
    attempted = plain.ops + traced.ops;
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
          ("sizes", Json.List (Array.to_list (Array.map (fun n -> Json.Int n) sizes)));
        ];
  }
