(* What every workload returns, the metric catalogue, and the closed loop
   the library workloads share. *)

module Json = Metrics.Json

type metric = { name : string; value : float; unit_ : string }

type result = {
  attempted : int;
  failed : int;
  failures : string list;  (* the first few failure descriptions *)
  e2e : metric list;
  layers : metric list;
  notes : (string * Json.t) list;  (* provenance and sample counts *)
}

(* Every per-layer metric, with its unit; a workload that does not load a
   layer reports 0 for it. *)
let layer_catalogue =
  [
    ("sparsify.busy_ms_per_op", "ms");
    ("sparsify.rounds_per_op", "rounds");
    ("sparsify.edge_ratio", "ratio");
    ("laplacian.prepare_ms_per_op", "ms");
    ("laplacian.solve_prepared_ms_per_op", "ms");
    ("laplacian.kappa_rounds_per_op", "rounds");
    ("laplacian.chebyshev_rounds_per_op", "rounds");
    ("laplacian.chebyshev_iterations_per_op", "count");
    ("laplacian.kappa", "ratio");
    ("linalg.minor_words_per_solve", "words");
    ("clique.bfs_ms_per_op", "ms");
    ("clique.bellman_ford_ms_per_op", "ms");
    ("clique.boruvka_ms_per_op", "ms");
    ("runtime.measured_rounds_per_op", "rounds");
    ("runtime.words_per_op", "words");
    ("runtime.ns_per_round", "ns");
    ("runtime.minor_words_per_round", "words");
    ("euler.orient_ms_per_op", "ms");
    ("euler.rounds_per_op", "rounds");
    ("euler.iterations_per_op", "count");
    ("serve.decode_ms", "ms");
    ("serve.queue_wait_ms", "ms");
    ("serve.queue_wait_p90_ms", "ms");
    ("serve.exec_ms", "ms");
    ("serve.unattributed_ms", "ms");
    ("serve.cache_hit_ratio", "ratio");
    ("serve.cache_evictions_per_op", "count");
    ("serve.attempts_per_op", "count");
    ("wire.request_bytes_per_op", "bytes");
    ("wire.reply_bytes_per_op", "bytes");
    ("fault.check_ms_per_op", "ms");
    ("flow.maxflow_ms_per_op", "ms");
    ("flow.ipm_iterations_per_op", "count");
    ("flow.laplacian_solves_per_op", "count");
    ("gc.minor_words_per_op", "words");
    ("gc.major_collections_per_op", "count");
    ("trace.overhead_ratio", "ratio");
    ("trace.span_coverage_ratio", "ratio");
    ("trace.unattributed_ms_per_op", "ms");
  ]

(* Fill in the catalogue from the workload's measured values (unknown
   names are a programming error). *)
let layers measured =
  List.iter
    (fun (name, _) ->
      if not (List.mem_assoc name layer_catalogue) then
        invalid_arg ("unknown per-layer metric " ^ name))
    measured;
  List.map
    (fun (name, unit_) ->
      let value = Option.value (List.assoc_opt name measured) ~default:0. in
      { name; value; unit_ })
    layer_catalogue

(* Pooled latency percentiles plus their sample counts (the counts go to
   the notes: a percentile is only meaningful with enough samples beyond
   it). Pooling, rather than taking the median of per-pass figures, keeps
   a figure continuous when the machine's speed shifts during a run. *)
let latency_metrics lat_ms =
  let q p = Measure.quantile lat_ms p in
  ( [
      { name = "latency_p50_ms"; value = q 0.5; unit_ = "ms" };
      { name = "latency_p90_ms"; value = q 0.9; unit_ = "ms" };
      { name = "latency_p99_ms"; value = q 0.99; unit_ = "ms" };
    ],
    [
      ("latency_samples", Json.Int (Array.length lat_ms));
      ("samples_beyond_p90", Json.Int (Measure.beyond lat_ms 0.9));
      ("samples_beyond_p99", Json.Int (Measure.beyond lat_ms 0.99));
    ] )

(* Per-mode totals of the closed loop. *)
type mode = {
  mutable passes : float array list;  (* latencies (ms) per pass, newest first *)
  mutable busy_s : float;  (* wall time of this mode's passes *)
  mutable ops : int;
  mutable minor_words : float;
  mutable major_collections : int;
}

let new_mode () =
  {
    passes = [];
    busy_s = 0.;
    ops = 0;
    minor_words = 0.;
    major_collections = 0;
  }

let latencies m = Array.concat (List.rev m.passes)

let ops_per_s m = float_of_int m.ops /. m.busy_s

(* One client, one operation at a time. Whole passes over the [size]
   inputs run until [seconds] have elapsed, so every input is measured
   equally often. With [trace] the passes alternate untraced / traced
   (untraced first), and each traced operation runs inside a root span
   named [root] — the difference between the two modes is the tracing
   overhead. [op ~traced ~seq i] runs input [i] as operation [seq];
   [probe ~seq i] runs after each traced operation, outside its timing. *)
let closed_loop ?(probe = fun ~seq:_ _ -> ()) ~seconds ~size ~trace ~spans ~root op =
  let plain = new_mode () and traced = new_mode () in
  let deadline = Int64.add (Measure.now_ns ()) (Int64.of_float (seconds *. 1e9)) in
  let seq = ref 0 in
  let pass = ref 0 in
  while !pass < (if trace then 2 else 1) || Measure.now_ns () < deadline do
    let is_traced = trace && !pass land 1 = 1 in
    let m = if is_traced then traced else plain in
    let gc0 = Measure.gc_mark () in
    let p0 = Measure.now_ns () in
    let lat = Array.make size 0. in
    for i = 0 to size - 1 do
      let t0 = Measure.now_ns () in
      if is_traced then begin
        Spans.set_op spans !seq;
        Spans.with_span spans root (fun () -> op ~traced:true ~seq:!seq i)
      end
      else op ~traced:false ~seq:!seq i;
      lat.(i) <- Measure.ms_between t0 (Measure.now_ns ());
      if is_traced then probe ~seq:!seq i;
      incr seq
    done;
    m.busy_s <- m.busy_s +. Measure.s_between p0 (Measure.now_ns ());
    m.passes <- lat :: m.passes;
    let minor, major = Measure.gc_since gc0 in
    m.minor_words <- m.minor_words +. minor;
    m.major_collections <- m.major_collections + major;
    m.ops <- m.ops + size;
    incr pass
  done;
  (plain, traced)

let gc_layers m =
  [
    ("gc.minor_words_per_op", m.minor_words /. float_of_int m.ops);
    ( "gc.major_collections_per_op",
      float_of_int m.major_collections /. float_of_int m.ops );
  ]

(* Tracing overhead (from mean latencies, so probes between traced
   operations do not count) and how much of each traced operation the
   layer spans cover. *)
let trace_layers ~plain ~traced ~spans ~root =
  let mean_lat m = Measure.mean (latencies m) in
  let cov = Spans.coverage spans ~root in
  let total = List.fold_left (fun a (d, _) -> a +. d) 0. cov in
  let covered = List.fold_left (fun a (_, c) -> a +. c) 0. cov in
  [
    ("trace.overhead_ratio", mean_lat plain /. mean_lat traced);
    ("trace.span_coverage_ratio", covered /. total);
    ( "trace.unattributed_ms_per_op",
      (total -. covered) /. float_of_int (List.length cov) );
  ]

(* Failed operations and the first few messages. *)
type failures = { mutable count : int; mutable msgs : string list }

let new_failures () = { count = 0; msgs = [] }

let note f msg = if List.length f.msgs < 8 then f.msgs <- msg :: f.msgs

(* An operation failed. *)
let fail f msg =
  f.count <- f.count + 1;
  note f msg

let fnv_vec x = Serve.Fingerprint.to_hex (Serve.Fingerprint.vec Wire.Fnv.offset x)
