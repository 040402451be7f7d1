type backend = Buckets | Bss_internal of int

type result = {
  sparsifier : Graph.t;
  levels : int;
  classes : int;
  rounds : int;
  phase_rounds : (string * int) list;
}

let weight_class w = int_of_float (Float.floor (Float.log2 w))

(* Sparsify one expander cluster: translate the induced-subgraph stand-in
   back to original vertex identifiers. *)
let cluster_sparsifier backend sub vs =
  let k = Graph.n sub in
  let translate h =
    Array.to_list (Graph.edges h)
    |> List.map (fun e -> { e with Graph.u = vs.(e.Graph.u); v = vs.(e.Graph.v) })
  in
  if k < 2 then []
  else begin
    match backend with
    | Buckets ->
      if Graph.m sub <= 2 * k then translate sub
      else begin
        (* Keep whichever representation is smaller — a cluster below the
           stand-in's own size would only grow. *)
        let candidate = Product_demand.sparse sub in
        if Graph.m candidate < Graph.m sub then translate candidate
        else translate sub
      end
    | Bss_internal d ->
      if Graph.m sub <= d * (k - 1) || not (Graph.is_connected sub) then
        translate sub
      else translate (Bss.sparsify ~d sub)
  end

let sparsify ?(phi = 0.05) ?(gamma = 0.25) ?max_levels ?(backend = Buckets)
    ?model g =
  let model =
    match model with Some m -> m | None -> (Runtime.Config.get ()).model
  in
  let n = Graph.n g in
  let m = Graph.m g in
  let max_levels =
    match max_levels with
    | Some k -> k
    | None -> (4 * Runtime.Cost.log2_ceil (max m 2)) + 4
  in
  (* Binary weight classes (the log U factor of Theorem 3.3). *)
  let class_tbl = Hashtbl.create 8 in
  Array.iteri
    (fun id e ->
      let c = weight_class e.Graph.w in
      let cur = try Hashtbl.find class_tbl c with Not_found -> [] in
      Hashtbl.replace class_tbl c (id :: cur))
    (Graph.edges g);
  let class_list =
    Hashtbl.fold (fun c ids acc -> (c, List.rev ids) :: acc) class_tbl []
    |> List.sort compare
  in
  let rt = Clique.Kernel.clique (max 1 n) in
  let max_level_used = ref 0 in
  let sparsifier_edges = ref [] in
  List.iter
    (fun (_c, ids) ->
      let current = ref (Graph.sub_edges g ids) in
      let level = ref 0 in
      while Graph.m !current > 0 && !level < max_levels do
        incr level;
        max_level_used := max !max_level_used !level;
        let d = Expander.Decomposition.decompose ~phi ~gamma !current in
        (* The partition itself is model-independent; only its charged
           price differs. Unicast pays the Theorem 3.2 formula; broadcast
           pays the FV22 polylog recharge of the send-bound core
           (DESIGN.md §13). The one-round result broadcast costs the same
           either way — broadcasting is the model's native move. *)
        let decompose_rounds =
          match model with
          | Runtime.Model.Unicast -> d.Expander.Decomposition.rounds
          | Runtime.Model.Broadcast ->
            Expander.Decomposition.bcast_rounds_formula
              ~n:(Graph.n !current)
        in
        Clique.Kernel.charge rt ~phase:"decompose"
          (decompose_rounds + Runtime.Cost.broadcast_rounds);
        List.iter
          (fun vs ->
            let sub, _ = Graph.induced !current vs in
            sparsifier_edges :=
              cluster_sparsifier backend sub vs @ !sparsifier_edges)
          d.Expander.Decomposition.clusters;
        current := Graph.sub_edges !current d.Expander.Decomposition.crossing
      done;
      (* Level cap reached with edges remaining: keep them verbatim. *)
      if Graph.m !current > 0 then
        sparsifier_edges :=
          Array.to_list (Graph.edges !current) @ !sparsifier_edges)
    class_list;
  let h = Graph.reweight_simple (Graph.create n !sparsifier_edges) in
  (* Make the sparsifier globally known: gather all its edges everywhere. *)
  let u = Float.max 1. (Graph.max_weight g) in
  let bits_per_edge =
    (3 * Runtime.Cost.log2_ceil (max n 2))
    + Runtime.Cost.log2_ceil (int_of_float (Float.ceil u) + 1)
  in
  (* A gather is receive-bound, so the two models price it almost alike:
     ⌈m·w/(n-1)⌉ unicast vs ⌈m·w/n⌉ broadcast. *)
  Clique.Kernel.charge rt ~phase:"gather"
    (match model with
    | Runtime.Model.Unicast ->
      Runtime.Cost.gather_rounds ~n ~m:(Graph.m h) ~bits_per_edge
    | Runtime.Model.Broadcast ->
      Runtime.Cost.bcast_gather_rounds ~n ~m:(Graph.m h) ~bits_per_edge);
  {
    sparsifier = h;
    levels = !max_level_used;
    classes = List.length class_list;
    rounds = Clique.Kernel.rounds rt;
    phase_rounds = Clique.Kernel.phases rt;
  }

let size_bound ~n ~u =
  let logn = Runtime.Cost.log2_ceil (max n 2) in
  let logu = 1 + Runtime.Cost.log2_ceil (int_of_float (Float.ceil u) + 1) in
  (* Per weight class and level: O(n · degree) cluster edges with
     degree = O(log n); levels = O(log m) = O(log n). *)
  32 * n * (logn + 4) * (logn + 4) * logu

let rounds_bound ~n ~u ~gamma =
  let logn = Runtime.Cost.log2_ceil (max n 2) in
  let logu = 1 + Runtime.Cost.log2_ceil (int_of_float (Float.ceil u) + 1) in
  let per_call = Expander.Decomposition.rounds_formula ~n ~gamma in
  (4 * (logn + 1) * logu * (per_call + 1)) + (8 * (logn + 4) * (logn + 4) * logu)

let bcast_rounds_bound ~n ~u =
  (* Same envelope as [rounds_bound] with the per-decomposition cost
     swapped for the broadcast recharge: O(log n · log U · polylog n). *)
  let logn = Runtime.Cost.log2_ceil (max n 2) in
  let logu = 1 + Runtime.Cost.log2_ceil (int_of_float (Float.ceil u) + 1) in
  let per_call = Expander.Decomposition.bcast_rounds_formula ~n in
  (4 * (logn + 1) * logu * (per_call + 1)) + (8 * (logn + 4) * (logn + 4) * logu)
