type result = { edges : int list; weight : float; rounds : int; phases : int }

let edge_key g id =
  let e = Graph.edge g id in
  (e.Graph.w, id)

let kruskal g =
  let ids = List.init (Graph.m g) Fun.id in
  let sorted =
    List.sort (fun a b -> compare (edge_key g a) (edge_key g b)) ids
  in
  let uf = Unionfind.create (Graph.n g) in
  List.filter
    (fun id ->
      let e = Graph.edge g id in
      Unionfind.union uf e.Graph.u e.Graph.v)
    sorted

(* The distributed algorithm itself lives in {!Programs.Make}; this wrapper
   runs it on a scoped clique kernel and packages the measured rounds. *)
let minimum_spanning_tree g =
  Kernel.with_clique (Graph.n g) (fun rt ->
      let edges, weight, phases = Kernel.Sim_programs.boruvka rt g in
      { edges; weight; rounds = Kernel.rounds rt; phases })
