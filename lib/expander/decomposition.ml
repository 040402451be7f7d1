type t = {
  clusters : int array list;
  crossing : int list;
  phi : float;
  rounds : int;
}

let rounds_formula ~n ~gamma =
  let nf = float_of_int (max n 2) in
  int_of_float (Float.ceil (nf ** gamma)) + (4 * Runtime.Cost.log2_ceil n)

(* The broadcast-model recharge of the same call. The unicast ⌈n^γ⌉ core
   is send-bound (per-node distinct traffic through Lenzen routing), which
   the broadcast clique cannot afford; FV22 (arXiv:2205.12059) replace it
   with a polylogarithmic-round construction. We charge a quadratic polylog
   with explicit constants — 4(⌈log₂ n⌉+1)² plus the same O(log n) tail —
   as the reference stand-in; at bench sizes this is *more* than ⌈n^γ⌉,
   the asymptotic crossover being the honest story (EXPERIMENTS.md E11). *)
let bcast_rounds_formula ~n =
  let logn = Runtime.Cost.log2_ceil (max n 2) in
  (4 * (logn + 1) * (logn + 1)) + (4 * logn)

let decompose ?(phi = 0.05) ?(gamma = 0.25) g =
  let n = Graph.n g in
  let clusters = ref [] in
  let rec refine (vs : int array) =
    let k = Array.length vs in
    if k <= 2 then clusters := vs :: !clusters
    else begin
      let sub, _ = Graph.induced g vs in
      let comps = Traversal.component_members sub in
      match comps with
      | [] -> ()
      | _ :: _ :: _ ->
        (* Disconnected: recurse on components; no edges cross them. *)
        List.iter
          (fun comp -> refine (Array.map (fun i -> vs.(i)) comp))
          comps
      | [ _ ] ->
        let certified, cut =
          if k <= 14 then begin
            let inside, best_phi = Conductance.best_cut sub in
            (best_phi >= phi, inside)
          end
          else begin
            let lambda2, x = Fiedler.approx sub in
            if lambda2 /. 2. >= phi then (true, [||])
            else begin
              let inside, _ = Conductance.sweep_cut sub x in
              (false, inside)
            end
          end
        in
        if certified then clusters := vs :: !clusters
        else begin
          let left = ref [] and right = ref [] in
          Array.iteri
            (fun i v -> if cut.(i) then left := v :: !left else right := v :: !right)
            vs;
          match (!left, !right) with
          | [], _ | _, [] ->
            (* Degenerate cut: accept to guarantee termination. *)
            clusters := vs :: !clusters
          | l, r ->
            refine (Array.of_list (List.rev l));
            refine (Array.of_list (List.rev r))
        end
    end
  in
  refine (Array.init n (fun i -> i));
  let cluster_index = Array.make n (-1) in
  List.iteri
    (fun ci vs -> Array.iter (fun v -> cluster_index.(v) <- ci) vs)
    !clusters;
  let crossing = ref [] in
  Array.iteri
    (fun id e ->
      if cluster_index.(e.Graph.u) <> cluster_index.(e.Graph.v) then
        crossing := id :: !crossing)
    (Graph.edges g);
  {
    clusters = !clusters;
    crossing = List.rev !crossing;
    phi;
    rounds = rounds_formula ~n ~gamma;
  }

let cluster_of d v =
  let rec loop i = function
    | [] -> invalid_arg "Decomposition.cluster_of: vertex not found"
    | vs :: rest -> if Array.exists (( = ) v) vs then i else loop (i + 1) rest
  in
  loop 0 d.clusters

let check g d =
  let n = Graph.n g in
  let seen = Array.make n 0 in
  List.iter (fun vs -> Array.iter (fun v -> seen.(v) <- seen.(v) + 1) vs) d.clusters;
  let partition_ok = Array.for_all (( = ) 1) seen in
  let cluster_index = Array.make n (-1) in
  List.iteri
    (fun ci vs -> Array.iter (fun v -> cluster_index.(v) <- ci) vs)
    d.clusters;
  let expected_crossing = ref [] in
  Array.iteri
    (fun id e ->
      if cluster_index.(e.Graph.u) <> cluster_index.(e.Graph.v) then
        expected_crossing := id :: !expected_crossing)
    (Graph.edges g);
  partition_ok && List.rev !expected_crossing = d.crossing

let crossing_fraction g d =
  let m = Graph.m g in
  if m = 0 then 0. else float_of_int (List.length d.crossing) /. float_of_int m
