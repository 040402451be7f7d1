let volume g inside =
  let acc = ref 0. in
  for v = 0 to Graph.n g - 1 do
    if inside.(v) then acc := !acc +. Graph.weighted_degree g v
  done;
  !acc

let cut_weight g inside =
  Array.fold_left
    (fun acc e ->
      if inside.(e.Graph.u) <> inside.(e.Graph.v) then acc +. e.Graph.w
      else acc)
    0. (Graph.edges g)

let of_cut g inside =
  let vol_in = volume g inside in
  let vol_out =
    Array.fold_left (fun acc e -> acc +. (2. *. e.Graph.w)) 0. (Graph.edges g)
    -. vol_in
  in
  let denom = Float.min vol_in vol_out in
  if denom <= 0. then infinity else cut_weight g inside /. denom

let best_cut g =
  let n = Graph.n g in
  if n < 1 || n > 20 then
    invalid_arg "Conductance.best_cut: need 1 <= n <= 20";
  let edges = Graph.edges g in
  let deg = Array.init n (Graph.weighted_degree g) in
  let total_vol =
    Array.fold_left (fun acc e -> acc +. (2. *. e.Graph.w)) 0. edges
  in
  let inside = Array.make n false in
  inside.(0) <- true;
  let best_phi = ref infinity in
  let best = ref (Array.make n false) in
  (* Subsets containing vertex 0 (complements cover the rest), summed in
     [of_cut]'s vertex and edge order; the last mask would put every vertex
     inside and is skipped. *)
  for mask = 1 to (1 lsl (n - 1)) - 2 do
    for b = 0 to n - 2 do
      inside.(b + 1) <- (mask lsr b) land 1 = 1
    done;
    let vol_in = ref 0. in
    for v = 0 to n - 1 do
      if inside.(v) then vol_in := !vol_in +. deg.(v)
    done;
    let denom = Float.min !vol_in (total_vol -. !vol_in) in
    let phi =
      if denom <= 0. then infinity
      else begin
        let cut = ref 0. in
        for i = 0 to Array.length edges - 1 do
          let e = edges.(i) in
          if inside.(e.Graph.u) <> inside.(e.Graph.v) then
            cut := !cut +. e.Graph.w
        done;
        !cut /. denom
      end
    in
    if phi < !best_phi then begin
      best_phi := phi;
      best := Array.copy inside
    end
  done;
  (!best, !best_phi)

let exact g =
  let n = Graph.n g in
  if n > 20 then invalid_arg "Conductance.exact: too large (n > 20)";
  if n < 2 then infinity else snd (best_cut g)

let sweep_cut g x =
  let n = Graph.n g in
  if n < 2 then ([| true |], infinity)
  else begin
    let order = Array.init n (fun i -> i) in
    Array.sort (fun a b -> compare x.(a) x.(b)) order;
    let inside = Array.make n false in
    let total_vol =
      Array.fold_left (fun acc e -> acc +. (2. *. e.Graph.w)) 0.
        (Graph.edges g)
    in
    let vol_in = ref 0. in
    let cut = ref 0. in
    let best = ref infinity in
    let best_prefix = ref 1 in
    for k = 0 to n - 2 do
      let v = order.(k) in
      inside.(v) <- true;
      vol_in := !vol_in +. Graph.weighted_degree g v;
      (* Adding v flips the crossing status of each incident edge. *)
      List.iter
        (fun (u, id) ->
          let w = (Graph.edge g id).Graph.w in
          if inside.(u) then cut := !cut -. w else cut := !cut +. w)
        (Graph.adj g v);
      let denom = Float.min !vol_in (total_vol -. !vol_in) in
      let phi = if denom <= 0. then infinity else !cut /. denom in
      if phi < !best then begin
        best := phi;
        best_prefix := k + 1
      end
    done;
    let result = Array.make n false in
    for k = 0 to !best_prefix - 1 do
      result.(order.(k)) <- true
    done;
    (result, !best)
  end
