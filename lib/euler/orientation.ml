type selector = Cole_vishkin | Sampling of int64

type ring_edge = { edge : int; along : bool }

type result = {
  orientation : bool array;
  rounds : int;
  rings : int;
  iterations : int;
  coloring_rounds : int;
  phase_rounds : (string * int) list;
}

let is_eulerian g =
  let ok = ref true in
  for v = 0 to Graph.n g - 1 do
    if Graph.degree g v land 1 = 1 then ok := false
  done;
  !ok

(* Step 1 (internal): each vertex pairs its incident edges; following the
   pairs decomposes the edge multiset into closed trails. [partner.(v)] maps
   an incident edge id to the edge it is paired with at v. *)
let build_trails g =
  let n = Graph.n g in
  let m = Graph.m g in
  let partner = Array.init n (fun _ -> Hashtbl.create 4) in
  for v = 0 to n - 1 do
    let incident = List.map snd (Graph.adj g v) in
    let rec pair_up = function
      | [] -> ()
      | [ _ ] -> invalid_arg "Orientation: odd degree"
      | a :: b :: rest ->
        Hashtbl.replace partner.(v) a b;
        Hashtbl.replace partner.(v) b a;
        pair_up rest
    in
    pair_up incident
  done;
  let used = Array.make m false in
  let trails = ref [] in
  for e0 = 0 to m - 1 do
    if not used.(e0) then begin
      let start_edge = Graph.edge g e0 in
      let trail = ref [] in
      let cur = ref e0 in
      let from = ref start_edge.Graph.u in
      let closed = ref false in
      while not !closed do
        used.(!cur) <- true;
        let e = Graph.edge g !cur in
        let along = e.Graph.u = !from in
        trail := { edge = !cur; along } :: !trail;
        let arrive = if along then e.Graph.v else e.Graph.u in
        let nxt = Hashtbl.find partner.(arrive) !cur in
        if used.(nxt) then begin
          (* The trail can only close at its start pair. *)
          assert (nxt = e0 && arrive = start_edge.Graph.u);
          closed := true
        end
        else begin
          cur := nxt;
          from := arrive
        end
      done;
      trails := List.rev !trail :: !trails
    end
  done;
  List.rev !trails

(* One contraction iteration over all rings simultaneously: 3-color the
   active positions, keep the higher-ID endpoint of each matched link.
   With [Sampling], survivors are chosen by coin flips instead (the paper's
   randomized remark: drops the log* n coloring rounds). *)
let contract_once ?rng ~succ ~pred ~active ~eligible ~ring_of () =
  let positions =
    Array.of_list
      (List.filter
         (fun i -> active.(i) && eligible i)
         (List.init (Array.length succ) Fun.id))
  in
  let k = Array.length positions in
  let index = Hashtbl.create k in
  Array.iteri (fun slot p -> Hashtbl.replace index p slot) positions;
  let s = Array.map (fun p -> Hashtbl.find index succ.(p)) positions in
  let p = Array.map (fun q -> Hashtbl.find index pred.(q)) positions in
  let ids = Array.copy positions in
  let keep = Array.make k false in
  let cv_rounds =
    match rng with
    | None ->
      (* The coloring chain runs as real node programs over the active
         positions; only its measured round count flows back (charged into
         the orientation's ledger by the caller). *)
      let colors, cv_rounds =
        Clique.Kernel.with_clique k (fun rt ->
            Clique.Kernel.Sim_programs.three_color rt ~ids ~succ:s ~pred:p)
      in
      let matched =
        Coloring.maximal_matching_on_cycles ~colors ~succ:s ~pred:p
      in
      (* Mark the higher-ID endpoint of every matched link; everyone else is
         deactivated and bridged over. *)
      Array.iteri
        (fun i m ->
          if m then begin
            let j = s.(i) in
            if ids.(i) > ids.(j) then keep.(i) <- true else keep.(j) <- true
          end)
        matched;
      cv_rounds
    | Some rng ->
      (* Randomized selection: one coin flip each, zero coloring rounds.
         Guarantee a survivor per ring by retaining the max-ID position of
         any ring the coins would wipe out. *)
      Array.iteri (fun i _ -> keep.(i) <- Prng.bool rng) positions;
      let ring_best = Hashtbl.create 16 in
      Array.iteri
        (fun i pos ->
          let r = ring_of pos in
          match Hashtbl.find_opt ring_best r with
          | Some (_, best_id) when best_id >= ids.(i) -> ()
          | _ -> Hashtbl.replace ring_best r (i, ids.(i)))
        positions;
      let ring_alive = Hashtbl.create 16 in
      Array.iteri
        (fun i pos -> if keep.(i) then Hashtbl.replace ring_alive (ring_of pos) ())
        positions;
      Hashtbl.iter
        (fun r (i, _) -> if not (Hashtbl.mem ring_alive r) then keep.(i) <- true)
        ring_best;
      (* Also never keep a whole ring intact forever: if every position of a
         ring survived the flips, drop its minimum-ID one. *)
      let ring_total = Hashtbl.create 16 in
      Array.iteri
        (fun i pos ->
          let r = ring_of pos in
          let tot, kept, mn =
            match Hashtbl.find_opt ring_total r with
            | Some x -> x
            | None -> (0, 0, None)
          in
          let mn =
            match mn with
            | Some (j, best) when best <= ids.(i) -> Some (j, best)
            | _ -> Some (i, ids.(i))
          in
          Hashtbl.replace ring_total r
            (tot + 1, (kept + if keep.(i) then 1 else 0), mn))
        positions;
      Hashtbl.iter
        (fun _ (tot, kept, mn) ->
          if tot > 1 && kept = tot then
            match mn with Some (i, _) -> keep.(i) <- false | None -> ())
        ring_total;
      0
  in
  Array.iteri (fun slot p -> if not keep.(slot) then active.(p) <- false)
    positions;
  (* Rebuild succ/pred chains among survivors by walking each bridged run
     (this is the 4-round both-directions forwarding, delivered by Lenzen
     routing in the clique). *)
  Array.iteri
    (fun slot pos ->
      if keep.(slot) then begin
        let q = ref succ.(pos) in
        while not active.(!q) do
          q := succ.(!q)
        done;
        succ.(pos) <- !q;
        pred.(!q) <- pos
      end)
    positions;
  cv_rounds

let orient ?(selector = Cole_vishkin) ?(choose = fun (_ : ring_edge list) -> true) g =
  if not (is_eulerian g) then
    invalid_arg "Orientation.orient: graph has an odd-degree vertex";
  let m = Graph.m g in
  let trails = build_trails g in
  let orientation = Array.make m true in
  if m = 0 then
    {
      orientation;
      rounds = 0;
      rings = 0;
      iterations = 0;
      coloring_rounds = 0;
      phase_rounds = [];
    }
  else begin
    (* Flatten the trails into global positions. *)
    let total = List.fold_left (fun a t -> a + List.length t) 0 trails in
    let succ = Array.make total 0 in
    let pred = Array.make total 0 in
    let ring_of = Array.make total 0 in
    let ring_sizes = Array.make (List.length trails) 0 in
    let content = Array.make total { edge = 0; along = true } in
    let offset = ref 0 in
    List.iteri
      (fun r trail ->
        let len = List.length trail in
        ring_sizes.(r) <- len;
        List.iteri
          (fun i re ->
            let pos = !offset + i in
            content.(pos) <- re;
            ring_of.(pos) <- r;
            succ.(pos) <- !offset + ((i + 1) mod len);
            pred.(pos) <- !offset + ((i + len - 1) mod len))
          trail;
        offset := !offset + len)
      trails;
    let rng =
      match selector with
      | Cole_vishkin -> None
      | Sampling seed -> Some (Prng.create seed)
    in
    let rt = Clique.Kernel.clique (max 1 (Graph.n g)) in
    let active = Array.make total true in
    let active_per_ring = Array.copy ring_sizes in
    let iterations = ref 0 in
    let coloring_rounds = ref 0 in
    let forward_rounds = ref 0 in
    let needs_work () = Array.exists (fun c -> c > 1) active_per_ring in
    while needs_work () do
      incr iterations;
      (* Rings already down to a single survivor are done; only multi-active
         rings participate (a singleton has succ = itself and no link to
         color). *)
      let eligible pos = active_per_ring.(ring_of.(pos)) > 1 in
      let cv =
        contract_once ?rng ~succ ~pred ~active ~eligible
          ~ring_of:(fun pos -> ring_of.(pos))
          ()
      in
      coloring_rounds := !coloring_rounds + cv;
      (* CV exchange + the constant-round bridged forwarding via routing. *)
      Clique.Kernel.charge rt ~phase:"coloring" cv;
      Clique.Kernel.charge rt ~phase:"bridge" Runtime.Cost.lenzen_routing_rounds;
      forward_rounds := !forward_rounds + cv + Runtime.Cost.lenzen_routing_rounds;
      Array.fill active_per_ring 0 (Array.length active_per_ring) 0;
      Array.iteri
        (fun pos a ->
          if a then
            active_per_ring.(ring_of.(pos)) <-
              active_per_ring.(ring_of.(pos)) + 1)
        active
    done;
    (* Each surviving leader decides its ring's direction; the reverse phase
       replays the contraction to spread the decision. *)
    let rings = List.length trails in
    let ring_members = Array.make rings [] in
    for pos = total - 1 downto 0 do
      ring_members.(ring_of.(pos)) <- content.(pos) :: ring_members.(ring_of.(pos))
    done;
    for r = 0 to rings - 1 do
      let keep_direction = choose ring_members.(r) in
      List.iter
        (fun re ->
          orientation.(re.edge) <- (if keep_direction then re.along else not re.along))
        ring_members.(r)
    done;
    (* Spreading the decision replays the contraction backwards (same round
       count as the forward phase), plus the O(1)-round leader election. *)
    Clique.Kernel.charge rt ~phase:"reverse" !forward_rounds;
    Clique.Kernel.charge rt ~phase:"decision" 4;
    {
      orientation;
      rounds = Clique.Kernel.rounds rt;
      rings;
      iterations = !iterations;
      coloring_rounds = !coloring_rounds;
      phase_rounds = Clique.Kernel.phases rt;
    }
  end

let check g orientation =
  let n = Graph.n g in
  let balance = Array.make n 0 in
  Array.iteri
    (fun id e ->
      let u, v =
        if orientation.(id) then (e.Graph.u, e.Graph.v)
        else (e.Graph.v, e.Graph.u)
      in
      balance.(u) <- balance.(u) + 1;
      balance.(v) <- balance.(v) - 1)
    (Graph.edges g);
  Array.for_all (( = ) 0) balance

let rounds_reference ~n =
  let logn = Runtime.Cost.log2_ceil (max n 2) in
  let logstar = Coloring.log_star (max n 2) in
  2 * logn * (logstar + 5 + Runtime.Cost.lenzen_routing_rounds)
