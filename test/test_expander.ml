(* Tests for conductance, Fiedler approximation, expander decomposition. *)

module Graph_gen = Gen

let test_conductance_complete () =
  (* K4: any cut S of size 1 has cut 3, vol 3 → φ = 1. Size-2 cuts: cut 4,
     vol 6 → 2/3. Exact conductance = 2/3. *)
  let g = Graph_gen.complete 4 in
  Alcotest.(check (float 1e-9)) "K4 conductance" (2. /. 3.)
    (Expander.Conductance.exact g)

let test_conductance_path () =
  (* Path on 4: cutting the middle edge: cut 1, vol min = 3 → 1/3;
     cutting an end edge: 1/1 = 1... vol of single endpoint = 1, cut 1 → 1.
     middle cut vol(S)=deg0+deg1=1+2=3 → 1/3. Exact = 1/3. *)
  let g = Graph_gen.path 4 in
  Alcotest.(check (float 1e-9)) "P4 conductance" (1. /. 3.)
    (Expander.Conductance.exact g)

let test_conductance_of_cut_barbell () =
  let g = Graph_gen.barbell 6 in
  let inside = Array.init 12 (fun v -> v < 6) in
  let phi = Expander.Conductance.of_cut g inside in
  (* bridge weight 1; vol side = 6·5 + 1 = 31 *)
  Alcotest.(check (float 1e-9)) "bridge cut" (1. /. 31.) phi

let test_fiedler_lambda2_path_vs_exact () =
  let g = Graph_gen.path 8 in
  let exact = Expander.Fiedler.lambda2_exact g in
  let approx, _ = Expander.Fiedler.approx ~iters:2000 g in
  Alcotest.(check bool) "approx close to exact" true
    (Float.abs (exact -. approx) < 0.05 *. Float.max exact 0.05)

let test_fiedler_lambda2_complete () =
  (* Normalized Laplacian of K_n has λ₂ = n/(n−1). *)
  let g = Graph_gen.complete 8 in
  let exact = Expander.Fiedler.lambda2_exact g in
  Alcotest.(check (float 1e-6)) "K8 normalized λ₂" (8. /. 7.) exact

let test_fiedler_sweep_finds_barbell_cut () =
  let g = Graph_gen.barbell 8 in
  let _, x = Expander.Fiedler.approx g in
  let inside, phi = Expander.Conductance.sweep_cut g x in
  (* The sweep should find (nearly) the bridge cut. *)
  Alcotest.(check bool) "sparse cut found" true (phi < 0.05);
  let size = Array.fold_left (fun a b -> if b then a + 1 else a) 0 inside in
  Alcotest.(check bool) "balanced-ish" true (size >= 2 && size <= 14)

let test_decomposition_expander_stays_whole () =
  (* A good expander should come back as (nearly) one cluster. *)
  let g = Graph_gen.expander 64 8 in
  let d = Expander.Decomposition.decompose ~phi:0.05 g in
  Alcotest.(check bool) "valid" true (Expander.Decomposition.check g d);
  Alcotest.(check bool) "few clusters" true
    (List.length d.Expander.Decomposition.clusters <= 4);
  Alcotest.(check bool) "few crossing edges" true
    (Expander.Decomposition.crossing_fraction g d <= 0.5)

let test_decomposition_barbell_splits () =
  let g = Graph_gen.barbell 10 in
  let d = Expander.Decomposition.decompose ~phi:0.05 g in
  Alcotest.(check bool) "valid" true (Expander.Decomposition.check g d);
  Alcotest.(check bool) "at least two clusters" true
    (List.length d.Expander.Decomposition.clusters >= 2);
  (* Only the bridge should cross. *)
  Alcotest.(check bool) "few crossing" true
    (List.length d.Expander.Decomposition.crossing <= 3)

let test_decomposition_planted_partition () =
  let g = Graph_gen.planted_partition ~seed:21L 40 0.5 0.02 in
  let d = Expander.Decomposition.decompose ~phi:0.05 g in
  Alcotest.(check bool) "valid" true (Expander.Decomposition.check g d);
  (* Crossing fraction stays well below the dense intra-community part. *)
  Alcotest.(check bool) "crossing fraction < 1/4" true
    (Expander.Decomposition.crossing_fraction g d < 0.25)

let test_decomposition_clusters_certified () =
  (* Every accepted cluster of size ≥ 3 should have measured conductance
     within a constant factor of the target (Cheeger slack is √). *)
  let g = Graph_gen.connected_gnp ~seed:33L 60 0.12 in
  let phi = 0.05 in
  let d = Expander.Decomposition.decompose ~phi g in
  Alcotest.(check bool) "valid" true (Expander.Decomposition.check g d);
  List.iter
    (fun vs ->
      if Array.length vs >= 3 && Array.length vs <= 16 then begin
        let sub, _ = Graph.induced g vs in
        if Graph.m sub > 0 && Graph.is_connected sub then begin
          let measured = Expander.Conductance.exact sub in
          if measured < phi then
            Alcotest.failf "cluster of size %d has conductance %f < %f"
              (Array.length vs) measured phi
        end
      end)
    d.Expander.Decomposition.clusters

let test_decomposition_disconnected () =
  let g =
    Graph.create 6
      [
        { Graph.u = 0; v = 1; w = 1. };
        { Graph.u = 1; v = 2; w = 1. };
        { Graph.u = 3; v = 4; w = 1. };
      ]
  in
  let d = Expander.Decomposition.decompose g in
  Alcotest.(check bool) "valid" true (Expander.Decomposition.check g d);
  Alcotest.(check int) "no crossing edges" 0
    (List.length d.Expander.Decomposition.crossing)

let test_rounds_formula_monotone () =
  let r1 = Expander.Decomposition.rounds_formula ~n:100 ~gamma:0.25 in
  let r2 = Expander.Decomposition.rounds_formula ~n:10000 ~gamma:0.25 in
  Alcotest.(check bool) "monotone" true (r2 > r1);
  (* Sub-linear in n. *)
  Alcotest.(check bool) "sublinear" true (r2 < 10000)

let qcheck_tests =
  let open QCheck in
  [
    Test.make ~name:"decomposition always partitions" ~count:30 small_nat
      (fun seed ->
        let g =
          Graph_gen.connected_gnp ~seed:(Int64.of_int (seed + 3)) 24 0.15
        in
        let d = Expander.Decomposition.decompose g in
        Expander.Decomposition.check g d);
    Test.make ~name:"sweep conductance >= exact" ~count:20 small_nat
      (fun seed ->
        let g =
          Graph_gen.connected_gnp ~seed:(Int64.of_int (seed + 11)) 10 0.4
        in
        let _, x = Expander.Fiedler.approx g in
        let _, phi_sweep = Expander.Conductance.sweep_cut g x in
        let phi_exact = Expander.Conductance.exact g in
        phi_sweep >= phi_exact -. 1e-9);
    Test.make ~name:"cheeger: sweep <= sqrt(2 λ2)" ~count:20 small_nat
      (fun seed ->
        let g =
          Graph_gen.connected_gnp ~seed:(Int64.of_int (seed + 17)) 12 0.3
        in
        let lambda2 = Expander.Fiedler.lambda2_exact g in
        let _, x = Expander.Fiedler.approx ~iters:2000 g in
        let _, phi_sweep = Expander.Conductance.sweep_cut g x in
        (* Cheeger rounding guarantee with slack for approximation error. *)
        phi_sweep <= sqrt (2. *. lambda2) +. 0.1);
  ]

let suite =
  [
    Alcotest.test_case "conductance K4" `Quick test_conductance_complete;
    Alcotest.test_case "conductance P4" `Quick test_conductance_path;
    Alcotest.test_case "conductance barbell cut" `Quick
      test_conductance_of_cut_barbell;
    Alcotest.test_case "fiedler approx vs exact" `Quick
      test_fiedler_lambda2_path_vs_exact;
    Alcotest.test_case "fiedler K8 exact" `Quick test_fiedler_lambda2_complete;
    Alcotest.test_case "sweep finds barbell cut" `Quick
      test_fiedler_sweep_finds_barbell_cut;
    Alcotest.test_case "decomposition: expander whole" `Slow
      test_decomposition_expander_stays_whole;
    Alcotest.test_case "decomposition: barbell splits" `Quick
      test_decomposition_barbell_splits;
    Alcotest.test_case "decomposition: planted partition" `Quick
      test_decomposition_planted_partition;
    Alcotest.test_case "decomposition: clusters certified" `Quick
      test_decomposition_clusters_certified;
    Alcotest.test_case "decomposition: disconnected" `Quick
      test_decomposition_disconnected;
    Alcotest.test_case "rounds formula" `Quick test_rounds_formula_monotone;
  ]
  @ List.map (QCheck_alcotest.to_alcotest ~long:false) qcheck_tests

(* --------------------------------------------------- additional coverage *)

let test_decomposition_phi_extremes () =
  let g = Graph_gen.connected_gnp ~seed:91L 40 0.3 in
  (* A tiny φ accepts almost anything: few clusters. *)
  let loose = Expander.Decomposition.decompose ~phi:1e-6 g in
  (* A large φ must cut a lot: many clusters. *)
  let tight = Expander.Decomposition.decompose ~phi:0.45 g in
  Alcotest.(check bool) "loose coarser than tight" true
    (List.length loose.Expander.Decomposition.clusters
    <= List.length tight.Expander.Decomposition.clusters);
  Alcotest.(check bool) "both valid" true
    (Expander.Decomposition.check g loose && Expander.Decomposition.check g tight)

let test_fiedler_barbell_gap () =
  (* λ₂ of a barbell is tiny (low conductance). *)
  let g = Graph_gen.barbell 10 in
  let lambda2 = Expander.Fiedler.lambda2_exact g in
  Alcotest.(check bool)
    (Printf.sprintf "λ₂=%g small" lambda2)
    true (lambda2 < 0.05);
  let expander_g = Graph_gen.expander 20 8 in
  let lambda2' = Expander.Fiedler.lambda2_exact expander_g in
  Alcotest.(check bool)
    (Printf.sprintf "expander λ₂=%g large" lambda2')
    true (lambda2' > 0.2)

let test_sweep_cut_weighted () =
  (* A heavy cluster pair connected by a light edge: sweep finds it even
     with weights. *)
  let edges =
    [
      { Graph.u = 0; v = 1; w = 10. };
      { Graph.u = 1; v = 2; w = 10. };
      { Graph.u = 0; v = 2; w = 10. };
      { Graph.u = 3; v = 4; w = 10. };
      { Graph.u = 4; v = 5; w = 10. };
      { Graph.u = 3; v = 5; w = 10. };
      { Graph.u = 2; v = 3; w = 0.1 };
    ]
  in
  let g = Graph.create 6 edges in
  let _, x = Expander.Fiedler.approx g in
  let inside, phi = Expander.Conductance.sweep_cut g x in
  Alcotest.(check bool) "finds the light bridge" true (phi < 0.01);
  let size = Array.fold_left (fun a b -> if b then a + 1 else a) 0 inside in
  Alcotest.(check int) "balanced halves" 3 size

let suite =
  suite
  @ [
      Alcotest.test_case "decomposition phi extremes" `Quick
        test_decomposition_phi_extremes;
      Alcotest.test_case "fiedler barbell vs expander gap" `Quick
        test_fiedler_barbell_gap;
      Alcotest.test_case "weighted sweep cut" `Quick test_sweep_cut_weighted;
    ]

(* ------------------------------------------------ bit-identity oracles *)

(* Verbatim copies of the seed power iteration — with its per-call
   [normalized_apply], which rebuilt D^{-1/2} and allocated on every
   application and took a Rayleigh quotient every step — and of the seed
   small-cut enumeration, which allocated one array per mask. They pin the
   allocation-free kernels to the same bits. *)
module Seed = struct
  let inv_sqrt_degrees g =
    Array.init (Graph.n g) (fun v ->
        let d = Graph.weighted_degree g v in
        if d > 0. then 1. /. sqrt d else 0.)

  let normalized_apply g x =
    let n = Graph.n g in
    let isd = inv_sqrt_degrees g in
    let y = Linalg.Vec.create n in
    Array.iter
      (fun e ->
        let u = e.Graph.u and v = e.Graph.v and w = e.Graph.w in
        let xu = x.(u) *. isd.(u) and xv = x.(v) *. isd.(v) in
        let d = w *. (xu -. xv) in
        y.(u) <- y.(u) +. (d *. isd.(u));
        y.(v) <- y.(v) -. (d *. isd.(v)))
      (Graph.edges g);
    y

  let approx ?(iters = 400) g =
    let n = Graph.n g in
    let u0 =
      Linalg.Vec.normalize
        (Array.init n (fun v ->
             let d = Graph.weighted_degree g v in
             sqrt (Float.max d 0.)))
    in
    let deflate x =
      let c = Linalg.Vec.dot x u0 in
      Linalg.Vec.axpy (-.c) u0 x
    in
    let apply_m x =
      let nx = normalized_apply g x in
      Array.init n (fun i -> (2. *. x.(i)) -. nx.(i))
    in
    let start =
      Linalg.Vec.normalize
        (deflate
           (Linalg.Vec.init n (fun i ->
                let s = if i land 1 = 0 then 1. else -1. in
                s
                *. (1. +. (float_of_int ((i * 2654435761) land 0xffff) /. 65536.)))))
    in
    let v = ref start in
    let mu = ref 0. in
    for _ = 1 to iters do
      let w = deflate (apply_m !v) in
      let nw = Linalg.Vec.norm2 w in
      if nw > 0. then begin
        let w = Linalg.Vec.scale (1. /. nw) w in
        mu := Linalg.Vec.dot w (apply_m w);
        v := w
      end
    done;
    let lambda2 = Float.max 0. (2. -. !mu) in
    let isd = inv_sqrt_degrees g in
    let x = Array.mapi (fun i xi -> xi *. isd.(i)) !v in
    (lambda2, x)

  let best_cut_small g =
    let n = Graph.n g in
    let best_phi = ref infinity in
    let best = ref (Array.make n false) in
    for mask = 1 to (1 lsl (n - 1)) - 1 do
      let inside = Array.make n false in
      inside.(0) <- true;
      for b = 0 to n - 2 do
        if (mask lsr b) land 1 = 1 then inside.(b + 1) <- true
      done;
      if not (Array.for_all (fun x -> x) inside) then begin
        let phi = Expander.Conductance.of_cut g inside in
        if phi < !best_phi then begin
          best_phi := phi;
          best := inside
        end
      end
    done;
    (!best, !best_phi)
end

(* A seeded weighted multigraph on n ∈ [2, 60] (half the cases n ≤ 14, the
   exhaustive range): about one vertex in five isolated, one edge in four a
   parallel copy of the previous one, weights log-uniform in [1e-6, 1024). *)
let random_multigraph seed =
  let r = Prng.create (Int64.of_int seed) in
  let n = if Prng.bool r then 2 + Prng.int r 13 else 2 + Prng.int r 59 in
  let live =
    Array.of_list (List.filter (fun _ -> Prng.int r 5 <> 0) (List.init n Fun.id))
  in
  let k = Array.length live in
  let weight () = 1e-6 *. ((1024. /. 1e-6) ** Prng.float r 1.) in
  let edges = ref [] in
  if k >= 2 then
    for _ = 1 to Prng.int r ((3 * n) + 1) do
      match !edges with
      | e :: _ when Prng.int r 4 = 0 ->
        edges := { e with Graph.w = weight () } :: !edges
      | _ ->
        let a = Prng.int r k in
        let b = (a + 1 + Prng.int r (k - 1)) mod k in
        edges := { Graph.u = live.(a); v = live.(b); w = weight () } :: !edges
    done;
  Graph.create n (List.rev !edges)

let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let oracle_tests =
  let open QCheck in
  [
    Test.make ~name:"fiedler and best cut bit-identical to seed" ~count:240
      (make ~print:string_of_int Gen.(int_bound 1_000_000))
      (fun seed ->
        let g = random_multigraph seed in
        let n = Graph.n g in
        let iters = [| 0; 1; 7; 400 |].(seed mod 4) in
        let l_seed, x_seed = Seed.approx ~iters g in
        let l_new, x_new = Expander.Fiedler.approx ~iters g in
        same_bits l_seed l_new
        && Array.for_all2 same_bits x_seed x_new
        && (n < 3 || n > 14
           ||
           let in_seed, phi_seed = Seed.best_cut_small g in
           let in_new, phi_new = Expander.Conductance.best_cut g in
           in_seed = in_new && same_bits phi_seed phi_new));
  ]

(* Gc.minor_words delta-of-deltas, as test_linalg pins the CG and Chebyshev
   kernels: 25 and 5 power steps must allocate the same number of words,
   i.e. a step allocates nothing. Bytecode boxes floats at every step, so
   the assertion is native-only. *)
let test_fiedler_steps_allocate_nothing () =
  if Sys.backend_type = Sys.Native then begin
    let g = Graph_gen.connected_gnp ~seed:23L 60 0.15 in
    let words k =
      let w0 = Gc.minor_words () in
      ignore (Expander.Fiedler.approx ~iters:k g);
      Gc.minor_words () -. w0
    in
    ignore (words 2) (* warm-up *);
    let d1 = words 5 in
    let d2 = words 25 in
    Alcotest.(check (float 0.)) "20 extra power steps allocate zero words" 0.
      (d2 -. d1)
  end

let suite =
  suite
  @ [
      Alcotest.test_case "fiedler zero-alloc power steps" `Quick
        test_fiedler_steps_allocate_nothing;
    ]
  @ List.map
      (QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 15 |])
         ~long:false)
      oracle_tests
