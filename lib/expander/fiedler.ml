let inv_sqrt_degrees g =
  Array.init (Graph.n g) (fun v ->
      let d = Graph.weighted_degree g v in
      if d > 0. then 1. /. sqrt d else 0.)

(* [y <- M x] for M = 2I − N, N = D^{-1/2} L D^{-1/2} applied edge-by-edge;
   isolated vertices ([isd] = 0) are fixed points of N. [y] must not alias
   [x]. *)
(* cc_lint: hot apply_m_into power_step *)
let apply_m_into edges isd x y =
  Linalg.Vec.fill y 0.;
  for i = 0 to Array.length edges - 1 do
    let e = edges.(i) in
    let u = e.Graph.u and v = e.Graph.v and w = e.Graph.w in
    let xu = x.(u) *. isd.(u) and xv = x.(v) *. isd.(v) in
    let d = w *. (xu -. xv) in
    y.(u) <- y.(u) +. (d *. isd.(u));
    y.(v) <- y.(v) -. (d *. isd.(v))
  done;
  for i = 0 to Array.length x - 1 do
    y.(i) <- (2. *. x.(i)) -. y.(i)
  done

(* One power step: [w <- M v] deflated against [u0]; when the result is
   nonzero, [v <- w / ‖w‖] and the step reports [true]. The dot products
   are inlined because a call returning [float] boxes its result. *)
let power_step edges isd u0 v w =
  apply_m_into edges isd v w;
  let c = ref 0. in
  for i = 0 to Array.length w - 1 do
    c := !c +. (w.(i) *. u0.(i))
  done;
  let a = -. !c in
  for i = 0 to Array.length w - 1 do
    w.(i) <- (a *. u0.(i)) +. w.(i)
  done;
  let s = ref 0. in
  for i = 0 to Array.length w - 1 do
    s := !s +. (w.(i) *. w.(i))
  done;
  let nw = sqrt !s in
  if nw > 0. then begin
    let k = 1. /. nw in
    for i = 0 to Array.length w - 1 do
      v.(i) <- k *. w.(i)
    done;
    true
  end
  else false

let approx ?(iters = 400) g =
  let n = Graph.n g in
  if n < 2 then invalid_arg "Fiedler.approx: need n >= 2";
  let edges = Graph.edges g in
  let isd = inv_sqrt_degrees g in
  (* Kernel direction of N is D^{1/2} 1. *)
  let u0 =
    Linalg.Vec.normalize
      (Array.init n (fun v -> sqrt (Float.max (Graph.weighted_degree g v) 0.)))
  in
  let start =
    Linalg.Vec.init n (fun i ->
        let s = if i land 1 = 0 then 1. else -1. in
        s *. (1. +. (float_of_int ((i * 2654435761) land 0xffff) /. 65536.)))
  in
  let c = Linalg.Vec.dot start u0 in
  Linalg.Vec.axpy_into (-.c) u0 start start;
  let v = Linalg.Vec.normalize start in
  (* Forward power iteration on M, deflated against u0: the dominant
     eigenpair on u0⊥ is (2 − λ₂). [v] never depends on the Rayleigh
     quotient, so the quotient is taken once, on the final iterate, and is
     0 when no step moved [v]. *)
  let w = Linalg.Vec.create n in
  let moved = ref false in
  for _ = 1 to iters do
    if power_step edges isd u0 v w then moved := true
  done;
  let mu =
    if !moved then begin
      apply_m_into edges isd v w;
      Linalg.Vec.dot v w
    end
    else 0.
  in
  let lambda2 = Float.max 0. (2. -. mu) in
  (* Rescale for sweep rounding: order vertices by (D^{-1/2} x). *)
  (lambda2, Array.mapi (fun i xi -> xi *. isd.(i)) v)

(* Jacobi eigenvalue iteration on the dense normalized Laplacian. *)
let lambda2_exact g =
  let n = Graph.n g in
  if n < 2 then invalid_arg "Fiedler.lambda2_exact: need n >= 2";
  let isd = inv_sqrt_degrees g in
  let a = Array.make_matrix n n 0. in
  for v = 0 to n - 1 do
    if Graph.weighted_degree g v > 0. then a.(v).(v) <- 1.
  done;
  Array.iter
    (fun e ->
      let u = e.Graph.u and v = e.Graph.v and w = e.Graph.w in
      let x = -.w *. isd.(u) *. isd.(v) in
      a.(u).(v) <- a.(u).(v) +. x;
      a.(v).(u) <- a.(v).(u) +. x)
    (Graph.edges g);
  let off_norm () =
    let s = ref 0. in
    for i = 0 to n - 1 do
      for j = i + 1 to n - 1 do
        s := !s +. (a.(i).(j) *. a.(i).(j))
      done
    done;
    sqrt !s
  in
  let sweeps = ref 0 in
  while off_norm () > 1e-12 && !sweeps < 100 do
    incr sweeps;
    for p = 0 to n - 2 do
      for q = p + 1 to n - 1 do
        if Float.abs a.(p).(q) > 1e-15 then begin
          let theta = (a.(q).(q) -. a.(p).(p)) /. (2. *. a.(p).(q)) in
          let t =
            let s = if theta >= 0. then 1. else -1. in
            s /. (Float.abs theta +. sqrt ((theta *. theta) +. 1.))
          in
          let c = 1. /. sqrt ((t *. t) +. 1.) in
          let s = t *. c in
          for k = 0 to n - 1 do
            let akp = a.(k).(p) and akq = a.(k).(q) in
            a.(k).(p) <- (c *. akp) -. (s *. akq);
            a.(k).(q) <- (s *. akp) +. (c *. akq)
          done;
          for k = 0 to n - 1 do
            let apk = a.(p).(k) and aqk = a.(q).(k) in
            a.(p).(k) <- (c *. apk) -. (s *. aqk);
            a.(q).(k) <- (s *. apk) +. (c *. aqk)
          done
        end
      done
    done
  done;
  let eigs = Array.init n (fun i -> a.(i).(i)) in
  Array.sort compare eigs;
  eigs.(1)
