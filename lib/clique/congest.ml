type t = {
  graph : Graph.t;
  neighbors : (int, unit) Hashtbl.t array;
  arena : Runtime.Arena.t;
  mutable rounds : int;
  mutable words_sent : int;
}

exception Not_an_edge of { src : int; dst : int }

let name = "congest"

let create graph =
  let n = Graph.n graph in
  let neighbors = Array.init n (fun _ -> Hashtbl.create 4) in
  Array.iter
    (fun e ->
      Hashtbl.replace neighbors.(e.Graph.u) e.Graph.v ();
      Hashtbl.replace neighbors.(e.Graph.v) e.Graph.u ())
    (Graph.edges graph);
  (* Sharded execution is clique-only: CONGEST always runs in-process. *)
  let arena = Runtime.Arena.create ~n () in
  { graph; neighbors; arena; rounds = 0; words_sent = 0 }

let graph t = t.graph

let n t = Graph.n t.graph

let rounds t = t.rounds

let words_sent t = t.words_sent

let recovery_rounds _ = 0

let check t ~src ~dst =
  if not (Hashtbl.mem t.neighbors.(src) dst) then raise (Not_an_edge { src; dst })

let default_width = 2

let unicast = true

let exchange ?(width = 2) t outboxes =
  let inboxes, words =
    Runtime.Arena.deliver t.arena ~width ~check:(check t) outboxes
  in
  t.words_sent <- t.words_sent + words;
  t.rounds <- t.rounds + 1;
  inboxes

let route ?(width = 2) t msgs =
  let inboxes, words, batches =
    Runtime.Mailbox.route ~n:(n t) ~width ~check:(check t) msgs
  in
  t.words_sent <- t.words_sent + words;
  t.rounds <- t.rounds + (batches * Runtime.Cost.lenzen_routing_rounds);
  inboxes

let broadcast ?(width = 2) t values =
  let k = n t in
  for src = 0 to k - 1 do
    for dst = 0 to k - 1 do
      if src <> dst then check t ~src ~dst
    done
  done;
  let view, words = Runtime.Mailbox.broadcast ~n:k ~width values in
  t.words_sent <- t.words_sent + words;
  t.rounds <- t.rounds + Runtime.Cost.broadcast_rounds;
  view

let charge t r =
  if r < 0 then invalid_arg "Congest.charge: negative rounds";
  t.rounds <- t.rounds + r

let stats t = Runtime.Arena.stats t.arena

(* The same node programs the clique kernel runs, instantiated over this
   transport (the functor is applied on a local alias; only plain arrays
   escape, so the private runtime type never leaks). *)
module Self = struct
  type nonrec t = t

  let name = name
  let n = n
  let default_width = default_width
  let unicast = unicast
  let rounds = rounds
  let words_sent = words_sent
  let recovery_rounds = recovery_rounds
  let exchange = exchange
  let route = route
  let broadcast = broadcast
  let charge = charge
  let stats = stats
end

module Rt = Runtime.Make (Self)
module Node_programs = Programs.Make (Rt)

let bfs t s = Node_programs.bfs (Rt.create t) t.graph s

let bellman_ford t s = Node_programs.bellman_ford (Rt.create t) t.graph s

let diameter g =
  let n = Graph.n g in
  let worst = ref 0 in
  (try
     for s = 0 to n - 1 do
       let dist = Traversal.bfs g s in
       Array.iter
         (fun d ->
           if d < 0 then begin
             worst := max_int;
             raise Exit
           end
           else worst := max !worst d)
         dist
     done
   with Exit -> ());
  !worst

(* --------------------------------------------------- §1.1 reference curves *)

let fglp_laplacian_rounds ~n ~d ~eps =
  let nf = float_of_int (max n 2) in
  int_of_float
    (Float.ceil ((sqrt nf +. float_of_int d) *. log (2. /. Float.max eps 1e-30)))

let fglp_maxflow_rounds ~n ~m ~d ~u =
  let nf = float_of_int (max n 2) and mf = float_of_int (max m 2) in
  let df = float_of_int (max d 1) in
  let per_iter = sqrt nf +. df +. (sqrt nf *. (df ** 0.25)) in
  int_of_float
    (Float.ceil
       (((mf ** (3. /. 7.)) *. (float_of_int (max u 1) ** (1. /. 7.)) *. per_iter)
       +. sqrt mf))

let fglp_mcf_rounds ~n ~m ~d ~w =
  let nf = float_of_int (max n 2) and mf = float_of_int (max m 2) in
  let df = float_of_int (max d 1) in
  let lw = Float.max 1. (Float.log2 (float_of_int (max w 2))) in
  int_of_float
    (Float.ceil ((mf ** (3. /. 7.)) *. ((sqrt nf *. (df ** 0.25)) +. df) *. lw))

let fv22_bcc_mcf_rounds ~n =
  int_of_float (Float.ceil (sqrt (float_of_int (max n 2))))
