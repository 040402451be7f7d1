type kernel = Arena | Shard

(* The delivery engine is built by the first call that delivers through
   it; until then the session is only a pair of counters. *)
type engine = Unbuilt | Local of Runtime.Arena.t | Sharded of Socket.t

type t = {
  n : int;
  kernel : kernel;
  mutable engine : engine;
  mutable rounds : int;
  (* Words counted here: every word on the arena engine, and on the
     sharded one the words routed before its session was built. *)
  mutable words_sent : int;
}

exception Bandwidth_exceeded = Runtime.Mailbox.Bandwidth_exceeded

let name = "clique"

let create ?kernel n =
  if n <= 0 then invalid_arg "Sim.create: need n > 0";
  let kernel =
    match kernel with
    | Some k -> k
    | None ->
      let c = Runtime.Config.get () in
      if c.shards > 1 || c.force_socket then Shard else Arena
  in
  { n; kernel; engine = Unbuilt; rounds = 0; words_sent = 0 }

let n t = t.n

(* The socket session takes over the round counter at build time, seeded
   with the rounds already charged, so [Shard_down.round] and the
   supervisor log number rounds as if the session had existed from
   [create]. *)
let socket t =
  match t.engine with
  | Sharded s -> s
  | _ ->
    let s = Socket.create t.n in
    Socket.charge s t.rounds;
    t.engine <- Sharded s;
    s

let arena t =
  match t.engine with
  | Local a -> a
  | _ ->
    let a = Runtime.Arena.create ~n:t.n () in
    t.engine <- Local a;
    a

let rounds t =
  match t.engine with Sharded s -> Socket.rounds s | _ -> t.rounds

let words_sent t =
  match t.engine with
  | Sharded s -> t.words_sent + Socket.words_sent s
  | _ -> t.words_sent

let recovery_rounds t =
  match t.engine with Sharded s -> Socket.recovery_rounds s | _ -> 0

let default_width = 2

let unicast = true

let exchange ?(width = default_width) t outboxes =
  match t.kernel with
  | Shard -> Socket.exchange ~width (socket t) outboxes
  | Arena ->
    let inboxes, words = Runtime.Arena.deliver (arena t) ~width outboxes in
    t.words_sent <- t.words_sent + words;
    t.rounds <- t.rounds + 1;
    inboxes

let route ?(width = default_width) t msgs =
  match t.engine with
  | Sharded s -> Socket.route ~width s msgs
  | _ ->
    let inboxes, words, batches = Runtime.Mailbox.route ~n:t.n ~width msgs in
    t.words_sent <- t.words_sent + words;
    t.rounds <- t.rounds + (batches * Runtime.Cost.lenzen_routing_rounds);
    inboxes

let broadcast ?(width = default_width) t values =
  match t.kernel with
  | Shard -> Socket.broadcast ~width (socket t) values
  | Arena ->
    let view, words = Runtime.Mailbox.broadcast ~n:t.n ~width values in
    t.words_sent <- t.words_sent + words;
    t.rounds <- t.rounds + Runtime.Cost.broadcast_rounds;
    view

let charge t r =
  if r < 0 then invalid_arg "Sim.charge: negative rounds";
  match t.engine with
  | Sharded s -> Socket.charge s r
  | _ -> t.rounds <- t.rounds + r

let close t = match t.engine with Sharded s -> Socket.close s | _ -> ()

let stats t =
  match t.engine with
  | Unbuilt -> []
  | Local a -> Runtime.Arena.stats a
  | Sharded s -> Socket.stats s
