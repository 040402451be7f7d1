module Cost = Cost
module Trace = Trace
module Mailbox = Mailbox
module Sanitize = Sanitize
module Arena = Arena
module Pool = Pool
module Shard = Shard
module Model = Model
module Config = Config

module type TRANSPORT = Transport.S

module type S = sig
  type transport

  type t

  val kernel : string

  val unicast : bool

  val create :
    ?phase:string ->
    ?trace_capacity:int ->
    ?sanitize:bool ->
    ?domains:int ->
    transport ->
    t

  val transport : t -> transport

  val n : t -> int

  val domains : t -> int

  val ledger : t -> Cost.t

  val trace : t -> Trace.t

  val sanitized : t -> bool

  val sanitizer : t -> Sanitize.t option

  val rounds : t -> int

  val words : t -> int

  val phases : t -> (string * int) list

  val phase_rounds : t -> string -> int

  val current_phase : t -> string

  val set_phase : t -> string -> unit

  val with_phase : t -> string -> (unit -> 'a) -> 'a

  val on_round : t -> (phase:string -> rounds:int -> words:int -> unit) -> unit

  val attach_metrics : t -> Metrics.t -> unit

  val export_metrics : t -> Metrics.t -> unit

  val exchange :
    ?width:int ->
    t ->
    (int * int array) list array ->
    (int * int array) list array

  val exchange_map :
    ?width:int ->
    t ->
    (int -> (int * int array) list) ->
    (int * int array) list array

  val route :
    ?width:int ->
    t ->
    (int * int * int array) list ->
    (int * int array) list array

  val broadcast : ?width:int -> t -> int array array -> int array array

  val charge : ?phase:string -> t -> int -> unit

  val report : t -> string
end

module Make (T : TRANSPORT) = struct
  type transport = T.t

  type t = {
    tr : T.t;
    ledger : Cost.t;
    trace : Trace.t;
    san : Sanitize.t option;
    (* Rounds already on the transport when this runtime was created; the
       drift check compares the ledger against the counter's movement. *)
    base_rounds : int;
    pool : Pool.t;
    mutable phase : string;
    mutable words : int;
    mutable hooks : (phase:string -> rounds:int -> words:int -> unit) list;
    (* Registry [exchange_map] observes the domain-imbalance histogram
       into; set by [attach_metrics], disabled until then. *)
    mutable metrics : Metrics.t;
  }

  let kernel = T.name

  let unicast = T.unicast

  let create ?(phase = "main") ?(trace_capacity = 256) ?sanitize ?domains tr =
    let sanitize =
      match sanitize with Some b -> b | None -> (Config.get ()).sanitize
    in
    let domains =
      match domains with Some d -> max 1 d | None -> (Config.get ()).domains
    in
    {
      tr;
      ledger = Cost.create ();
      trace = Trace.create trace_capacity;
      san = (if sanitize then Some (Sanitize.create ()) else None);
      base_rounds = T.rounds tr;
      pool = Pool.get domains;
      phase;
      words = 0;
      hooks = [];
      metrics = Metrics.disabled;
    }

  let transport t = t.tr

  let n t = T.n t.tr

  let domains t = Pool.size t.pool

  let ledger t = t.ledger

  let trace t = t.trace

  let sanitized t = t.san <> None

  let sanitizer t = t.san

  let rounds t = Cost.rounds t.ledger

  let words t = t.words

  let phases t = Cost.phases t.ledger

  let phase_rounds t phase = Cost.phase_rounds t.ledger phase

  let current_phase t = t.phase

  let set_phase t phase = t.phase <- phase

  let with_phase t phase f =
    let saved = t.phase in
    t.phase <- phase;
    Fun.protect ~finally:(fun () -> t.phase <- saved) f

  let on_round t hook = t.hooks <- t.hooks @ [ hook ]

  let observe t ~phase ~rounds ~words =
    Cost.charge t.ledger ~phase rounds;
    t.words <- t.words + words;
    if rounds > 0 || words > 0 then begin
      Trace.record t.trace ~phase ~rounds ~words;
      List.iter (fun hook -> hook ~phase ~rounds ~words) t.hooks
    end

  let sanitize_event t ~phase ~op ~width ~rounds ~words ~event =
    match t.san with
    | None -> ()
    | Some s ->
      let sizes, content = event () in
      Sanitize.record s ~phase ~op ~width ~rounds ~words ~sizes ~content;
      Sanitize.check_phase s ~phase ~op ~rounds;
      Sanitize.check_drift ~phase
        ~ledger:(Cost.rounds t.ledger)
        ~transport:(T.rounds t.tr - t.base_rounds)

  (* Every communication call is measured against the transport's own
     counters, so measured and charged rounds land in the same ledger. The
     mailbox context is set for the duration so delivery errors (and fault
     schedules scoped to a phase) know where in the pipeline they fired.
     Rounds the transport spent replaying after a worker death are split
     off into the "recovery" ledger phase — the algorithm's own phase
     keeps its deterministic cost, and recovery overhead stays visible. *)
  let wrap t ~op ~width ~event f =
    let r0 = T.rounds t.tr
    and w0 = T.words_sent t.tr
    and rec0 = T.recovery_rounds t.tr in
    Mailbox.set_context t.phase;
    let result =
      Fun.protect ~finally:(fun () -> Mailbox.set_context "main") f
    in
    let rounds = T.rounds t.tr - r0
    and words = T.words_sent t.tr - w0
    and recovered = T.recovery_rounds t.tr - rec0 in
    let recovered = min recovered rounds in
    observe t ~phase:t.phase ~rounds:(rounds - recovered) ~words;
    if recovered > 0 then
      observe t ~phase:Cost.recovery_phase ~rounds:recovered ~words:0;
    sanitize_event t ~phase:t.phase ~op ~width ~rounds ~words ~event;
    result

  let effective_width width =
    match width with Some w -> w | None -> T.default_width

  let exchange ?width t outboxes =
    let w = effective_width width in
    if t.san <> None then
      if T.unicast then Sanitize.check_exchange ~phase:t.phase ~width:w outboxes
      else Sanitize.check_exchange_broadcast ~phase:t.phase ~width:w outboxes;
    wrap t ~op:Sanitize.Exchange ~width:w
      ~event:(fun () -> Sanitize.exchange_event outboxes)
      (fun () -> T.exchange ?width t.tr outboxes)

  (* Per-node outbox construction fanned over the domain pool. Each chunk
     writes only its own slots of [out], and the chunk partition is fixed
     by (size, n) alone, so the merged outbox array — and with it rounds,
     words, and sanitizer transcripts — is bit-identical to a sequential
     run. The imbalance histogram records, per call, the spread
     (max - min) of messages produced across chunks. *)
  let exchange_map ?width t f =
    let n = T.n t.tr in
    let out = Array.make n [] in
    let k = Pool.size t.pool in
    if k <= 1 || n < k then
      for v = 0 to n - 1 do
        out.(v) <- f v
      done
    else begin
      Pool.run t.pool ~n (fun lo hi ->
          for v = lo to hi - 1 do
            out.(v) <- f v
          done);
      if Metrics.enabled t.metrics then begin
        let worst = ref 0 and best = ref max_int in
        for w = 0 to k - 1 do
          let lo, hi = Pool.chunk_bounds ~size:k ~n w in
          let msgs = ref 0 in
          for v = lo to hi - 1 do
            msgs := !msgs + List.length out.(v)
          done;
          worst := max !worst !msgs;
          best := min !best !msgs
        done;
        Metrics.observe
          (Metrics.histogram t.metrics "kernel.domain.imbalance")
          (!worst - !best)
      end
    end;
    exchange ?width t out

  let route ?width t msgs =
    let w = effective_width width in
    if t.san <> None then Sanitize.check_route ~phase:t.phase ~width:w msgs;
    wrap t ~op:Sanitize.Route ~width:w
      ~event:(fun () -> Sanitize.route_event msgs)
      (fun () -> T.route ?width t.tr msgs)

  let broadcast ?width t values =
    let w = effective_width width in
    if t.san <> None then
      Sanitize.check_broadcast ~phase:t.phase ~width:w values;
    wrap t ~op:Sanitize.Broadcast ~width:w
      ~event:(fun () -> Sanitize.broadcast_event values)
      (fun () -> T.broadcast ?width t.tr values)

  let attach_metrics t m =
    if Metrics.enabled m then begin
      t.metrics <- m;
      let rounds_c = Metrics.counter m "runtime.rounds" in
      let words_c = Metrics.counter m "runtime.words" in
      let events_c = Metrics.counter m "runtime.events" in
      let hist = Metrics.histogram m "runtime.event_rounds" in
      on_round t (fun ~phase ~rounds ~words ->
          Metrics.incr ~by:rounds rounds_c;
          Metrics.incr ~by:words words_c;
          Metrics.incr events_c;
          Metrics.observe hist rounds;
          Metrics.incr ~by:rounds (Metrics.counter m ("phase." ^ phase ^ ".rounds")))
    end

  let export_metrics t m =
    if Metrics.enabled m then begin
      Metrics.ingest_phases m ~prefix:("ledger." ^ kernel) (phases t);
      Metrics.set (Metrics.gauge m ("ledger." ^ kernel ^ ".words"))
        (float_of_int t.words);
      Metrics.set (Metrics.gauge m "kernel.domains")
        (float_of_int (Pool.size t.pool));
      List.iter
        (fun (name, v) -> Metrics.incr ~by:v (Metrics.counter m name))
        (T.stats t.tr)
    end

  let charge ?phase t r =
    let phase = match phase with Some p -> p | None -> t.phase in
    T.charge t.tr r;
    observe t ~phase ~rounds:r ~words:0;
    sanitize_event t ~phase ~op:Sanitize.Charge ~width:0 ~rounds:r ~words:0
      ~event:(fun () -> ([], []))

  let report t =
    let buf = Buffer.create 128 in
    Buffer.add_string buf
      (Printf.sprintf "[%s n=%d] rounds=%d words=%d" kernel (n t) (rounds t)
         (words t));
    List.iter
      (fun (phase, r) ->
        Buffer.add_string buf (Printf.sprintf "\n  %-14s %8d" phase r))
      (phases t);
    let hist = Format.asprintf "%a" Trace.pp_histogram t.trace in
    if hist <> "" then begin
      Buffer.add_string buf "\n  trace histogram (rounds per event):\n  ";
      Buffer.add_string buf (String.concat "\n  " (String.split_on_char '\n' hist))
    end;
    Buffer.contents buf
end
