(* The cc_serve daemon: a select-loop listener feeding a domain worker
   pool (DESIGN.md §15).

   One listener domain owns all sockets: it accepts clients, reads job
   frames, answers Stats/Shutdown inline, and enqueues everything else.
   Worker domains pop jobs, run them through Exec (cache + certification
   policy), and reply on the client's link — a per-client send mutex
   serializes replies from concurrent workers. Job state never crosses
   process boundaries, so a worker crash model is out of scope here; the
   certification policy covers corrupt answers instead (PR 9's shard
   supervision covers lost processes). *)

(* cc_lint: allow L9 *)

module Json = Metrics.Json
module Link = Wire.Link

type config = {
  addr : string;  (* "unix:PATH" or "host:port" *)
  jobs : int;
  cache_cap : int;
  policy : Exec.policy;
  max_bytes : int;
}

let unix_prefix = "unix:"

let is_unix addr =
  String.length addr >= String.length unix_prefix
  && String.sub addr 0 (String.length unix_prefix) = unix_prefix

let unix_path addr =
  String.sub addr (String.length unix_prefix)
    (String.length addr - String.length unix_prefix)

(* Bind per the address scheme; returns the *actual* address, resolving a
   TCP port 0 request to the ephemeral port the kernel picked. *)
let listen_on addr =
  if is_unix addr then (Link.listen_unix (unix_path addr), addr)
  else
    let fd = Link.listen addr in
    let actual =
      match Unix.getsockname fd with
      | Unix.ADDR_INET (host, port) ->
        Printf.sprintf "%s:%d" (Unix.string_of_inet_addr host) port
      | Unix.ADDR_UNIX p -> unix_prefix ^ p
    in
    (fd, actual)

type client = {
  link : Link.t;
  send_m : Mutex.t;
  mutable alive : bool;
}

type item = {
  job : Job.t;
  from : client;
  enqueued_at : float;
  deadline : float option;  (* absolute; from the job's [timeout_ms] *)
}

type counters = {
  mutable received : int;
  mutable completed : int;
  mutable refused : int;
  mutable timed_out : int;
}

type t = {
  config : t_config;
  actual_addr : string;
  listen_fd : Unix.file_descr;
  cache : Exec.artifact Cache.t;
  queue : item Queue.t;
  queue_m : Mutex.t;
  queue_c : Condition.t;
  stop : bool Atomic.t;
  counters : counters;
  counters_m : Mutex.t;
  started_at : float;
  mutable listener : unit Domain.t option;
  mutable workers : unit Domain.t list;
}

and t_config = config

let addr t = t.actual_addr

let send_to client frame =
  Mutex.lock client.send_m;
  (match
     if client.alive then Link.send client.link frame
   with
  | () -> Mutex.unlock client.send_m
  | exception (Link.Closed _ | Unix.Unix_error _) ->
    client.alive <- false;
    Mutex.unlock client.send_m
  | exception e ->
    Mutex.unlock client.send_m;
    raise e);
  ()

let send_error client ~id msg =
  send_to client (Job.frame ~kind:Job.frame_error ~id (Job.error_body ~id msg))

let bump t f =
  Mutex.lock t.counters_m;
  f t.counters;
  Mutex.unlock t.counters_m

(* ------------------------------------------------------------ workers *)

let metrics_fields ~(outcome : Exec.outcome) ~policy ~queue_wait ~wall =
  [
    ("queue_wait_ms", Json.Float (queue_wait *. 1000.));
    ("solve_ms", Json.Float (wall *. 1000.));
    ("rounds", Json.Int outcome.Exec.rounds);
    ( "cache",
      Json.String
        (match outcome.Exec.cache with
        | `Hit -> "hit"
        | `Miss -> "miss"
        | `Bypass -> "bypass") );
    ("attempts", Json.Int outcome.Exec.attempts);
    ("recovered", Json.Bool outcome.Exec.recovered);
    ("policy", Json.String (Exec.policy_name policy));
  ]

let process t (it : item) =
  let id = it.job.Job.id in
  let now = Unix.gettimeofday () in
  match it.deadline with
  | Some d when now > d ->
    bump t (fun c -> c.timed_out <- c.timed_out + 1);
    send_error it.from ~id
      (Printf.sprintf "job %d timed out in queue after %.0f ms" id
         ((now -. it.enqueued_at) *. 1000.))
  | _ -> (
    let queue_wait = now -. it.enqueued_at in
    match Exec.run ~policy:t.config.policy ~cache:t.cache it.job with
    | Ok outcome ->
      let wall = Unix.gettimeofday () -. now in
      bump t (fun c -> c.completed <- c.completed + 1);
      send_to it.from
        (Job.frame ~kind:Job.frame_result ~id
           (Job.result_body ~id
              ~kind:(Job.kind_name it.job.Job.payload)
              ~result:outcome.Exec.fields
              ~metrics:
                (metrics_fields ~outcome ~policy:t.config.policy ~queue_wait
                   ~wall)))
    | Error msg ->
      bump t (fun c -> c.refused <- c.refused + 1);
      send_error it.from ~id msg)

let worker_loop t () =
  let rec next () =
    Mutex.lock t.queue_m;
    let rec await () =
      if not (Queue.is_empty t.queue) then Some (Queue.pop t.queue)
      else if Atomic.get t.stop then None
      else begin
        Condition.wait t.queue_c t.queue_m;
        await ()
      end
    in
    let item = await () in
    Mutex.unlock t.queue_m;
    match item with
    | None -> ()  (* stop requested and the queue is drained *)
    | Some it ->
      process t it;
      next ()
  in
  next ()

(* ----------------------------------------------------------- listener *)

let stats_body t ~id =
  let cs = Cache.stats t.cache in
  let c = t.counters in
  Mutex.lock t.counters_m;
  let received = c.received
  and completed = c.completed
  and refused = c.refused
  and timed_out = c.timed_out in
  Mutex.unlock t.counters_m;
  Mutex.lock t.queue_m;
  let depth = Queue.length t.queue in
  Mutex.unlock t.queue_m;
  Job.result_body ~id ~kind:"stats"
    ~result:
      [
        ("jobs_received", Json.Int received);
        ("jobs_completed", Json.Int completed);
        ("jobs_refused", Json.Int refused);
        ("jobs_timed_out", Json.Int timed_out);
        ("queue_depth", Json.Int depth);
        ("workers", Json.Int t.config.jobs);
        ("policy", Json.String (Exec.policy_name t.config.policy));
        ("uptime_s", Json.Float (Unix.gettimeofday () -. t.started_at));
        ("config", Runtime.Config.to_json (Runtime.Config.get ()));
        ( "cache",
          Json.Assoc
            [
              ("entries", Json.Int cs.Cache.entries);
              ("hits", Json.Int cs.Cache.hits);
              ("misses", Json.Int cs.Cache.misses);
              ("evictions", Json.Int cs.Cache.evictions);
            ] );
      ]
    ~metrics:[]

let request_stop t =
  Atomic.set t.stop true;
  Mutex.lock t.queue_m;
  Condition.broadcast t.queue_c;
  Mutex.unlock t.queue_m

(* Handle one frame from [client]. Returns [false] if the connection must
   be dropped (desynchronized stream). *)
let handle_frame t client (frame : Wire.Frame.t) =
  let id = frame.Wire.Frame.seq in
  if frame.Wire.Frame.kind <> Job.frame_job then begin
    send_error client ~id
      (Printf.sprintf "unexpected frame kind 0x%02x" frame.Wire.Frame.kind);
    true
  end
  else if Bytes.length frame.Wire.Frame.payload > t.config.max_bytes then begin
    (* The frame was fully read, so the stream stays in sync: refuse the
       request but keep the connection. *)
    send_error client ~id
      (Printf.sprintf "request of %d bytes exceeds the %d-byte limit"
         (Bytes.length frame.Wire.Frame.payload)
         t.config.max_bytes);
    true
  end
  else begin
    bump t (fun c -> c.received <- c.received + 1);
    match Job.parse_string (Bytes.to_string frame.Wire.Frame.payload) with
    | Error msg ->
      bump t (fun c -> c.refused <- c.refused + 1);
      send_error client ~id msg;
      true
    | Ok job -> (
      match job.Job.payload with
      | Job.Stats ->
        bump t (fun c -> c.completed <- c.completed + 1);
        send_to client
          (Job.frame ~kind:Job.frame_result ~id:job.Job.id
             (stats_body t ~id:job.Job.id));
        true
      | Job.Shutdown ->
        bump t (fun c -> c.completed <- c.completed + 1);
        send_to client
          (Job.frame ~kind:Job.frame_result ~id:job.Job.id
             (Job.result_body ~id:job.Job.id ~kind:"shutdown"
                ~result:[ ("stopping", Json.Bool true) ]
                ~metrics:[]));
        request_stop t;
        true
      | _ ->
        let now = Unix.gettimeofday () in
        let deadline =
          match job.Job.timeout_ms with
          | None -> None
          | Some ms -> Some (now +. (ms /. 1000.))
        in
        Mutex.lock t.queue_m;
        Queue.push { job; from = client; enqueued_at = now; deadline } t.queue;
        Condition.signal t.queue_c;
        Mutex.unlock t.queue_m;
        true)
  end

let drop_client clients client =
  client.alive <- false;
  Link.close client.link;
  Hashtbl.remove clients (Link.fd client.link)

let listener_loop t () =
  let clients : (Unix.file_descr, client) Hashtbl.t = Hashtbl.create 8 in
  while not (Atomic.get t.stop) do
    let fds =
      t.listen_fd :: Hashtbl.fold (fun fd _ acc -> fd :: acc) clients []
    in
    let readable =
      match Unix.select fds [] [] 0.05 with
      | r, _, _ -> r
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> []
    in
    List.iter
      (fun fd ->
        if fd = t.listen_fd then begin
          match Link.accept t.listen_fd with
          | cfd ->
            let link = Link.of_fd ~peer:"cc-serve-client" cfd in
            Hashtbl.replace clients cfd
              { link; send_m = Mutex.create (); alive = true }
          | exception Unix.Unix_error _ -> ()
        end
        else
          match Hashtbl.find_opt clients fd with
          | None -> ()
          | Some client -> (
            match Link.recv client.link with
            | frame ->
              if not (handle_frame t client frame) then
                drop_client clients client
            | exception Link.Closed _ -> drop_client clients client
            | exception Wire.Frame.Malformed { what } ->
              (* After a corrupt header the stream is desynchronized:
                 apologize and hang up. *)
              send_error client ~id:0 ("malformed frame: " ^ what);
              drop_client clients client))
      readable
  done;
  Hashtbl.iter (fun _ c -> Link.close c.link) clients

(* ---------------------------------------------------------- lifecycle *)

let start config =
  let listen_fd, actual_addr = listen_on config.addr in
  let t =
    {
      config;
      actual_addr;
      listen_fd;
      cache = Cache.create ~cap:config.cache_cap;
      queue = Queue.create ();
      queue_m = Mutex.create ();
      queue_c = Condition.create ();
      stop = Atomic.make false;
      counters = { received = 0; completed = 0; refused = 0; timed_out = 0 };
      counters_m = Mutex.create ();
      started_at = Unix.gettimeofday ();
      listener = None;
      workers = [];
    }
  in
  t.workers <-
    List.init config.jobs (fun _ -> Domain.spawn (worker_loop t));
  t.listener <- Some (Domain.spawn (listener_loop t));
  t

let stop = request_stop

let wait t =
  (match t.listener with
  | Some d ->
    Domain.join d;
    t.listener <- None
  | None -> ());
  List.iter Domain.join t.workers;
  t.workers <- [];
  (match Unix.close t.listen_fd with
  | () -> ()
  | exception Unix.Unix_error _ -> ());
  if is_unix t.config.addr then
    match Unix.unlink (unix_path t.config.addr) with
    | () -> ()
    | exception Unix.Unix_error _ -> ()
