(* serve-hot and serve-churn: the real bin/cc_serve daemon as a child
   process, driven by a closed loop of pre-encoded request frames over up
   to [nproc] connections from this single thread.

   serve-hot  --policy none, a cache that holds the working set, warmed in
              set-up: every timed request is a solve that hits the cache.
   serve-churn --policy verify, a cache well below the working set: a
              mixed stream of solve / sparsify / maxflow / mst jobs that
              mostly miss, build, certify and evict.

   Every request carries its instance explicitly (edges, arcs, rhs), so
   graph generation stays in this process; the expected answer of every
   request is computed in set-up by calling the library on the same
   instance, which doubles as the probe that attributes daemon-side time
   to layers (decode, prepare, solve, check, max-flow). *)

open Common
module Link = Wire.Link

(* ------------------------------------------------------- child processes *)

let children : int list ref = ref []

let reap pid =
  children := List.filter (( <> ) pid) !children;
  match Unix.waitpid [] pid with
  | _ -> ()
  | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()

let kill_children () =
  List.iter
    (fun pid ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      reap pid)
    !children

let () = at_exit kill_children

(* ------------------------------------------------------------- instances *)

type kind = Solve | Sparsify | Maxflow | Mst

let kind_name = function
  | Solve -> "solve"
  | Sparsify -> "sparsify"
  | Maxflow -> "maxflow"
  | Mst -> "mst"

(* What the reply must say, computed by the library in set-up. *)
type expect = Str of string * string | Int of string * int | Flt of string * float

(* Set-up timings of the library calls the daemon makes for this request
   (ms), and counts read from the library's own report. *)
type probe = {
  decode_ms : float;
  build_ms : float;  (* prepare / sparsify / max_flow / Borůvka *)
  solve_ms : float;  (* solve_prepared (solve requests only) *)
  solve_minor_words : float;
  check_ms : float;  (* the --policy verify validator *)
  ipm_iterations : int;
  laplacian_solves : int;
  phases : (string * int) list;  (* charged rounds per phase *)
  iterations : int;  (* Chebyshev iterations (solve requests) *)
  kappa : float;  (* pencil κ (solve requests), else nan *)
  edge_ratio : float;  (* |E(H)| / |E(G)| where a sparsifier is built, else nan *)
}

type request = {
  idx : int;  (* position in the stream = frame id *)
  kind : kind;
  label : string;
  frame : Wire.Frame.t;
  expect : expect;
  rounds : int;
  probe : probe;
}

module J = Metrics.Json

let graph_json g =
  J.Assoc
    [
      ("n", J.Int (Graph.n g));
      ( "edges",
        J.List
          (Array.to_list
             (Array.map
                (fun (e : Graph.edge) ->
                  J.List [ J.Int e.Graph.u; J.Int e.Graph.v; J.Float e.Graph.w ])
                (Graph.edges g))) );
    ]

let net_json net =
  J.Assoc
    [
      ("n", J.Int (Digraph.n net));
      ( "arcs",
        J.List
          (Array.to_list
             (Array.map
                (fun (a : Digraph.arc) ->
                  J.List [ J.Int a.Digraph.src; J.Int a.Digraph.dst; J.Int a.Digraph.cap ])
                (Digraph.arcs net))) );
    ]

let time f =
  let t0 = Measure.now_ns () in
  let v = f () in
  (v, Measure.ms_between t0 (Measure.now_ns ()))

let check_ms f =
  let v, ms = time f in
  match v with
  | Fault.Check.Pass -> ms
  | verdict -> failwith ("set-up: the library's own answer fails " ^ Fault.Check.to_string verdict)

let no_probe =
  {
    decode_ms = 0.;
    build_ms = 0.;
    solve_ms = 0.;
    solve_minor_words = 0.;
    check_ms = 0.;
    ipm_iterations = 0;
    laplacian_solves = 0;
    phases = [];
    iterations = 0;
    kappa = nan;
    edge_ratio = nan;
  }

(* Decode the request exactly as the daemon's listener does and make sure
   it reproduces the benchmark's instance. *)
let decode_probe ~same body =
  let s = Bytes.to_string body in
  let job, ms = time (fun () -> Serve.Job.parse_string s) in
  (match job with
  | Ok j when same j.Serve.Job.payload -> ()
  | Ok _ -> failwith "set-up: a request does not decode to its instance"
  | Error e -> failwith ("set-up: a request does not decode: " ^ e));
  ms

let eps = 1e-6

let same_graph g g' = Serve.Fingerprint.graph g = Serve.Fingerprint.graph g'

(* A solve request on [prep] (the prepared handle of [g]) with rhs [b]. *)
let solve_request ~idx ~label g prep b =
  let body =
    J.Assoc
      [
        ("id", J.Int idx);
        ("kind", J.String "solve");
        ("graph", graph_json g);
        ("b", J.List (Array.to_list (Array.map (fun v -> J.Float v) b)));
        ("eps", J.Float eps);
      ]
  in
  let frame = Serve.Job.frame ~kind:Serve.Job.frame_job ~id:idx body in
  let decode_ms =
    decode_probe frame.Wire.Frame.payload ~same:(function
      | Serve.Job.Solve { g = g'; b = b'; _ } -> same_graph g g' && b = b'
      | _ -> false)
  in
  let w0 = Gc.minor_words () in
  let r, solve_ms = time (fun () -> Laplacian.Solver.solve_prepared prep b) in
  let solve_minor_words = Gc.minor_words () -. w0 in
  let x = r.Laplacian.Solver.x in
  let check_ms =
    check_ms (fun () -> Fault.Check.solver_residual g ~b:(Linalg.Vec.center b) x)
  in
  {
    idx;
    kind = Solve;
    label;
    frame;
    expect = Str ("x_fnv", fnv_vec x);
    rounds = r.Laplacian.Solver.rounds;
    probe =
      {
        no_probe with
        decode_ms;
        solve_ms;
        solve_minor_words;
        check_ms;
        phases = r.Laplacian.Solver.phase_rounds;
        iterations = r.Laplacian.Solver.iterations;
        kappa = r.Laplacian.Solver.kappa;
        edge_ratio =
          float_of_int r.Laplacian.Solver.sparsifier_edges /. float_of_int (Graph.m g);
      };
  }

let prepare g = time (fun () -> Laplacian.Solver.prepare ~eps g)

let graph_request ~idx ~label kind g =
  let body =
    J.Assoc [ ("id", J.Int idx); ("kind", J.String (kind_name kind)); ("graph", graph_json g) ]
  in
  let frame = Serve.Job.frame ~kind:Serve.Job.frame_job ~id:idx body in
  let decode_ms =
    decode_probe frame.Wire.Frame.payload ~same:(function
      | Serve.Job.Sparsify { g = g' } | Serve.Job.Mst { g = g' } -> same_graph g g'
      | _ -> false)
  in
  match kind with
  | Sparsify ->
    let sp, build_ms = time (fun () -> Sparsify.Spectral.sparsify g) in
    let h = sp.Sparsify.Spectral.sparsifier in
    let check_ms = check_ms (fun () -> Fault.Check.sparsifier g h) in
    {
      idx;
      kind;
      label;
      frame;
      expect = Str ("h_fnv", Serve.Fingerprint.to_hex (Serve.Fingerprint.graph h));
      rounds = sp.Sparsify.Spectral.rounds;
      probe =
        {
          no_probe with
          decode_ms;
          build_ms;
          check_ms;
          phases = [ ("sparsify", sp.Sparsify.Spectral.rounds) ];
          edge_ratio = float_of_int (Graph.m h) /. float_of_int (Graph.m g);
        };
    }
  | _ ->
    let r, build_ms = time (fun () -> Clique.Boruvka.minimum_spanning_tree g) in
    let weight = r.Clique.Boruvka.weight in
    let check_ms = check_ms (fun () -> Fault.Check.mst g ~weight r.Clique.Boruvka.edges) in
    {
      idx;
      kind = Mst;
      label;
      frame;
      expect = Flt ("weight", weight);
      rounds = r.Clique.Boruvka.rounds;
      probe = { no_probe with decode_ms; build_ms; check_ms };
    }

let maxflow_request ~idx ~label net =
  let s = 0 and t = Digraph.n net - 1 in
  let body =
    J.Assoc
      [
        ("id", J.Int idx);
        ("kind", J.String "maxflow");
        ("net", net_json net);
        ("s", J.Int s);
        ("t", J.Int t);
      ]
  in
  let frame = Serve.Job.frame ~kind:Serve.Job.frame_job ~id:idx body in
  let decode_ms =
    decode_probe frame.Wire.Frame.payload ~same:(function
      | Serve.Job.Maxflow { net = net'; s = s'; t = t' } ->
        Serve.Fingerprint.digraph net = Serve.Fingerprint.digraph net' && s = s' && t = t'
      | _ -> false)
  in
  let r, build_ms = time (fun () -> Maxflow_ipm.max_flow net ~s ~t) in
  let value = r.Maxflow_ipm.value in
  let check_ms =
    check_ms (fun () ->
        Fault.Check.max_flow net ~s ~t ~value:(float_of_int value) r.Maxflow_ipm.f)
  in
  {
    idx;
    kind = Maxflow;
    label;
    frame;
    expect = Int ("value", value);
    rounds = r.Maxflow_ipm.rounds;
    probe =
      {
        no_probe with
        decode_ms;
        build_ms;
        check_ms;
        ipm_iterations = r.Maxflow_ipm.ipm_iterations;
        laplacian_solves = r.Maxflow_ipm.laplacian_solves;
      };
  }

let rhs rng n = Array.init n (fun _ -> Prng.float rng 2. -. 1.)

(* serve-hot: 8 graphs (n = 60..130), 16 fresh right-hand sides each,
   interleaved so consecutive requests name different graphs. Returns the
   requests and the per-graph prepare timings. *)
let hot_stream seed =
  let rng = Prng.create (Int64.of_int seed) in
  let graphs =
    Array.init 8 (fun k ->
        let n = 60 + (10 * k) in
        let g =
          Gen.weighted_gnp ~seed:(Prng.next_int64 rng) n (8. /. float_of_int n)
            (if k land 1 = 0 then 16 else 1024)
        in
        let prep, _ = prepare g in
        (g, prep))
  in
  let per_graph = 16 in
  Array.init (8 * per_graph) (fun idx ->
      let k = idx mod 8 in
      let g, prep = graphs.(k) in
      solve_request ~idx ~label:(Printf.sprintf "solve n=%d" (Graph.n g)) g prep
        (rhs rng (Graph.n g)))

(* serve-churn: 16 groups of five distinct instances (solve, sparsify,
   two max-flows, mst; n = 40..100, networks of n/2 nodes), each group
   followed by a repeat of one of its last four requests: still cached
   with a capacity of 4, and a hit even while the original is in flight,
   so 1 request in 6 hits. Max-flow round counts vary most between
   instances (a few need extra repair augmentations), hence two per group
   for a steadier rounds_per_op. *)
let churn_stream seed =
  let rng = Prng.create (Int64.of_int seed) in
  let out = ref [] and idx = ref 0 in
  let push r =
    out := r :: !out;
    incr idx
  in
  let gnp n = Gen.weighted_gnp ~seed:(Prng.next_int64 rng) n (8. /. float_of_int n) 64 in
  let maxflow nn =
    let net = Gen.random_network ~seed:(Prng.next_int64 rng) nn (4 * nn) 16 in
    (* the wire format carries no costs: rebuild with cost 0, exactly the
       network the daemon decodes *)
    let net =
      Digraph.create nn
        (Array.to_list (Array.map (fun a -> { a with Digraph.cost = 0 }) (Digraph.arcs net)))
    in
    push (maxflow_request ~idx:!idx ~label:(Printf.sprintf "maxflow n=%d" nn) net)
  in
  for group = 0 to 15 do
    let n = 40 + (4 * group) in
    let label k = Printf.sprintf "%s n=%d" k n in
    let g = gnp n in
    let prep, prepare_ms = prepare g in
    let r = solve_request ~idx:!idx ~label:(label "solve") g prep (rhs rng n) in
    push { r with probe = { r.probe with build_ms = prepare_ms } };
    push (graph_request ~idx:!idx ~label:(label "sparsify") Sparsify (gnp n));
    maxflow (n / 2);
    maxflow ((n / 2) + 1);
    push (graph_request ~idx:!idx ~label:(label "mst") Mst (gnp n));
    let prev = List.nth !out (group mod 4) in
    let body =
      match J.of_string (Bytes.to_string prev.frame.Wire.Frame.payload) with
      | Ok (J.Assoc fields) -> J.Assoc (("id", J.Int !idx) :: List.remove_assoc "id" fields)
      | _ -> failwith "set-up: cannot re-encode a request"
    in
    push
      {
        prev with
        idx = !idx;
        label = prev.label ^ " (repeat)";
        frame = Serve.Job.frame ~kind:Serve.Job.frame_job ~id:!idx body;
      }
  done;
  Array.of_list (List.rev !out)

(* ---------------------------------------------------------------- daemon *)

type daemon = { pid : int; links : Link.t array; flags : string list }

let spawn ~exe ~dir ~hot ~conns ~jobs =
  let sock = Printf.sprintf "%s/serve-%d-%d.sock" dir (Unix.getpid ()) (List.length !children) in
  let flags =
    [ "--jobs"; string_of_int jobs; "--policy"; (if hot then "none" else "verify");
      "--cache"; (if hot then "16" else "4") ]
  in
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process exe
      (Array.of_list ((exe :: "--addr" :: ("unix:" ^ sock) :: flags)))
      Unix.stdin out_w Unix.stderr
  in
  Unix.close out_w;
  children := pid :: !children;
  (* the daemon prints one line once it is listening *)
  let ic = Unix.in_channel_of_descr out_r in
  (match Unix.select [ out_r ] [] [] 30. with
  | [], _, _ -> failwith "cc_serve did not start within 30 s"
  | _ -> (
    match input_line ic with
    | line when String.length line >= 9 && String.sub line 0 9 = "cc_serve:" -> ()
    | line -> failwith ("cc_serve: unexpected start-up line " ^ line)
    | exception End_of_file -> failwith "cc_serve exited during start-up"));
  close_in ic;
  let links =
    Array.init conns (fun i ->
        Link.of_fd ~peer:(Printf.sprintf "cc_serve#%d" i) (Link.connect_unix sock))
  in
  { pid; links; flags }

let deadline () = Unix.gettimeofday () +. 60.

let call d body =
  let link = d.links.(0) in
  Link.send ~deadline:(deadline ()) link
    (Serve.Job.frame ~kind:Serve.Job.frame_job ~id:0 (J.Assoc body));
  let reply = Link.recv ~deadline:(deadline ()) link in
  match J.of_string (Bytes.to_string reply.Wire.Frame.payload) with
  | Ok j -> j
  | Error e -> failwith ("cc_serve reply is not JSON: " ^ e)

let shutdown d =
  (match call d [ ("kind", J.String "shutdown") ] with
  | _ -> ()
  | exception (Link.Closed _ | Link.Timeout _ | Unix.Unix_error _) -> ());
  Array.iter Link.close d.links;
  reap d.pid

let rec path j = function
  | [] -> Some j
  | k :: rest -> ( match J.member k j with Some v -> path v rest | None -> None)

let num j p = Option.bind (path j p) J.to_float_opt

let cache_stats d =
  let s = call d [ ("kind", J.String "stats") ] in
  let get k =
    match num s [ "result"; "cache"; k ] with
    | Some v -> v
    | None -> failwith "cc_serve stats reply lacks cache counters"
  in
  (get "hits", get "misses", get "evictions")

(* ------------------------------------------------------------ the loop *)

(* One request as the client saw it. *)
type sample = {
  req : request;
  traced : bool;
  sent_ns : int64;
  recv_ns : int64;
  send_ms : float;  (* inside Link.send *)
  reply : Wire.Frame.t;
}

(* Closed loop: every link has one request in flight; a reply is answered
   with the link's next request. Whole passes over [stream] run until
   [seconds] have elapsed; with [trace] passes alternate untraced /
   traced. Returns the samples and the throughput (ops/s) of each mode. *)
let drive d stream ~seconds ~trace ~min_passes =
  let size = Array.length stream in
  let links = d.links in
  let conns = Array.length links in
  let deadline_ns = Int64.add (Measure.now_ns ()) (Int64.of_float (seconds *. 1e9)) in
  let samples = ref [] in
  let next = ref 0 in
  let in_flight = Array.make conns None in
  let busy = [| 0.; 0. |] and ops = [| 0; 0 |] in
  let pass_start = ref (Measure.now_ns ()) in
  let pass_of k = k / size in
  let traced_pass p = trace && p land 1 = 1 in
  let stop_sending () =
    !next mod size = 0
    && pass_of !next >= min_passes
    && Measure.now_ns () >= deadline_ns
  in
  (* Passes end when their last reply lands; the next pass's first
     request is only sent then, so per-mode time is not shared. *)
  let pass_done () = Array.for_all Option.is_none in_flight in
  let send_next c =
    if !next mod size = 0 && !next > 0 && not (pass_done ()) then ()
    else if stop_sending () then ()
    else begin
      if !next mod size = 0 then pass_start := Measure.now_ns ();
      let k = !next in
      incr next;
      let req = stream.(k mod size) in
      let traced = traced_pass (pass_of k) in
      let sent_ns = Measure.now_ns () in
      Link.send links.(c) req.frame;
      in_flight.(c) <- Some (req, traced, sent_ns, Measure.ms_between sent_ns (Measure.now_ns ()))
    end
  in
  Array.iteri (fun c _ -> send_next c) links;
  while Array.exists Option.is_some in_flight do
    let fds =
      List.filteri (fun c _ -> in_flight.(c) <> None) (Array.to_list (Array.map Link.fd links))
    in
    let rec wait () =
      match Unix.select fds [] [] 60. with
      | [], _, _ -> failwith "cc_serve: no reply within 60 s"
      | ready, _, _ -> ready
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
    in
    let ready = wait () in
    Array.iteri
      (fun c link ->
        match in_flight.(c) with
        | Some (req, traced, sent_ns, send_ms) when List.mem (Link.fd link) ready ->
          let reply = Link.recv ~deadline:(deadline ()) link in
          let recv_ns = Measure.now_ns () in
          in_flight.(c) <- None;
          samples := { req; traced; sent_ns; recv_ns; send_ms; reply } :: !samples;
          let mode = if traced then 1 else 0 in
          ops.(mode) <- ops.(mode) + 1;
          (* the pass's last reply closes its wall-clock interval *)
          if pass_done () && !next mod size = 0 then
            busy.(mode) <- busy.(mode) +. Measure.s_between !pass_start recv_ns
        | _ -> ())
      links;
    (* refill every idle link (a pass boundary waits for all of them) *)
    Array.iteri (fun c _ -> if in_flight.(c) = None then send_next c) links
  done;
  (List.rev !samples, Array.map2 (fun n s -> float_of_int n /. s) ops busy)

(* ------------------------------------------------------------ workload *)

type parsed = {
  s : sample;
  ok : string option;  (* [Some reason] when the reply is wrong *)
  lat_ms : float;
  queue_ms : float;
  exec_ms : float;
  cache : string;
  attempts : float;
}

let parse s =
  let lat_ms = Measure.ms_between s.sent_ns s.recv_ns in
  let body = J.of_string (Bytes.to_string s.reply.Wire.Frame.payload) in
  let base = { s; ok = None; lat_ms; queue_ms = 0.; exec_ms = 0.; cache = ""; attempts = 0. } in
  match body with
  | Error e -> { base with ok = Some ("reply is not JSON: " ^ e) }
  | Ok j ->
    let wrong why = { base with ok = Some (Printf.sprintf "%s: %s" s.req.label why) } in
    if s.reply.Wire.Frame.kind <> Serve.Job.frame_result then
      wrong
        (Option.value (Serve.Client.error_message j) ~default:"refused without a message")
    else if num j [ "id" ] <> Some (float_of_int s.req.idx) then wrong "reply id mismatch"
    else begin
      let field k = path j [ "result"; k ] in
      let ok =
        match s.req.expect with
        | Str (k, v) -> field k = Some (J.String v)
        | Int (k, v) -> Option.bind (field k) J.to_int_opt = Some v
        | Flt (k, v) -> Option.bind (field k) J.to_float_opt = Some v
      in
      let rounds_ok = Option.bind (field "rounds") J.to_int_opt = Some s.req.rounds in
      let m k = Option.value (num j [ "metrics"; k ]) ~default:nan in
      let parsed =
        {
          base with
          queue_ms = m "queue_wait_ms";
          exec_ms = m "solve_ms";
          attempts = m "attempts";
          cache =
            (match path j [ "metrics"; "cache" ] with Some (J.String c) -> c | _ -> "");
        }
      in
      if not ok then wrong "answer differs from the library's"
      else if not rounds_ok then wrong "charged rounds differ from the library's"
      else parsed
    end

let run ~hot ~exe ~dir ~nproc ~seed ~seconds ~trace ~spans =
  let conns = max 1 (min 2 nproc) in
  let jobs = conns in
  let (stream, d), release, setup_s =
    Measure.repeated_setup ~reps:3 (fun () ->
        let stream = if hot then hot_stream seed else churn_stream seed in
        let d = spawn ~exe ~dir ~hot ~conns ~jobs in
        (* warm-up, untimed: on serve-hot one pass, which prepares and
           caches every graph; on serve-churn the first two groups *)
        let warm = if hot then stream else Array.sub stream 0 12 in
        let samples, _ = drive d warm ~seconds:0. ~trace:false ~min_passes:1 in
        List.iter
          (fun s ->
            match (parse s).ok with
            | Some why -> failwith ("warm-up: " ^ why)
            | None -> ())
          samples;
        ((stream, d), fun () -> shutdown d))
  in
  Fun.protect ~finally:release @@ fun () ->
  let size = Array.length stream in
  let h0, m0, e0 = cache_stats d in
  let bytes_sent0 = Array.fold_left (fun a l -> a + Link.bytes_sent l) 0 d.links in
  let bytes_recv0 = Array.fold_left (fun a l -> a + Link.bytes_recv l) 0 d.links in
  let gc0 = Measure.gc_mark () in
  let samples, rate =
    drive d stream ~seconds ~trace ~min_passes:(if trace then 2 else 1)
  in
  let minor, major = Measure.gc_since gc0 in
  let bytes_sent = Array.fold_left (fun a l -> a + Link.bytes_sent l) 0 d.links - bytes_sent0 in
  let bytes_recv = Array.fold_left (fun a l -> a + Link.bytes_recv l) 0 d.links - bytes_recv0 in
  let h1, m1, e1 = cache_stats d in
  let peak_rss = Measure.peak_rss_mb d.pid in
  (* ---- output checks, outside the timed window ---- *)
  let parsed = List.map parse samples in
  let errors = new_failures () in
  List.iter (fun p -> Option.iter (fail errors) p.ok) parsed;
  let plain = List.filter (fun p -> not p.s.traced) parsed in
  let arr f l = Array.of_list (List.map f l) in
  let lat = arr (fun p -> p.lat_ms) plain in
  let lat_metrics, lat_notes = latency_metrics lat in
  let n_all = float_of_int (List.length parsed) in
  let pool_rounds = Measure.mean (Array.map (fun r -> float_of_int r.rounds) stream) in
  let e2e =
    [
      { name = "setup_s"; value = setup_s; unit_ = "s" };
      { name = "ops_per_s"; value = rate.(0); unit_ = "1/s" };
    ]
    @ lat_metrics
    @ [
        { name = "rounds_per_op"; value = pool_rounds; unit_ = "rounds" };
        { name = "peak_rss_mb"; value = peak_rss; unit_ = "MB" };
      ]
  in
  let layers =
    if not trace then []
    else begin
      (* daemon-reported intervals become child spans of the traced
         request, next to the client's own send span *)
      let traced = List.filter (fun p -> p.s.traced) parsed in
      List.iter
        (fun p ->
          let root =
            Spans.add spans ~parent:(-1) ~op:p.s.req.idx ~name:"bench.request"
              ~start_ns:p.s.sent_ns ~dur_ns:(Int64.sub p.s.recv_ns p.s.sent_ns)
          in
          let ns ms = Int64.of_float (ms *. 1e6) in
          let at = Int64.add p.s.sent_ns (ns p.s.send_ms) in
          ignore
            (Spans.add spans ~parent:root ~op:p.s.req.idx ~name:"wire.send_frame"
               ~start_ns:p.s.sent_ns ~dur_ns:(ns p.s.send_ms));
          ignore
            (Spans.add spans ~parent:root ~op:p.s.req.idx ~name:"serve.decode"
               ~start_ns:at ~dur_ns:(ns p.s.req.probe.decode_ms));
          let at = Int64.add at (ns p.s.req.probe.decode_ms) in
          ignore
            (Spans.add spans ~parent:root ~op:p.s.req.idx ~name:"serve.queue_wait"
               ~start_ns:at ~dur_ns:(ns p.queue_ms));
          ignore
            (Spans.add spans ~parent:root ~op:p.s.req.idx ~name:"serve.exec"
               ~start_ns:(Int64.add at (ns p.queue_ms)) ~dur_ns:(ns p.exec_ms)))
        traced;
      let unattributed =
        arr (fun p -> p.lat_ms -. p.s.send_ms -. p.s.req.probe.decode_ms -. p.queue_ms -. p.exec_ms) traced
      in
      let total_lat = Measure.sum (arr (fun p -> p.lat_ms) traced) in
      (* per operation of the workload: the library work each request
         really caused in the daemon (a cache hit builds nothing, a
         memoized hit runs nothing) *)
      let per_op f = Measure.sum (arr f parsed) /. n_all in
      let built p = p.cache <> "hit" in
      let executed p = p.attempts >= 1. in
      let of_kind k p = p.s.req.kind = k in
      let hits = h1 -. h0 and misses = m1 -. m0 in
      let phase_per_op ph =
        per_op (fun p -> float_of_int (Option.value (List.assoc_opt ph p.s.req.probe.phases) ~default:0))
      in
      let solves = List.filter (of_kind Solve) parsed in
      let defined f l = Measure.mean (Array.of_list (List.filter (fun v -> not (Float.is_nan v)) (List.map f l))) in
      [
        (* charged rounds, like rounds_per_op: a cache hit replays them *)
        ("sparsify.rounds_per_op", phase_per_op "sparsify");
        ("sparsify.edge_ratio", defined (fun p -> p.s.req.probe.edge_ratio) parsed);
        ("laplacian.kappa_rounds_per_op", phase_per_op "kappa-estimate");
        ("laplacian.chebyshev_rounds_per_op", phase_per_op "chebyshev");
        ( "laplacian.chebyshev_iterations_per_op",
          per_op (fun p -> float_of_int p.s.req.probe.iterations) );
        ("laplacian.kappa", defined (fun p -> p.s.req.probe.kappa) solves);
        ( "sparsify.busy_ms_per_op",
          per_op (fun p -> if of_kind Sparsify p && built p then p.s.req.probe.build_ms else 0.) );
        ( "laplacian.prepare_ms_per_op",
          per_op (fun p -> if of_kind Solve p && built p then p.s.req.probe.build_ms else 0.) );
        ("laplacian.solve_prepared_ms_per_op", per_op (fun p -> p.s.req.probe.solve_ms));
        ( "linalg.minor_words_per_solve",
          Measure.mean (arr (fun p -> p.s.req.probe.solve_minor_words) solves) );
        ("serve.decode_ms", Measure.median (arr (fun p -> p.s.req.probe.decode_ms) parsed));
        ("serve.queue_wait_ms", Measure.median (arr (fun p -> p.queue_ms) parsed));
        ("serve.queue_wait_p90_ms", Measure.quantile (arr (fun p -> p.queue_ms) parsed) 0.9);
        ("serve.exec_ms", Measure.median (arr (fun p -> p.exec_ms) parsed));
        ("serve.unattributed_ms", Measure.median unattributed);
        ("serve.cache_hit_ratio", hits /. (hits +. misses));
        ("serve.cache_evictions_per_op", (e1 -. e0) /. n_all);
        ("serve.attempts_per_op", per_op (fun p -> p.attempts));
        ("wire.request_bytes_per_op", float_of_int bytes_sent /. n_all);
        ("wire.reply_bytes_per_op", float_of_int bytes_recv /. n_all);
        ( "fault.check_ms_per_op",
          per_op (fun p -> if hot || not (executed p) then 0. else p.s.req.probe.check_ms) );
        ( "flow.maxflow_ms_per_op",
          per_op (fun p -> if of_kind Maxflow p && executed p then p.s.req.probe.build_ms else 0.) );
        ( "flow.ipm_iterations_per_op",
          per_op (fun p ->
              if of_kind Maxflow p && executed p then float_of_int p.s.req.probe.ipm_iterations
              else 0.) );
        ( "flow.laplacian_solves_per_op",
          per_op (fun p ->
              if of_kind Maxflow p && executed p then float_of_int p.s.req.probe.laplacian_solves
              else 0.) );
        ("gc.minor_words_per_op", minor /. n_all);
        ("gc.major_collections_per_op", float_of_int major /. n_all);
        ("trace.overhead_ratio", rate.(1) /. rate.(0));
        ( "trace.span_coverage_ratio",
          (total_lat -. Measure.sum unattributed) /. total_lat );
        ("trace.unattributed_ms_per_op", Measure.mean unattributed);
      ]
    end
  in
  {
    attempted = List.length parsed;
    failed = errors.count;
    failures = List.rev errors.msgs;
    e2e;
    layers = Common.layers layers;
    notes =
      lat_notes
      @ [
          ("serve_flags", J.List (List.map (fun f -> J.String f) d.flags));
          ("connections", J.Int conns);
          ("requests_per_pass", J.Int size);
          ("untraced_ops", J.Int (List.length plain));
          ("traced_ops", J.Int (List.length parsed - List.length plain));
          ("cache_hits", J.Float (h1 -. h0));
          ("cache_misses", J.Float (m1 -. m0));
        ];
  }
