(* In-memory span recorder for the traced run.

   A span is one call from the benchmark into a layer's public function:
   its name is "<layer>.<call>" (the layer is the lib/ directory), it
   knows the span that caused it and the operation it belongs to. Spans
   are kept in memory and written out once, at the end, as Chrome
   trace-event JSON. A disabled recorder costs one boolean test per call
   and never reads the clock. *)

module Json = Metrics.Json

type span = {
  id : int;
  parent : int;  (* -1 for a root span *)
  op : int;  (* the operation (request) the span belongs to *)
  name : string;
  start_ns : int64;
  dur_ns : int64;
}

type t = {
  enabled : bool;
  origin : int64;
  mutable spans : span list;  (* newest first *)
  mutable next_id : int;
  mutable current : int;
  mutable cur_op : int;
}

let create ~enabled =
  {
    enabled;
    origin = Measure.now_ns ();
    spans = [];
    next_id = 0;
    current = -1;
    cur_op = -1;
  }

let set_op t op = t.cur_op <- op

let fresh_id t =
  let id = t.next_id in
  t.next_id <- id + 1;
  id

(* Record an interval measured elsewhere (for example a daemon's reported
   queue wait) as a child of span [parent]; returns its id. *)
let add t ~parent ~op ~name ~start_ns ~dur_ns =
  let id = fresh_id t in
  if t.enabled then
    t.spans <- { id; parent; op; name; start_ns; dur_ns } :: t.spans;
  id

let with_span t name f =
  if not t.enabled then f ()
  else begin
    let id = fresh_id t in
    let parent = t.current in
    t.current <- id;
    let start_ns = Measure.now_ns () in
    let finish () =
      let dur_ns = Int64.sub (Measure.now_ns ()) start_ns in
      t.current <- parent;
      t.spans <- { id; parent; op = t.cur_op; name; start_ns; dur_ns } :: t.spans
    in
    match f () with
    | v ->
      finish ();
      v
    | exception e ->
      finish ();
      raise e
  end

let spans t = List.rev t.spans

(* Forget everything recorded so far (set-up and warm-up calls). *)
let clear t = t.spans <- []

let ms s = Int64.to_float s.dur_ns /. 1e6

(* Summed duration (ms) of every span called [name]. *)
let total_ms t name =
  List.fold_left (fun acc s -> if s.name = name then acc +. ms s else acc) 0. t.spans

(* For every span called [root]: its duration and the summed duration of
   its direct children (the part layer spans account for). *)
let coverage t ~root =
  let child_ms = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child_ms s.parent
          (ms s +. Option.value (Hashtbl.find_opt child_ms s.parent) ~default:0.))
    t.spans;
  List.filter_map
    (fun s ->
      if s.name = root then
        Some (ms s, Option.value (Hashtbl.find_opt child_ms s.id) ~default:0.)
      else None)
    (spans t)

let layer name =
  match String.index_opt name '.' with
  | Some i -> String.sub name 0 i
  | None -> name

let us t ns = Int64.to_float (Int64.sub ns t.origin) /. 1e3

(* Chrome trace-event JSON ("X" complete events, one process, one track
   per operation so concurrent requests do not overlap visually). *)
let to_chrome t ~meta =
  let event s =
    Json.Assoc
      [
        ("name", Json.String s.name);
        ("cat", Json.String (layer s.name));
        ("ph", Json.String "X");
        ("ts", Json.Float (us t s.start_ns));
        ("dur", Json.Float (Int64.to_float s.dur_ns /. 1e3));
        ("pid", Json.Int 1);
        ("tid", Json.Int (max s.op 0));
        ( "args",
          Json.Assoc
            [
              ("id", Json.Int s.id);
              ("parent", Json.Int s.parent);
              ("op", Json.Int s.op);
            ] );
      ]
  in
  Json.Assoc
    [
      ("traceEvents", Json.List (List.map event (spans t)));
      ("displayTimeUnit", Json.String "ms");
      ("otherData", Json.Assoc meta);
    ]

let write_chrome t ~meta path =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (Json.to_string ~minify:true (to_chrome t ~meta)))
