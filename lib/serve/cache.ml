(* A small thread-safe LRU keyed by canonical-input strings.

   Two-level locking: the table mutex only covers lookup/insert/evict
   bookkeeping (never a build or a solve), while each entry carries its
   own mutex serializing use of the artifact it holds — prepared solver
   handles own mutable workspaces, so two jobs hitting the same graph
   must take turns, but jobs on different graphs proceed in parallel.

   Eviction drops the least-recently-used entry from the table only; a
   worker still holding the evicted entry keeps a valid reference and
   finishes normally. *)

type 'v entry = {
  key : string;
  lock : Mutex.t;
  mutable value : 'v option;  (* None until the first holder builds it *)
  mutable last_used : int;
}

type 'v t = {
  m : Mutex.t;
  tbl : (string, 'v entry) Hashtbl.t;
  cap : int;
  mutable tick : int;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
}

let create ~cap =
  {
    m = Mutex.create ();
    tbl = Hashtbl.create 16;
    cap = max cap 1;
    tick = 0;
    hits = 0;
    misses = 0;
    evictions = 0;
  }

let evict_lru t =
  let victim = ref None in
  Hashtbl.iter
    (fun _ e ->
      match !victim with
      | None -> victim := Some e
      | Some v -> if e.last_used < v.last_used then victim := Some e)
    t.tbl;
  match !victim with
  | None -> ()
  | Some e ->
    Hashtbl.remove t.tbl e.key;
    t.evictions <- t.evictions + 1

let find_or_add t key =
  Mutex.lock t.m;
  t.tick <- t.tick + 1;
  let tick = t.tick in
  let hit, entry =
    match Hashtbl.find_opt t.tbl key with
    | Some e ->
      e.last_used <- tick;
      t.hits <- t.hits + 1;
      (true, e)
    | None ->
      if Hashtbl.length t.tbl >= t.cap then evict_lru t;
      let e =
        { key; lock = Mutex.create (); value = None; last_used = tick }
      in
      Hashtbl.replace t.tbl key e;
      t.misses <- t.misses + 1;
      (false, e)
  in
  Mutex.unlock t.m;
  (hit, entry)

let use t key ~build f =
  let hit, entry = find_or_add t key in
  Mutex.lock entry.lock;
  match
    let v =
      match entry.value with
      | Some v -> v
      | None ->
        let v = build () in
        entry.value <- Some v;
        v
    in
    f v
  with
  | result ->
    Mutex.unlock entry.lock;
    (result, hit)
  | exception e ->
    Mutex.unlock entry.lock;
    raise e

type stats = { entries : int; hits : int; misses : int; evictions : int }

let stats t =
  Mutex.lock t.m;
  let s =
    {
      entries = Hashtbl.length t.tbl;
      hits = t.hits;
      misses = t.misses;
      evictions = t.evictions;
    }
  in
  Mutex.unlock t.m;
  s
