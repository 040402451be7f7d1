(* The arena message kernel (DESIGN.md §10). All round-hot state lives in
   flat arrays sized once and reused: a reset is a handful of scalar writes
   plus an epoch bump, never an O(n²) clear or a reallocation. *)

type t = {
  n : int;
  (* Flat message table, in arrival order (src ascending, outbox order).
     [pay] stores references to the senders' payload arrays, shared with
     the receivers, so no words are copied. *)
  mutable cap : int;
  mutable src : int array;
  mutable dst : int array;
  mutable pay : int array array;
  mutable count : int;
  (* Counting-sort scratch: per-destination message counts, then prefix
     starts; [slot] is the arrival-order permutation into dst slices. *)
  counts : int array;
  starts : int array;
  fill : int array;
  mutable slot : int array;
  (* Per-link width accounting, keyed src * n + dst. The dense table is
     epoch-stamped: a cell is live iff its stamp equals the current epoch,
     so resetting costs one increment. *)
  dense : bool;
  pair_words : int array;
  pair_epoch : int array;
  mutable epoch : int;
  sparse : (int, int) Hashtbl.t;
  (* Stats (kernel.arena.* counters). *)
  mutable resets : int;
  mutable grows : int;
  mutable slot_words_reused : int;
}

let no_payload : int array = [||]

let create ?(dense_threshold = 1024) ~n () =
  if n <= 0 then invalid_arg "Arena.create: need n > 0";
  let dense = n <= dense_threshold in
  let cap = 64 in
  {
    n;
    cap;
    src = Array.make cap 0;
    dst = Array.make cap 0;
    pay = Array.make cap no_payload;
    count = 0;
    counts = Array.make n 0;
    starts = Array.make (n + 1) 0;
    fill = Array.make n 0;
    slot = Array.make cap 0;
    dense;
    pair_words = (if dense then Array.make (n * n) 0 else [||]);
    pair_epoch = (if dense then Array.make (n * n) 0 else [||]);
    epoch = 0;
    sparse = (if dense then Hashtbl.create 1 else Hashtbl.create 256);
    resets = 0;
    grows = 0;
    slot_words_reused = 0;
  }

let n t = t.n

let uses_dense_table t = t.dense

let grow t =
  let cap = 2 * t.cap in
  let src = Array.make cap 0
  and dst = Array.make cap 0
  and pay = Array.make cap no_payload
  and slot = Array.make cap 0 in
  Array.blit t.src 0 src 0 t.count;
  Array.blit t.dst 0 dst 0 t.count;
  Array.blit t.pay 0 pay 0 t.count;
  t.src <- src;
  t.dst <- dst;
  t.pay <- pay;
  t.slot <- slot;
  t.cap <- cap;
  t.grows <- t.grows + 1

(* Accumulated words over the ordered pair, read-modify-write. *)
let pair_add t ~src ~dst w =
  let key = (src * t.n) + dst in
  if t.dense then begin
    let cur = if t.pair_epoch.(key) = t.epoch then t.pair_words.(key) else 0 in
    let total = cur + w in
    t.pair_epoch.(key) <- t.epoch;
    t.pair_words.(key) <- total;
    total
  end
  else begin
    let cur = match Hashtbl.find_opt t.sparse key with Some c -> c | None -> 0 in
    let total = cur + w in
    Hashtbl.replace t.sparse key total;
    total
  end

(* cc_lint: hot deliver *)

let deliver t ~width ?check outboxes =
  if Array.length outboxes <> t.n then
    invalid_arg "Mailbox.deliver: outbox array length mismatch";
  (* Round reset: scalar writes plus an epoch bump. *)
  let cap_before = t.cap in
  t.count <- 0;
  t.epoch <- t.epoch + 1;
  t.resets <- t.resets + 1;
  if not t.dense then Hashtbl.reset t.sparse;
  Array.fill t.counts 0 t.n 0;
  let words = ref 0 in
  (* Pass 1: validate, width-account, and append to the flat message table
     in arrival order, so errors fire at the first offending message of
     the (src, outbox position) walk — the order the shard transport
     reproduces too. *)
  let n = t.n in
  for s = 0 to n - 1 do
    List.iter
      (fun (d, payload) ->
        if d < 0 || d >= n then
          invalid_arg
            (Printf.sprintf
               "Mailbox.deliver: destination %d out of range (src=%d, \
                phase=%S, width=%d)"
               d s (Mailbox.current_context ()) width);
        (match check with Some f -> f ~src:s ~dst:d | None -> ());
        let w = Array.length payload in
        let total = pair_add t ~src:s ~dst:d w in
        if total > width then
          raise
            (Mailbox.Bandwidth_exceeded
               {
                 src = s;
                 dst = d;
                 words = total;
                 width;
                 phase = Mailbox.current_context ();
               });
        if t.count = t.cap then grow t;
        let i = t.count in
        t.src.(i) <- s;
        t.dst.(i) <- d;
        t.pay.(i) <- payload;
        t.count <- i + 1;
        t.counts.(d) <- t.counts.(d) + 1;
        words := !words + w)
      outboxes.(s)
  done;
  t.slot_words_reused <- t.slot_words_reused + min t.count cap_before;
  (* Pass 2: counting sort. [starts.(d)] is the first slot of destination
     [d]'s contiguous slice; scattering in arrival order keeps each slice
     sorted by arrival. *)
  let acc = ref 0 in
  for d = 0 to n - 1 do
    t.starts.(d) <- !acc;
    acc := !acc + t.counts.(d)
  done;
  t.starts.(n) <- !acc;
  Array.fill t.fill 0 n 0;
  for i = 0 to t.count - 1 do
    let d = t.dst.(i) in
    t.slot.(t.starts.(d) + t.fill.(d)) <- i;
    t.fill.(d) <- t.fill.(d) + 1
  done;
  (* Pass 3: materialize the inboxes (the result escapes, so the array and
     list spines are the only fresh allocations). Consing the slice
     front-to-back reverses it, so each inbox lists its messages in reverse
     arrival order. *)
  let inboxes = Array.make n [] in (* cc_lint: allow L12 — escapes to the caller *)
  for d = 0 to n - 1 do
    let lo = t.starts.(d) and hi = t.starts.(d + 1) in
    let box = ref [] in
    for s = lo to hi - 1 do
      let i = t.slot.(s) in
      box := (t.src.(i), t.pay.(i)) :: !box
    done;
    inboxes.(d) <- !box
  done;
  (inboxes, !words)

let stats t =
  [
    ("kernel.arena.dense", if t.dense then 1 else 0);
    ("kernel.arena.grows", t.grows);
    ("kernel.arena.resets", t.resets);
    ("kernel.arena.slot_words_reused", t.slot_words_reused);
  ]
