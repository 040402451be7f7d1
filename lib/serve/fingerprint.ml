(* Structural FNV-1a fingerprints for cache keys. The folds reuse
   Wire.Fnv (the transcript/checksum hash) so a fingerprint is stable
   across processes and runs — the property the daemon's cache keying and
   the cache-hit-identity tests rest on. *)

(* All 64 IEEE bits of a float, as two 32-bit halves: [Wire.Fnv.add_int]
   folds a 63-bit int, so one [Int64.to_int] of the bits would drop the
   sign bit and fold 1.0 and -1.0 alike. *)
let add_float fp x =
  let b = Int64.bits_of_float x in
  let fp = Wire.Fnv.add_int fp (Int64.to_int (Int64.shift_right_logical b 32)) in
  Wire.Fnv.add_int fp (Int64.to_int (Int64.logand b 0xFFFF_FFFFL))

let graph g =
  let fp = ref (Wire.Fnv.add_int Wire.Fnv.offset (Graph.n g)) in
  fp := Wire.Fnv.add_int !fp (Graph.m g);
  Array.iter
    (fun (e : Graph.edge) ->
      fp := Wire.Fnv.add_int !fp e.u;
      fp := Wire.Fnv.add_int !fp e.v;
      fp := add_float !fp e.w)
    (Graph.edges g);
  !fp

let digraph d =
  let fp = ref (Wire.Fnv.add_int Wire.Fnv.offset (Digraph.n d)) in
  fp := Wire.Fnv.add_int !fp (Digraph.m d);
  Array.iter
    (fun (a : Digraph.arc) ->
      fp := Wire.Fnv.add_int !fp a.src;
      fp := Wire.Fnv.add_int !fp a.dst;
      fp := Wire.Fnv.add_int !fp a.cap;
      fp := Wire.Fnv.add_int !fp a.cost)
    (Digraph.arcs d);
  !fp

let vec fp (v : Linalg.Vec.t) =
  let fp = ref (Wire.Fnv.add_int fp (Array.length v)) in
  Array.iter (fun x -> fp := add_float !fp x) v;
  !fp

let to_hex fp = Printf.sprintf "%016Lx" fp

(* Canonical keys: the fields [graph]/[digraph] fold, each written as 8
   little-endian bytes. Every field is fixed-width and each count precedes
   the list it sizes, so the encoding is injective. *)
let canonical fill =
  let b = Buffer.create 256 in
  fill (Buffer.add_int64_le b);
  Buffer.contents b

let graph_key g =
  canonical (fun add ->
      add (Int64.of_int (Graph.n g));
      add (Int64.of_int (Graph.m g));
      Array.iter
        (fun (e : Graph.edge) ->
          add (Int64.of_int e.u);
          add (Int64.of_int e.v);
          add (Int64.bits_of_float e.w))
        (Graph.edges g))

let digraph_key ~s ~t d =
  canonical (fun add ->
      List.iter
        (fun i -> add (Int64.of_int i))
        [ s; t; Digraph.n d; Digraph.m d ];
      Array.iter
        (fun (a : Digraph.arc) ->
          List.iter
            (fun i -> add (Int64.of_int i))
            [ a.src; a.dst; a.cap; a.cost ])
        (Digraph.arcs d))
