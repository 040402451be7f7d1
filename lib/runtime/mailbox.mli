(** The bandwidth-check core shared by every {!Transport.S} instance: the
    {!Bandwidth_exceeded} error, the phase context delivery errors name,
    and the routing and broadcast arithmetic. Per-round unicast delivery
    lives in {!Arena}; the kernels ([Sim], [Congest]) differ only in which
    ordered pairs may talk — expressed through the [?check] callback — and
    in how they count rounds. *)

exception
  Bandwidth_exceeded of {
    src : int;
    dst : int;
    words : int;
    width : int;
    phase : string;
  }
(** A round would carry more than [width] words over the ordered pair
    [(src, dst)] ([dst = -1] for a broadcast payload that is itself too
    wide). [phase] is the runtime phase current when the delivery ran (see
    {!set_context}), so the error names where in the pipeline it fired. A
    printer is registered: uncaught, the exception prints all five
    fields. *)

val set_context : string -> unit
(** [set_context phase] records the phase delivery errors should name.
    Called by [Runtime.Make] around every transport call; defaults to
    ["main"]. *)

val current_context : unit -> string
(** The phase last recorded with {!set_context} (phase-scoped fault
    schedules read it to decide whether a rule applies). *)

val route :
  n:int ->
  width:int ->
  ?check:(src:int -> dst:int -> unit) ->
  (int * int * int array) list ->
  (int * int array) list array * int * int
(** [route ~n ~width msgs] delivers an arbitrary [(src, dst, payload)]
    multiset and returns [(inboxes, total_words, batches)] where
    [batches = max 1 ⌈load / (n·width)⌉] and [load] is the maximum number of
    words any single node sends or receives. A single payload wider than
    [width] words does not fit any message and raises
    {!Bandwidth_exceeded}. *)

val broadcast :
  n:int -> width:int -> int array array -> int array array * int
(** [broadcast ~n ~width values] checks every [values.(v)] fits in [width]
    words and returns [(copy of values, total_words)] with
    [total_words = Σ (n-1)·|values.(v)|]. *)
