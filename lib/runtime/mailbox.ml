exception
  Bandwidth_exceeded of {
    src : int;
    dst : int;
    words : int;
    width : int;
    phase : string;
  }

(* The phase the enclosing runtime call is charging under; set by
   [Runtime.Make.wrap] around each transport call so delivery errors can
   name where in the pipeline they fired even though the mailbox itself is
   phase-oblivious. *)
let context = ref "main"

(* Written by the runtime wrapper on the coordinating domain around each
   transport call; the pool-fanned step closures only build outboxes and
   never touch the context. *)
let set_context phase = context := phase (* cc_lint: allow L11 — coordinator-domain-only phase context *)

let current_context () = !context

let () =
  Printexc.register_printer (function
    | Bandwidth_exceeded { src; dst; words; width; phase } ->
      Some
        (Printf.sprintf
           "Runtime.Mailbox.Bandwidth_exceeded(src=%d, dst=%d: %d words over \
            width %d in phase %S)"
           src dst words width phase)
    | _ -> None)

let route ~n ~width ?check msgs =
  let sent = Array.make n 0 in
  let received = Array.make n 0 in
  let inboxes = Array.make n [] in
  let words = ref 0 in
  List.iter
    (fun (src, dst, payload) ->
      if src < 0 || src >= n || dst < 0 || dst >= n then
        invalid_arg
          (Printf.sprintf
             "Mailbox.route: endpoint out of range (src=%d, dst=%d, phase=%S, \
              width=%d)"
             src dst !context width);
      (match check with Some f -> f ~src ~dst | None -> ());
      let w = Array.length payload in
      if w > width then
        raise
          (Bandwidth_exceeded { src; dst; words = w; width; phase = !context });
      sent.(src) <- sent.(src) + w;
      received.(dst) <- received.(dst) + w;
      words := !words + w;
      inboxes.(dst) <- (src, payload) :: inboxes.(dst))
    msgs;
  let max_load = ref 0 in
  for v = 0 to n - 1 do
    max_load := max !max_load (max sent.(v) received.(v))
  done;
  let capacity = n * width in
  let batches = max 1 ((!max_load + capacity - 1) / capacity) in
  (inboxes, !words, batches)

let broadcast ~n ~width values =
  if Array.length values <> n then
    invalid_arg "Mailbox.broadcast: values array length mismatch";
  let words = ref 0 in
  Array.iteri
    (fun src payload ->
      let w = Array.length payload in
      if w > width then
        raise
          (Bandwidth_exceeded
             { src; dst = -1; words = w; width; phase = !context });
      words := !words + ((n - 1) * w))
    values;
  (Array.copy values, !words)
