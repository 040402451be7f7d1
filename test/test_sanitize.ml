(* Unit tests for the dynamic sanitizer mode of [Runtime.Make], plus the
   two ledger primitives it leans on: the Trace ring buffer's behaviour
   exactly at capacity and Cost.charge's rejection of negative rounds. *)

module K = Clique.Kernel
module San = Runtime.Sanitize

let violation kind f =
  try
    ignore (f ());
    None
  with San.Violation { phase; kind = k; detail } when k = kind ->
    Some (phase, detail)

(* ------------------------------------------------------- width checking *)

let test_width_violation_names_phase () =
  let rt = K.On_sim.create ~sanitize:true (Clique.Sim.create 3) in
  match
    violation "width" (fun () ->
        K.with_phase rt "burst" (fun () ->
            K.On_sim.exchange rt [| [ (1, [| 1; 2; 3 |]) ]; []; [] |]))
  with
  | None -> Alcotest.fail "oversized exchange must trip the sanitizer"
  | Some (phase, detail) ->
    Alcotest.(check string) "offending phase is reported" "burst" phase;
    Alcotest.(check bool) "detail names the link" true
      (String.length detail > 0)

let test_width_aggregates_per_link () =
  (* Three 1-word messages to the same destination: each payload fits the
     2-word bound, their per-link sum does not. *)
  let rt = K.On_sim.create ~sanitize:true (Clique.Sim.create 3) in
  Alcotest.(check bool) "per-link aggregation" true
    (violation "width" (fun () ->
         K.On_sim.exchange rt
           [| [ (1, [| 1 |]); (1, [| 2 |]); (1, [| 3 |]) ]; []; [] |])
    <> None)

let test_width_route_and_broadcast () =
  let rt = K.On_sim.create ~sanitize:true (Clique.Sim.create 3) in
  Alcotest.(check bool) "wide routed payload" true
    (violation "width" (fun () ->
         K.On_sim.route rt [ (0, 1, [| 1; 2; 3 |]) ])
    <> None);
  let rt = K.On_sim.create ~sanitize:true (Clique.Sim.create 3) in
  Alcotest.(check bool) "wide broadcast payload" true
    (violation "width" (fun () ->
         K.On_sim.broadcast rt [| [| 1; 2; 3 |]; [| 0 |]; [| 0 |] |])
    <> None);
  (* An explicit wider width is the sanctioned way to send more. *)
  let rt = K.On_sim.create ~sanitize:true (Clique.Sim.create 3) in
  ignore (K.On_sim.route ~width:3 rt [ (0, 1, [| 1; 2; 3 |]) ])

(* ----------------------------------------- duplicate outbox destinations *)

let test_duplicate_dst_flagged () =
  (* Two width-respecting messages from one sender to the same destination:
     the kernel would silently concatenate them into one round, so the
     sanitizer reports the outbox as malformed instead. *)
  let rt = K.On_sim.create ~sanitize:true (Clique.Sim.create 3) in
  match
    violation "duplicate-dst" (fun () ->
        K.with_phase rt "shift" (fun () ->
            K.On_sim.exchange rt [| [ (1, [| 7 |]); (1, [| 8 |]) ]; []; [] |]))
  with
  | None -> Alcotest.fail "duplicate (dst, _) entries must trip the sanitizer"
  | Some (phase, detail) ->
    Alcotest.(check string) "offending phase" "shift" phase;
    Alcotest.(check bool) "detail names sender and destination" true
      (String.length detail > 0)

let test_duplicate_dst_width_wins () =
  (* When the duplicates also blow the width bound, the width violation
     keeps firing first (regression pin for the check ordering). *)
  let rt = K.On_sim.create ~sanitize:true (Clique.Sim.create 3) in
  Alcotest.(check bool) "width reported before duplicate-dst" true
    (violation "width" (fun () ->
         K.On_sim.exchange rt
           [| [ (1, [| 1 |]); (1, [| 2 |]); (1, [| 3 |]) ]; []; [] |])
    <> None);
  (* Distinct destinations stay legal. *)
  let rt = K.On_sim.create ~sanitize:true (Clique.Sim.create 3) in
  ignore (K.On_sim.exchange rt [| [ (1, [| 1 |]); (2, [| 2 |]) ]; []; [] |])

(* ------------------------------------------------ broadcast width rule *)

let test_broadcast_multi_payload_flagged () =
  (* The planted violation of the broadcast model: one source ships two
     distinct payloads in a single round. The sanitizer must reject it
     before the transport runs and name the offending phase. *)
  let rt = K.On_bcast.create ~sanitize:true (Clique.Broadcast.create 3) in
  match
    violation "broadcast-width" (fun () ->
        K.On_bcast.with_phase rt "fanout" (fun () ->
            K.On_bcast.exchange rt [| [ (1, [| 7 |]); (2, [| 8 |]) ]; []; [] |]))
  with
  | None -> Alcotest.fail "two distinct payloads per src must trip the sanitizer"
  | Some (phase, detail) ->
    Alcotest.(check string) "offending phase is reported" "fanout" phase;
    Alcotest.(check bool) "detail names the source and the rule" true
      (String.length detail > 0)

let test_broadcast_width_wins_and_legal_fanout () =
  (* An oversized payload reports "width" even when the outbox is also
     multi-payload (check ordering mirrors the unicast sanitizer)... *)
  let rt = K.On_bcast.create ~sanitize:true (Clique.Broadcast.create 3) in
  Alcotest.(check bool) "width reported before broadcast-width" true
    (violation "width" (fun () ->
         K.On_bcast.exchange rt
           [| [ (1, [| 1; 2; 3 |]); (2, [| 9 |]) ]; []; [] |])
    <> None);
  (* ...and a same-payload fanout is exactly what the model allows. *)
  let rt = K.On_bcast.create ~sanitize:true (Clique.Broadcast.create 3) in
  ignore (K.On_bcast.exchange rt [| [ (1, [| 5 |]); (2, [| 5 |]) ]; []; [] |]);
  Alcotest.(check int) "legal fanout is one round" 1 (K.On_bcast.rounds rt)

let test_model_selector () =
  let module Mo = Runtime.Model in
  Alcotest.(check bool) "broadcast parses" true
    (Mo.of_string "Broadcast" = Some Mo.Broadcast
    && Mo.of_string "bcast" = Some Mo.Broadcast);
  Alcotest.(check bool) "unicast parses" true
    (Mo.of_string "unicast" = Some Mo.Unicast);
  Alcotest.(check bool) "junk rejected" true (Mo.of_string "???" = None);
  (* The configured model is what a charged pipeline's [?model] defaults
     to. *)
  let g = Gen.connected_gnp ~seed:3L 24 0.5 in
  let rounds ?model () = (Sparsify.Spectral.sparsify ?model g).Sparsify.Spectral.rounds in
  let forced =
    Runtime.Config.with_
      { (Runtime.Config.get ()) with model = Mo.Broadcast }
      (fun () -> rounds ())
  in
  Alcotest.(check int) "configured model is the default"
    (rounds ~model:Mo.Broadcast ()) forced;
  Alcotest.(check bool) "and it changes the accounting" true
    (forced <> rounds ~model:Mo.Unicast ())

(* ---------------------------------------------------- phase attribution *)

let test_phase_attribution () =
  let rt = K.On_sim.create ~sanitize:true (Clique.Sim.create 3) in
  (* Setup charges under "main" are fine before any named phase... *)
  K.charge rt 1;
  K.with_phase rt "solve" (fun () -> K.charge rt 2);
  (* ...but once a named phase has run, unattributed rounds are a bug. *)
  (match violation "phase-attribution" (fun () -> K.charge rt 3) with
  | None -> Alcotest.fail "post-setup main-phase rounds must be flagged"
  | Some (phase, _) -> Alcotest.(check string) "phase" "main" phase);
  (* Zero-round events carry no attribution burden. *)
  K.charge rt 0

let test_phase_attribution_off_when_unsanitized () =
  (* [~sanitize:false] must win even under an ambient CC_SANITIZE=1. *)
  let rt = K.On_sim.create ~sanitize:false (Clique.Sim.create 3) in
  K.with_phase rt "solve" (fun () -> K.charge rt 2);
  K.charge rt 3;
  Alcotest.(check int) "no sanitizer, no violation" 5 (K.rounds rt);
  Alcotest.(check bool) "not sanitized" false (K.On_sim.sanitized rt)

(* ---------------------------------------------------------- ledger drift *)

let test_ledger_drift () =
  let sim = Clique.Sim.create 3 in
  let rt = K.On_sim.create ~sanitize:true sim in
  K.charge rt ~phase:"p" 1;
  (* Bypass the runtime: the transport moves, the ledger does not. *)
  Clique.Sim.charge sim 2;
  Alcotest.(check bool) "bypassed rounds detected at the next event" true
    (violation "ledger-drift" (fun () -> K.charge rt ~phase:"p" 1) <> None)

let test_drift_baseline_over_used_transport () =
  (* A runtime created over a transport that already has rounds on the
     clock must not see phantom drift: the baseline is snapshotted. *)
  let sim = Clique.Sim.create 3 in
  Clique.Sim.charge sim 5;
  let rt = K.On_sim.create ~sanitize:true sim in
  K.charge rt ~phase:"p" 2;
  Alcotest.(check int) "ledger counts only its own rounds" 2 (K.rounds rt)

(* ------------------------------------------------- enabling and default *)

let test_config_default () =
  let with_sanitize b f =
    Runtime.Config.with_ { (Runtime.Config.get ()) with sanitize = b } f
  in
  with_sanitize true (fun () ->
      let rt = K.clique 2 in
      Alcotest.(check bool) "default on" true (K.On_sim.sanitized rt);
      Alcotest.(check bool) "sanitizer exposed" true
        (K.On_sim.sanitizer rt <> None));
  with_sanitize false (fun () ->
      let rt = K.clique 2 in
      Alcotest.(check bool) "default off" false (K.On_sim.sanitized rt);
      (* An explicit argument beats the configured default. *)
      let rt = K.On_sim.create ~sanitize:true (Clique.Sim.create 2) in
      Alcotest.(check bool) "explicit wins" true (K.On_sim.sanitized rt))

(* ------------------------------------------------------------ transcript *)

let test_transcript_distinguishes_runs () =
  let run charges =
    let rt = K.On_sim.create ~sanitize:true (Clique.Sim.create 2) in
    List.iter (fun (p, r) -> K.charge rt ~phase:p r) charges;
    match K.On_sim.sanitizer rt with
    | Some s -> San.transcript s
    | None -> Alcotest.fail "sanitizer expected"
  in
  let a = run [ ("x", 1); ("y", 2) ] in
  let a' = run [ ("x", 1); ("y", 2) ] in
  let b = run [ ("x", 1); ("y", 3) ] in
  Alcotest.check Alcotest.int64 "same run, same shape" a.San.shape_hash
    a'.San.shape_hash;
  Alcotest.check Alcotest.int64 "same run, same content" a.San.content_hash
    a'.San.content_hash;
  Alcotest.(check int) "events counted" 2 a.San.events;
  Alcotest.(check bool) "different run, different shape" true
    (a.San.shape_hash <> b.San.shape_hash)

(* --------------------------------------------------- trace ring at capacity *)

let test_trace_wraparound_at_capacity () =
  let tr = Runtime.Trace.create 3 in
  for i = 1 to 3 do
    Runtime.Trace.record tr ~phase:(string_of_int i) ~rounds:i ~words:0
  done;
  (* Exactly full: nothing dropped yet. *)
  Alcotest.(check int) "recorded" 3 (Runtime.Trace.recorded tr);
  Alcotest.(check (list string))
    "all retained, oldest first" [ "1"; "2"; "3" ]
    (List.map (fun e -> e.Runtime.Trace.phase) (Runtime.Trace.to_list tr));
  (* One past capacity: the oldest event falls off, seq keeps counting. *)
  Runtime.Trace.record tr ~phase:"4" ~rounds:4 ~words:0;
  Alcotest.(check int) "recorded counts past capacity" 4
    (Runtime.Trace.recorded tr);
  let retained = Runtime.Trace.to_list tr in
  Alcotest.(check (list string))
    "window slid by one" [ "2"; "3"; "4" ]
    (List.map (fun e -> e.Runtime.Trace.phase) retained);
  Alcotest.(check (list int))
    "seq is global, not slot index" [ 1; 2; 3 ]
    (List.map (fun e -> e.Runtime.Trace.seq) retained);
  (* Wrap all the way around: only the newest capacity-many survive. *)
  for i = 5 to 10 do
    Runtime.Trace.record tr ~phase:(string_of_int i) ~rounds:i ~words:0
  done;
  Alcotest.(check (list string))
    "full wrap" [ "8"; "9"; "10" ]
    (List.map (fun e -> e.Runtime.Trace.phase) (Runtime.Trace.to_list tr))

let test_trace_capacity_validation () =
  Alcotest.(check bool) "capacity 0 rejected" true
    (try
       ignore (Runtime.Trace.create 0);
       false
     with Invalid_argument _ -> true)

(* ----------------------------------------------- cost charge validation *)

let test_cost_negative_charge_rejected () =
  let c = Runtime.Cost.create () in
  Alcotest.(check bool) "negative rounds rejected" true
    (try
       Runtime.Cost.charge c ~phase:"x" (-1);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check int) "ledger untouched by the rejected charge" 0
    (Runtime.Cost.rounds c);
  Runtime.Cost.charge c ~phase:"x" 0;
  Alcotest.(check int) "zero rounds is a valid charge" 0
    (Runtime.Cost.rounds c)

let suite =
  [
    Alcotest.test_case "width violation names the phase" `Quick
      test_width_violation_names_phase;
    Alcotest.test_case "width aggregates per link" `Quick
      test_width_aggregates_per_link;
    Alcotest.test_case "width on route and broadcast" `Quick
      test_width_route_and_broadcast;
    Alcotest.test_case "duplicate dst flagged" `Quick
      test_duplicate_dst_flagged;
    Alcotest.test_case "width beats duplicate-dst; distinct dst legal" `Quick
      test_duplicate_dst_width_wins;
    Alcotest.test_case "broadcast multi-payload flagged" `Quick
      test_broadcast_multi_payload_flagged;
    Alcotest.test_case "broadcast width ordering; same-payload fanout legal"
      `Quick test_broadcast_width_wins_and_legal_fanout;
    Alcotest.test_case "CC_MODEL selector" `Quick test_model_selector;
    Alcotest.test_case "phase attribution" `Quick test_phase_attribution;
    Alcotest.test_case "no checks when unsanitized" `Quick
      test_phase_attribution_off_when_unsanitized;
    Alcotest.test_case "ledger drift detection" `Quick test_ledger_drift;
    Alcotest.test_case "drift baseline on used transport" `Quick
      test_drift_baseline_over_used_transport;
    Alcotest.test_case "default from config" `Quick test_config_default;
    Alcotest.test_case "transcript distinguishes runs" `Quick
      test_transcript_distinguishes_runs;
    Alcotest.test_case "trace wraparound at capacity" `Quick
      test_trace_wraparound_at_capacity;
    Alcotest.test_case "trace capacity validation" `Quick
      test_trace_capacity_validation;
    Alcotest.test_case "cost rejects negative rounds" `Quick
      test_cost_negative_charge_rejected;
  ]
