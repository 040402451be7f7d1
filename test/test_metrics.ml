(* The observability layer: JSON serializer/parser (the BENCH_*.json
   format), the metrics registry, and the registry's non-interference with
   the runtime — attaching a registry must never change rounds, phases, or
   the sanitizer's determinism transcripts. *)

module J = Metrics.Json
module K = Clique.Kernel

(* ------------------------------------------------------------- JSON *)

let test_escaping () =
  Alcotest.(check string)
    "quotes, backslash, controls" "a\\\"b\\\\c\\nd\\te\\u0001"
    (J.escape_string "a\"b\\c\nd\te\001");
  Alcotest.(check string)
    "utf-8 passthrough" "caf\xc3\xa9"
    (J.escape_string "caf\xc3\xa9");
  Alcotest.(check string)
    "serialized string" "\"line1\\nline2\""
    (J.to_string ~minify:true (J.String "line1\nline2"))

let bench_like =
  J.Assoc
    [
      ("schema_version", J.Int 1);
      ("experiment", J.String "E1");
      ("title", J.String "quotes \" and \\ backslashes \n newlines");
      ( "series",
        J.List
          [
            J.Assoc
              [
                ("name", J.String "size-and-alpha");
                ("seed", J.Int 3);
                ( "rows",
                  J.List
                    [
                      J.Assoc
                        [
                          ("key", J.String "n=40 u=1");
                          ( "rounds",
                            J.Assoc
                              [
                                ("total", J.Int 84);
                                ( "phases",
                                  J.Assoc
                                    [
                                      ("decompose", J.Int 56);
                                      ("gather", J.Int 28);
                                    ] );
                              ] );
                          ( "stats",
                            J.Assoc
                              [
                                ("alpha", J.Float 5.999172663670298);
                                ("tiny", J.Float 1e-30);
                                ("neg", J.Int (-42));
                                ("flag", J.Bool true);
                                ("missing", J.Null);
                              ] );
                        ];
                    ] );
              ];
          ] );
    ]

let check_roundtrip name doc =
  match J.of_string (J.to_string doc) with
  | Ok v -> Alcotest.(check bool) (name ^ " pretty") true (J.equal doc v)
  | Error e -> Alcotest.fail (name ^ ": " ^ e)

let test_roundtrip () =
  check_roundtrip "bench-like document" bench_like;
  (match J.of_string (J.to_string ~minify:true bench_like) with
  | Ok v -> Alcotest.(check bool) "minified" true (J.equal bench_like v)
  | Error e -> Alcotest.fail e);
  (* Floats keep their exact bits through serialize/parse. *)
  List.iter
    (fun f ->
      match J.of_string (J.to_string (J.Float f)) with
      | Ok (J.Float f') ->
        Alcotest.(check bool)
          (Printf.sprintf "float %h survives" f)
          true (f = f')
      | Ok (J.Int i) ->
        Alcotest.(check bool) "integral float" true (float_of_int i = f)
      | _ -> Alcotest.fail "float did not round-trip")
    [ 0.1; 1.5; -3.25; 1e-9; 6.02e23; 5.999172663670298; 0. ]

let test_parser_accepts () =
  (match J.of_string " { \"a\" : [ 1 , 2.5 , null , true ] } " with
  | Ok v ->
    Alcotest.(check bool) "whitespace tolerated" true
      (J.equal v
         (J.Assoc
            [ ("a", J.List [ J.Int 1; J.Float 2.5; J.Null; J.Bool true ]) ]))
  | Error e -> Alcotest.fail e);
  (match J.of_string {|"\u0041\ud83d\ude00"|} with
  | Ok (J.String s) ->
    Alcotest.(check string) "unicode escapes" "A\xf0\x9f\x98\x80" s
  | _ -> Alcotest.fail "unicode escape parse");
  match J.of_string "-17" with
  | Ok (J.Int -17) -> ()
  | _ -> Alcotest.fail "negative int"

let test_parser_rejects () =
  List.iter
    (fun s ->
      match J.of_string s with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail (Printf.sprintf "%S should not parse" s))
    [ "{"; "tru"; "[1 2]"; "\"unterminated"; "{}garbage"; "\"bad \\x\""; "" ]

(* --------------------------------------------------------- registry *)

let test_counters_gauges () =
  let m = Metrics.create () in
  let c = Metrics.counter m "c" in
  Metrics.incr c;
  Metrics.incr ~by:41 c;
  Alcotest.(check int) "counter" 42 (Metrics.counter_value c);
  Alcotest.(check int) "same name, same counter" 42
    (Metrics.counter_value (Metrics.counter m "c"));
  Alcotest.check_raises "negative increment rejected"
    (Invalid_argument "Metrics.incr: negative increment") (fun () ->
      Metrics.incr ~by:(-1) c);
  let g = Metrics.gauge m "g" in
  Metrics.set g 2.5;
  Metrics.set g 1.25;
  Alcotest.(check (float 0.)) "gauge last-write-wins" 1.25
    (Metrics.gauge_value g);
  Metrics.reset m;
  Alcotest.(check int) "reset counter" 0 (Metrics.counter_value c);
  Alcotest.(check (float 0.)) "reset gauge" 0. (Metrics.gauge_value g)

let test_histogram_buckets () =
  let m = Metrics.create () in
  let h = Metrics.histogram m "h" in
  (* Same bucketing as Trace: 0 -> bucket 0, 1 -> 1, {2,3} -> 2, 4..7 -> 3. *)
  List.iter (Metrics.observe h) [ 0; 1; 2; 3; 4; 7; 8 ];
  let b = Metrics.histogram_buckets h in
  Alcotest.(check (list int))
    "buckets 0..4" [ 1; 1; 2; 2; 1 ]
    [ b.(0); b.(1); b.(2); b.(3); b.(4) ]

let test_spans () =
  let m = Metrics.create () in
  let s = Metrics.span m "s" in
  Metrics.add_duration s 0.25;
  Metrics.add_duration s 0.75;
  let st = Metrics.span_stats s in
  Alcotest.(check int) "count" 2 st.Metrics.count;
  Alcotest.(check (float 1e-9)) "total" 1.0 st.Metrics.total_s;
  Alcotest.(check (float 1e-9)) "min" 0.25 st.Metrics.min_s;
  Alcotest.(check (float 1e-9)) "max" 0.75 st.Metrics.max_s;
  let r = Metrics.time s (fun () -> 7) in
  Alcotest.(check int) "time returns" 7 r;
  Alcotest.(check int) "time recorded" 3 (Metrics.span_stats s).Metrics.count

let test_disabled_noop () =
  let m = Metrics.disabled in
  Alcotest.(check bool) "disabled" false (Metrics.enabled m);
  let c = Metrics.counter m "c" in
  Metrics.incr ~by:100 c;
  Alcotest.(check int) "counter inert" 0 (Metrics.counter_value c);
  let h = Metrics.histogram m "h" in
  Metrics.observe h 5;
  Alcotest.(check int) "histogram inert" 0
    (Array.fold_left ( + ) 0 (Metrics.histogram_buckets h));
  let s = Metrics.span m "s" in
  Alcotest.(check int) "time still runs f" 9 (Metrics.time s (fun () -> 9));
  Alcotest.(check int) "span inert" 0 (Metrics.span_stats s).Metrics.count;
  Metrics.ingest_phases m ~prefix:"p" [ ("a", 3) ];
  Alcotest.(check bool) "to_json stays empty" true
    (J.equal (Metrics.to_json m)
       (J.Assoc
          [
            ("counters", J.Assoc []);
            ("gauges", J.Assoc []);
            ("histograms", J.Assoc []);
            ("spans", J.Assoc []);
          ]))

let test_ingest_and_json_determinism () =
  let build order =
    let m = Metrics.create () in
    List.iter (fun (p, r) -> Metrics.ingest_phases m ~prefix:"rounds" [ (p, r) ]) order;
    Metrics.set (Metrics.gauge m "g") 1.5;
    m
  in
  let a = build [ ("x", 1); ("y", 2) ] and b = build [ ("y", 2); ("x", 1) ] in
  Alcotest.(check string)
    "serialization independent of insertion order"
    (J.to_string (Metrics.to_json a))
    (J.to_string (Metrics.to_json b));
  let m = Metrics.create () in
  Metrics.ingest_phases m ~prefix:"rounds" [ ("a", 3); ("b", 4) ];
  Metrics.ingest_phases m ~prefix:"rounds" [ ("a", 2) ];
  Alcotest.(check int) "phase accumulates" 5
    (Metrics.counter_value (Metrics.counter m "rounds.a"));
  Alcotest.(check int) "total accumulates" 9
    (Metrics.counter_value (Metrics.counter m "rounds.total"))

(* ------------------------------------------- runtime integration *)

(* A fixed little communication pattern: a broadcast, an exchange ring, an
   analytic charge under a named phase. *)
let drive rt =
  let n = K.On_sim.n rt in
  ignore (K.On_sim.broadcast rt (Array.init n (fun v -> [| v |])));
  K.On_sim.with_phase rt "ring" (fun () ->
      ignore
        (K.On_sim.exchange rt
           (Array.init n (fun v -> [ ((v + 1) mod n, [| v; v * v |]) ]))));
  K.On_sim.charge ~phase:"analytic" rt 5

let test_attach_metrics_mirrors_ledger () =
  let m = Metrics.create () in
  let rt = K.On_sim.create ~sanitize:false (Clique.Sim.create 5) in
  K.On_sim.attach_metrics rt m;
  drive rt;
  Alcotest.(check int) "rounds mirrored" (K.On_sim.rounds rt)
    (Metrics.counter_value (Metrics.counter m "runtime.rounds"));
  Alcotest.(check int) "words mirrored" (K.On_sim.words rt)
    (Metrics.counter_value (Metrics.counter m "runtime.words"));
  Alcotest.(check int) "analytic phase attributed" 5
    (Metrics.counter_value (Metrics.counter m "phase.analytic.rounds"));
  Alcotest.(check int) "ring phase attributed"
    (K.On_sim.phase_rounds rt "ring")
    (Metrics.counter_value (Metrics.counter m "phase.ring.rounds"))

let test_export_metrics_snapshot () =
  let rt = K.On_sim.create ~sanitize:false (Clique.Sim.create 4) in
  drive rt;
  let m = Metrics.create () in
  K.On_sim.export_metrics rt m;
  Alcotest.(check int) "ledger total exported" (K.On_sim.rounds rt)
    (Metrics.counter_value (Metrics.counter m "ledger.clique.total"));
  Alcotest.(check (float 0.)) "words gauge"
    (float_of_int (K.On_sim.words rt))
    (Metrics.gauge_value (Metrics.gauge m "ledger.clique.words"))

(* The decisive property for the telemetry layer: attaching a registry to a
   sanitized runtime changes neither the rounds nor the sanitizer's shape /
   content transcript hashes — observability is invisible to the model. *)
let transcript rt =
  match K.On_sim.sanitizer rt with
  | Some s -> Runtime.Sanitize.transcript s
  | None -> Alcotest.fail "sanitizer expected"

let test_metrics_do_not_perturb_sanitizer () =
  let run with_metrics =
    let rt = K.On_sim.create ~sanitize:true (Clique.Sim.create 6) in
    if with_metrics then K.On_sim.attach_metrics rt (Metrics.create ());
    drive rt;
    (K.On_sim.rounds rt, K.On_sim.phases rt, transcript rt)
  in
  let r0, p0, t0 = run false in
  let r1, p1, t1 = run true in
  Alcotest.(check int) "rounds unchanged" r0 r1;
  Alcotest.(check (list (pair string int))) "phases unchanged" p0 p1;
  Alcotest.(check int64) "shape hash unchanged"
    t0.Runtime.Sanitize.shape_hash t1.Runtime.Sanitize.shape_hash;
  Alcotest.(check int64) "content hash unchanged"
    t0.Runtime.Sanitize.content_hash t1.Runtime.Sanitize.content_hash;
  Alcotest.(check int) "event count unchanged" t0.Runtime.Sanitize.events
    t1.Runtime.Sanitize.events

(* Registry work under CC_SANITIZE must also leave a charged-layer
   pipeline untouched: E1's seed instance reports the same total with a
   live registry ingesting its breakdown (the bench emission path). *)
let test_ingestion_under_sanitizer_parity () =
  Runtime.Config.with_
    { (Runtime.Config.get ()) with sanitize = true }
    (fun () ->
      let m = Metrics.create () in
      let r = Sparsify.Spectral.sparsify (Gen.connected_gnp ~seed:3L 40 0.5) in
      Metrics.ingest_phases m ~prefix:"rounds" r.Sparsify.Spectral.phase_rounds;
      Alcotest.(check int) "E1 seed parity with live registry" 84
        r.Sparsify.Spectral.rounds;
      Alcotest.(check int) "registry saw the whole breakdown" 84
        (Metrics.counter_value (Metrics.counter m "rounds.total")))

let suite =
  [
    Alcotest.test_case "json escaping" `Quick test_escaping;
    Alcotest.test_case "json round-trip" `Quick test_roundtrip;
    Alcotest.test_case "json parser accepts" `Quick test_parser_accepts;
    Alcotest.test_case "json parser rejects" `Quick test_parser_rejects;
    Alcotest.test_case "counters and gauges" `Quick test_counters_gauges;
    Alcotest.test_case "histogram buckets" `Quick test_histogram_buckets;
    Alcotest.test_case "spans" `Quick test_spans;
    Alcotest.test_case "disabled registry is a no-op" `Quick
      test_disabled_noop;
    Alcotest.test_case "ingest_phases and deterministic json" `Quick
      test_ingest_and_json_determinism;
    Alcotest.test_case "attach_metrics mirrors the ledger" `Quick
      test_attach_metrics_mirrors_ledger;
    Alcotest.test_case "export_metrics snapshots the ledger" `Quick
      test_export_metrics_snapshot;
    Alcotest.test_case "metrics do not perturb sanitizer transcripts" `Quick
      test_metrics_do_not_perturb_sanitizer;
    Alcotest.test_case "ingestion under sanitizer keeps E1 parity" `Quick
      test_ingestion_under_sanitizer_parity;
  ]
