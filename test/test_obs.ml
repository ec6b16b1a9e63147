(* Unit tests for lib/obs: the metrics registry, phase spans and the
   JSON/table exporters, plus one integration check that the pipeline's
   instrumentation actually populates the registry. *)

let reset () =
  Obs.Metrics.reset ();
  Obs.Span.reset ()

(* ---------------- counters and gauges ---------------- *)

let test_counter () =
  reset ();
  let c = Obs.Metrics.counter "test/c" in
  Alcotest.(check int) "fresh counter" 0 (Obs.Metrics.counter_value c);
  Obs.Metrics.incr c;
  Obs.Metrics.add c 41;
  Alcotest.(check int) "incr + add" 42 (Obs.Metrics.counter_value c);
  let c' = Obs.Metrics.counter "test/c" in
  Obs.Metrics.incr c';
  Alcotest.(check int) "re-registration returns the same handle" 43
    (Obs.Metrics.counter_value c)

let test_gauge () =
  reset ();
  let g = Obs.Metrics.gauge "test/g" in
  Obs.Metrics.set g 7;
  Obs.Metrics.set g 3;
  Alcotest.(check int) "gauge keeps the last value" 3 (Obs.Metrics.gauge_value g)

let test_kind_clash () =
  reset ();
  let _ = Obs.Metrics.counter "test/clash" in
  Alcotest.check_raises "gauge under a counter name"
    (Invalid_argument "Obs.Metrics: test/clash already registered as a counter")
    (fun () -> ignore (Obs.Metrics.gauge "test/clash"))

let test_reset () =
  reset ();
  let c = Obs.Metrics.counter "test/r" in
  Obs.Metrics.add c 9;
  Obs.Metrics.reset ();
  Alcotest.(check int) "reset zeroes, handle stays valid" 0
    (Obs.Metrics.counter_value c);
  Obs.Metrics.incr c;
  Alcotest.(check int) "handle usable after reset" 1 (Obs.Metrics.counter_value c)

(* ---------------- histograms ---------------- *)

let test_hist_basic () =
  reset ();
  let h = Obs.Metrics.histogram "test/h" in
  List.iter (Obs.Metrics.observe h) [ 1; 2; 3; 100 ];
  Alcotest.(check int) "count" 4 (Obs.Metrics.hist_count h);
  Alcotest.(check int) "sum" 106 (Obs.Metrics.hist_sum h);
  Alcotest.(check int) "min" 1 (Obs.Metrics.hist_min h);
  Alcotest.(check int) "max" 100 (Obs.Metrics.hist_max h);
  Alcotest.(check (float 1e-6)) "mean" 26.5 (Obs.Metrics.hist_mean h)

let test_hist_quantiles () =
  reset ();
  let h = Obs.Metrics.histogram "test/q" in
  for v = 1 to 1000 do
    Obs.Metrics.observe h v
  done;
  (* power-of-two buckets: the quantile is the upper bound of the bucket
     holding the q-th observation, clamped to the observed max *)
  Alcotest.(check int) "p50 within one power of two" 512
    (Obs.Metrics.quantile h 0.5);
  Alcotest.(check int) "p99 clamps to max" 1000 (Obs.Metrics.quantile h 0.99);
  let one = Obs.Metrics.histogram "test/q1" in
  Obs.Metrics.observe one 7;
  Alcotest.(check int) "single observation p50" 7 (Obs.Metrics.quantile one 0.5)

let test_dump_sorted () =
  reset ();
  ignore (Obs.Metrics.counter "sorted/zz");
  ignore (Obs.Metrics.counter "sorted/aa");
  (* registration outlives reset and the registry is process-wide (the
     linked libraries register snowboard.* at module init), so look at
     this test's names only *)
  let names =
    List.filter_map
      (fun s ->
        let n = s.Obs.Metrics.name in
        if String.length n > 7 && String.sub n 0 7 = "sorted/" then Some n
        else None)
      (Obs.Metrics.dump ())
  in
  Alcotest.(check (list string))
    "dump is sorted" [ "sorted/aa"; "sorted/zz" ] names

(* ---------------- spans ---------------- *)

let test_span_nesting () =
  reset ();
  Obs.Span.with_span "outer" (fun () ->
      Obs.Span.with_span "a" (fun () -> ());
      Obs.Span.with_span "b" (fun () ->
          Obs.Span.with_span "b1" (fun () -> ())));
  match Obs.Span.roots () with
  | [ outer ] ->
      Alcotest.(check string) "root name" "outer" outer.Obs.Span.name;
      Alcotest.(check (list string))
        "children in execution order" [ "a"; "b" ]
        (List.map (fun s -> s.Obs.Span.name) outer.Obs.Span.children);
      Alcotest.(check int) "tree depth" 3 (Obs.Span.depth outer);
      Alcotest.(check bool) "durations are positive" true
        (outer.Obs.Span.dur_us >= 1)
  | l -> Alcotest.failf "expected one root, got %d" (List.length l)

let test_span_deltas () =
  reset ();
  let c = Obs.Metrics.counter "test/span_c" in
  Obs.Span.with_span "work" (fun () -> Obs.Metrics.add c 5);
  match Obs.Span.roots () with
  | [ s ] ->
      Alcotest.(check (list (pair string int)))
        "counter growth attributed to the span"
        [ ("test/span_c", 5) ]
        s.Obs.Span.deltas
  | _ -> Alcotest.fail "expected one root span"

let test_span_exn () =
  reset ();
  (try Obs.Span.with_span "boom" (fun () -> failwith "x") with Failure _ -> ());
  Alcotest.(check int) "span closed on exception" 1
    (List.length (Obs.Span.roots ()))

(* ---------------- export ---------------- *)

let test_json_round_trip () =
  let j =
    Obs.Export.(
      Obj
        [
          ("a", Int 1);
          ("b", Float 2.5);
          ("c", String "x \"quoted\"\nline");
          ("d", List [ Bool true; Null ]);
          ("e", Obj []);
        ])
  in
  Alcotest.(check bool) "to_string . of_string is the identity" true
    (Obs.Export.of_string (Obs.Export.to_string j) = j)

let test_registry_json () =
  reset ();
  let c = Obs.Metrics.counter "test/j" in
  Obs.Metrics.add c 3;
  Obs.Span.with_span "phase" (fun () -> ());
  let s = Obs.Export.to_string (Obs.Export.registry_json ()) in
  match Obs.Export.of_string s with
  | Obs.Export.Obj fields ->
      Alcotest.(check bool) "has schema" true (List.mem_assoc "schema" fields);
      Alcotest.(check bool) "has metrics" true (List.mem_assoc "metrics" fields);
      Alcotest.(check bool) "has spans" true (List.mem_assoc "spans" fields)
  | _ -> Alcotest.fail "registry_json is not an object"

(* Malformed documents must raise Parse_error (never Failure or an
   index error), and of_string_opt must map exactly that to None. *)
let test_parser_rejects () =
  let bad =
    [
      ("trailing garbage", "{}\ntrailing");
      ("trailing value", "1 2");
      ("unterminated string", "\"abc");
      ("unterminated string with escape", "\"abc\\");
      ("unterminated object", "{\"a\": 1");
      ("unterminated list", "[1, 2");
      ("bare comma", "[1,,2]");
      ("bad escape", "\"\\x41\"");
      ("bad unicode escape", "\"\\uZZZZ\"");
      ("underscored unicode escape", "\"\\u00_1\"");
      ("truncated unicode escape", "\"\\u00");
      ("bad number", "-");
      ("empty input", "");
      ("just whitespace", "   \n\t ");
      ("unquoted key", "{a: 1}");
      ("missing colon", "{\"a\" 1}");
    ]
  in
  List.iter
    (fun (label, s) ->
      (match Obs.Export.of_string s with
      | exception Obs.Export.Parse_error _ -> ()
      | exception e ->
          Alcotest.failf "%s: raised %s, not Parse_error" label
            (Printexc.to_string e)
      | v ->
          Alcotest.failf "%s: accepted as %s" label (Obs.Export.to_string v));
      Alcotest.(check bool)
        (label ^ " maps to None") true
        (Obs.Export.of_string_opt s = None))
    bad

let test_parser_accepts () =
  let ok =
    [
      ("surrounding whitespace", " \n {} \n ", Obs.Export.Obj []);
      ("escaped quote", {|"a\"b"|}, Obs.Export.String "a\"b");
      ("low unicode escape", "\"\\u0007\"", Obs.Export.String "\007");
      ("negative int", "-42", Obs.Export.Int (-42));
      ("float", "2.5", Obs.Export.Float 2.5);
    ]
  in
  List.iter
    (fun (label, s, expected) ->
      Alcotest.(check bool) label true (Obs.Export.of_string s = expected);
      Alcotest.(check bool)
        (label ^ " via of_string_opt") true
        (Obs.Export.of_string_opt s = Some expected))
    ok

let test_deterministic_mode () =
  reset ();
  let h = Obs.Metrics.histogram ~unit_:"us" "test/wall" in
  Obs.Metrics.observe h 100;
  let c = Obs.Metrics.counter "test/det" in
  Obs.Metrics.incr c;
  let names json =
    match json with
    | Obs.Export.List l ->
        List.filter_map
          (function
            | Obs.Export.Obj f -> (
                match List.assoc_opt "name" f with
                | Some (Obs.Export.String n) -> Some n
                | _ -> None)
            | _ -> None)
          l
    | _ -> []
  in
  let det = names (Obs.Export.metrics_json ~deterministic:true ()) in
  Alcotest.(check bool) "wall-clock metric omitted" false
    (List.mem "test/wall" det);
  Alcotest.(check bool) "counter kept" true (List.mem "test/det" det)

(* ---------------- pipeline integration ---------------- *)

let test_pipeline_populates_registry () =
  reset ();
  let cfg =
    {
      Harness.Pipeline.default with
      Harness.Pipeline.fuzz_iters = 60;
      trials_per_test = 2;
    }
  in
  let t = Harness.Pipeline.prepare cfg in
  let _stats =
    Harness.Pipeline.run_method t
      (Core.Select.Strategy Core.Cluster.S_INS_PAIR) ~budget:2
  in
  let values =
    List.filter_map
      (fun (s : Obs.Metrics.sample) ->
        match s.Obs.Metrics.value with
        | Obs.Metrics.Sample_counter v -> Some (s.Obs.Metrics.name, v)
        | _ -> None)
      (Obs.Metrics.dump ())
  in
  List.iter
    (fun name ->
      match List.assoc_opt name values with
      | Some v when v > 0 -> ()
      | Some _ -> Alcotest.failf "%s is zero after a pipeline run" name
      | None -> Alcotest.failf "%s not registered" name)
    [
      "snowboard.vmm/instructions_retired";
      "snowboard.vmm/accesses_traced";
      "snowboard.vmm/snapshot_restores";
      "snowboard.sched/seq_runs";
      "snowboard.sched/trials";
      "snowboard.fuzzer/programs_generated";
      "snowboard.core/profiles_built";
      "snowboard.core/pmc_pairs_considered";
      "snowboard.detectors/oracle_invocations";
    ];
  let root_names = List.map (fun s -> s.Obs.Span.name) (Obs.Span.roots ()) in
  Alcotest.(check bool) "prepare span recorded" true
    (List.mem "pipeline.prepare" root_names);
  match
    List.find_opt
      (fun s -> s.Obs.Span.name = "pipeline.prepare")
      (Obs.Span.roots ())
  with
  | Some prep ->
      let kids = List.map (fun s -> s.Obs.Span.name) prep.Obs.Span.children in
      Alcotest.(check (list string))
        "phase spans in pipeline order"
        [ "boot"; "fuzz"; "profile"; "identify" ]
        kids
  | None -> Alcotest.fail "pipeline.prepare span missing"

let () =
  Alcotest.run "obs"
    [
      ( "metrics",
        [
          Alcotest.test_case "counter" `Quick test_counter;
          Alcotest.test_case "gauge" `Quick test_gauge;
          Alcotest.test_case "kind clash" `Quick test_kind_clash;
          Alcotest.test_case "reset" `Quick test_reset;
        ] );
      ( "histograms",
        [
          Alcotest.test_case "basic stats" `Quick test_hist_basic;
          Alcotest.test_case "quantiles" `Quick test_hist_quantiles;
          Alcotest.test_case "dump sorted" `Quick test_dump_sorted;
        ] );
      ( "spans",
        [
          Alcotest.test_case "nesting" `Quick test_span_nesting;
          Alcotest.test_case "deltas" `Quick test_span_deltas;
          Alcotest.test_case "exception safety" `Quick test_span_exn;
        ] );
      ( "export",
        [
          Alcotest.test_case "json round trip" `Quick test_json_round_trip;
          Alcotest.test_case "registry json" `Quick test_registry_json;
          Alcotest.test_case "parser rejects malformed input" `Quick
            test_parser_rejects;
          Alcotest.test_case "parser accepts edge cases" `Quick
            test_parser_accepts;
          Alcotest.test_case "deterministic mode" `Quick test_deterministic_mode;
        ] );
      ( "integration",
        [
          Alcotest.test_case "pipeline populates registry" `Quick
            test_pipeline_populates_registry;
        ] );
    ]
