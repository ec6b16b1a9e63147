(* Telemetry-layer tests: domain-sharded metrics under real Domain.spawn
   concurrency, span nesting with worker domains in flight, the flight
   recorder's ring wrapping while snapshots stream, NDJSON determinism,
   the nondeterministic-unit scrub, OpenMetrics rendering/validation and
   the coverage frontier. *)

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let contains = Testutil.Astring_contains.contains

let reset () =
  Obs.Telemetry.configure ~enabled:false ();
  Obs.Telemetry.set_clock None;
  Obs.Telemetry.set_source None;
  Obs.Event.configure ~enabled:false ();
  Obs.Metrics.reset ();
  Obs.Span.reset ()

let read_lines path =
  let ic = open_in path in
  let rec go acc =
    match input_line ic with
    | line -> go (line :: acc)
    | exception End_of_file ->
        close_in ic;
        List.rev acc
  in
  go []

(* ---------------- sharded metrics under domains ---------------- *)

(* Regression for the worker-domain mutation hazard: counter/histogram
   updates go through per-domain shards, so concurrent increments from
   spawned domains are never lost and totals are exact after the join. *)
let test_sharded_exact_after_join () =
  reset ();
  let c = Obs.Metrics.counter "tel/shard_c" in
  let h = Obs.Metrics.histogram "tel/shard_h" in
  let workers = 4 and n = 25_000 in
  let ds =
    List.init workers (fun _ ->
        Domain.spawn (fun () ->
            for i = 1 to n do
              Obs.Metrics.incr c;
              Obs.Metrics.observe h (i land 1023)
            done))
  in
  List.iter Domain.join ds;
  Obs.Metrics.incr c;
  checki "counter exact after join" ((workers * n) + 1)
    (Obs.Metrics.counter_value c);
  checki "histogram count exact after join" (workers * n)
    (Obs.Metrics.hist_count h);
  checkb "histogram sum positive" true (Obs.Metrics.hist_sum h > 0)

let test_sharded_monotone_during_run () =
  reset ();
  let c = Obs.Metrics.counter "tel/mono" in
  let stop = Atomic.make false in
  let d =
    Domain.spawn (fun () ->
        while not (Atomic.get stop) do
          Obs.Metrics.incr c
        done)
  in
  (* merge-on-read totals may be stale mid-run but never go backwards *)
  let prev = ref 0 in
  let ok = ref true in
  for _ = 1 to 1000 do
    let v = Obs.Metrics.counter_value c in
    if v < !prev then ok := false;
    prev := v
  done;
  Atomic.set stop true;
  Domain.join d;
  checkb "merged total is monotone" true !ok

(* ---------------- span nesting with concurrent domains ----------- *)

let test_span_nesting_with_worker_domains () =
  reset ();
  Obs.Span.start "outer";
  let ds =
    List.init 4 (fun _ ->
        Domain.spawn (fun () ->
            (* worker-domain spans are silent no-ops: they must neither
               crash nor perturb the main domain's open stack *)
            for _ = 1 to 200 do
              Obs.Span.start "worker";
              Obs.Span.stop ();
              Obs.Span.with_span "worker2" (fun () -> ())
            done))
  in
  Obs.Span.with_span "inner" (fun () -> ());
  List.iter Domain.join ds;
  Obs.Span.stop ();
  match Obs.Span.roots () with
  | [ r ] ->
      Alcotest.(check string) "root name" "outer" r.Obs.Span.name;
      Alcotest.(check (list string))
        "main-domain children only" [ "inner" ]
        (List.map (fun (s : Obs.Span.span) -> s.Obs.Span.name) r.Obs.Span.children)
  | roots ->
      Alcotest.failf "expected exactly one root span, got %d" (List.length roots)

(* ---------------- event ring wraparound under streaming ----------- *)

let test_ring_wraparound_mid_stream () =
  reset ();
  Obs.Event.configure ~capacity:32 ~enabled:true ();
  let path = Filename.temp_file "tel_ring" ".ndjson" in
  Obs.Telemetry.configure ~out:path ~deterministic:true ~enabled:true ();
  for i = 1 to 100 do
    Obs.Event.emit ~tid:0
      (Obs.Event.Note { name = "n"; detail = string_of_int i });
    (* snapshots taken while the ring is actively wrapping *)
    if i mod 25 = 0 then Obs.Telemetry.snapshot ~reason:"forced" ()
  done;
  let s = Obs.Event.stats () in
  checki "totality: seen = dropped + buffered" s.Obs.Event.st_seen
    (s.Obs.Event.st_dropped + s.Obs.Event.st_buffered);
  checki "all emissions counted" 100 s.Obs.Event.st_seen;
  checki "ring kept its capacity" 32 s.Obs.Event.st_buffered;
  Obs.Telemetry.close ();
  let lines = read_lines path in
  Sys.remove path;
  checkb "at least forced + final snapshots" true (List.length lines >= 5);
  checkb "every line parses as JSON" true
    (List.for_all (fun l -> Obs.Export.of_string_opt l <> None) lines);
  let last = List.nth lines (List.length lines - 1) in
  checkb "final snapshot carries the full seen tally" true
    (contains last "\"seen\":100")

(* ---------------- NDJSON determinism ---------------- *)

let test_stream_deterministic () =
  let run path =
    reset ();
    let c = Obs.Metrics.counter "tel/det_c" in
    let vc = ref 0 in
    Obs.Telemetry.configure ~out:path ~deterministic:true ~interval:100
      ~enabled:true ();
    Obs.Telemetry.set_clock (Some (fun () -> !vc));
    Obs.Telemetry.phase "work";
    for i = 1 to 1000 do
      Obs.Metrics.incr c;
      vc := i * 3;
      Obs.Telemetry.tick ()
    done;
    Obs.Telemetry.close ();
    Obs.Telemetry.set_clock None
  in
  let p1 = Filename.temp_file "tel_det" ".ndjson" in
  let p2 = Filename.temp_file "tel_det" ".ndjson" in
  run p1;
  run p2;
  let l1 = read_lines p1 and l2 = read_lines p2 in
  Sys.remove p1;
  Sys.remove p2;
  checkb "interval snapshots fired" true (List.length l1 > 5);
  Alcotest.(check (list string)) "byte-identical streams" l1 l2;
  checkb "no wall stamps in deterministic stream" true
    (List.for_all (fun l -> not (contains l "wall_ms")) l1)

let test_tick_noop_on_worker_domain () =
  reset ();
  let path = Filename.temp_file "tel_worker" ".ndjson" in
  Obs.Telemetry.configure ~out:path ~deterministic:true ~interval:1
    ~enabled:true ();
  let vc = ref 0 in
  Obs.Telemetry.set_clock (Some (fun () -> !vc));
  let d =
    Domain.spawn (fun () ->
        for i = 1 to 100 do
          vc := i * 1000;
          Obs.Telemetry.tick ();
          Obs.Telemetry.phase "worker-phase";
          Obs.Telemetry.snapshot ()
        done)
  in
  Domain.join d;
  checki "worker ticks/phases/snapshots are no-ops" 0
    (Obs.Telemetry.snapshots ());
  Obs.Telemetry.close ();
  Obs.Telemetry.set_clock None;
  let lines = read_lines path in
  Sys.remove path;
  checki "only the main domain's final snapshot" 1 (List.length lines)

(* ---------------- mid-stream kill ---------------- *)

(* Every snapshot is one whole fsynced line, so a kill mid-write tears
   at most the final line: a post-mortem reader sees only complete,
   parseable NDJSON lines plus (possibly) one unterminated fragment. *)
let test_mid_stream_kill_leaves_whole_lines () =
  reset ();
  let path = Filename.temp_file "tel_kill" ".ndjson" in
  Obs.Telemetry.configure ~out:path ~deterministic:true ~enabled:true ();
  Obs.Telemetry.snapshot ~reason:"one" ();
  Obs.Telemetry.snapshot ~reason:"two" ();
  Obs.Storage.arm_crash ~mode:Obs.Storage.Raise ~site:"telemetry.line" ~k:1 ();
  (match Obs.Telemetry.snapshot ~reason:"torn" () with
  | () -> Alcotest.fail "armed crashpoint must fire"
  | exception Obs.Storage.Crash_simulated _ -> ());
  Obs.Storage.disarm_crash ();
  (* read the wreckage as a post-mortem consumer would, without closing
     the stream: the writing process is "dead" *)
  let ic = open_in_bin path in
  let bytes = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Obs.Telemetry.configure ~enabled:false ();
  Sys.remove path;
  let whole, tail =
    match List.rev (String.split_on_char '\n' bytes) with
    | tail :: rev_whole -> (List.rev rev_whole, tail)
    | [] -> ([], "")
  in
  checki "both fsynced lines survive whole" 2 (List.length whole);
  checkb "every terminated line parses as JSON" true
    (List.for_all (fun l -> Obs.Export.of_string_opt l <> None) whole);
  checkb "the torn fragment is not a parseable line" true
    (tail = "" || Obs.Export.of_string_opt tail = None)

(* ---------------- nondeterministic-unit scrub ---------------- *)

let test_nondeterministic_unit_predicate () =
  List.iter
    (fun u ->
      checkb (u ^ " is nondeterministic") true
        (Obs.Export.is_nondeterministic_unit u))
    [
      "us"; "ms"; "ns"; "s"; "steps/s"; "pages/s"; "trials/s"; "instr/s";
      (* the "~" opt-in marker: scheduling-timing-dependent counts
         such as restore page tallies, whatever follows the marker *)
      "~vm"; "~steal"; "~item"; "~scan"; "~page";
    ];
  List.iter
    (fun u ->
      checkb (u ^ " is deterministic") false
        (Obs.Export.is_nondeterministic_unit u))
    [ ""; "pages"; "bytes"; "tests"; "s/x"; "instructions"; "a~b" ]

let test_deterministic_artifact_scrubs_rates () =
  reset ();
  let c = Obs.Metrics.counter ~unit_:"steps/s" "tel/banned_rate" in
  let g = Obs.Metrics.gauge ~unit_:"trials/s" "tel/banned_gauge" in
  let t = Obs.Metrics.counter ~unit_:"us" "tel/banned_time" in
  let s = Obs.Metrics.counter ~unit_:"~steal" "tel/banned_sched" in
  let ok = Obs.Metrics.counter ~unit_:"pages" "tel/kept" in
  Obs.Metrics.add c 5;
  Obs.Metrics.set g 7;
  Obs.Metrics.add t 9;
  Obs.Metrics.add s 10;
  Obs.Metrics.add ok 11;
  let det = Obs.Export.to_line (Obs.Export.registry_json ~deterministic:true ()) in
  checkb "rate counter scrubbed" false (contains det "tel/banned_rate");
  checkb "rate gauge scrubbed" false (contains det "tel/banned_gauge");
  checkb "time counter scrubbed" false (contains det "tel/banned_time");
  checkb "timing-dependent (~) counter scrubbed" false
    (contains det "tel/banned_sched");
  checkb "plain-unit metric kept" true (contains det "tel/kept");
  let full = Obs.Export.to_line (Obs.Export.registry_json ~deterministic:false ()) in
  checkb "non-deterministic artifact keeps rates" true
    (contains full "tel/banned_rate");
  checkb "non-deterministic artifact keeps ~ counters" true
    (contains full "tel/banned_sched")

(* ---------------- OpenMetrics ---------------- *)

let test_openmetrics_valid () =
  reset ();
  let c = Obs.Metrics.counter ~unit_:"tests" "tel/om.c" in
  let g = Obs.Metrics.gauge "tel/om_g" in
  let h = Obs.Metrics.histogram "tel/om_h" in
  Obs.Metrics.add c 3;
  Obs.Metrics.set g 9;
  List.iter (Obs.Metrics.observe h) [ 1; 5; 1000 ];
  let om = Obs.Export.openmetrics ~deterministic:true () in
  checkb "counter family" true (contains om "tel_om_c_total 3");
  checkb "histogram +Inf bucket" true (contains om "le=\"+Inf\"");
  checkb "terminated" true (contains om "# EOF");
  checkb "validates" true (Obs.Export.openmetrics_valid om);
  checkb "junk after EOF rejected" false
    (Obs.Export.openmetrics_valid (om ^ "junk 1\n"));
  checkb "missing EOF rejected" false
    (Obs.Export.openmetrics_valid "a_total 1\n");
  checkb "sample before TYPE rejected" false
    (Obs.Export.openmetrics_valid "x_total 1\n# TYPE x counter\n# EOF\n")

let test_to_line_roundtrip () =
  let open Obs.Export in
  let j =
    Obj
      [
        ("a", Int 1);
        ("b", List [ String "x\"y"; Bool false; Float 2.5 ]);
        ("c", Obj [ ("nested", Int (-3)) ]);
      ]
  in
  let line = to_line j in
  checkb "single line" false (String.contains line '\n');
  checkb "round-trips" true (of_string_opt line = Some j)

(* ---------------- coverage frontier ---------------- *)

let small_cfg =
  {
    Harness.Pipeline.default with
    Harness.Pipeline.fuzz_iters = 120;
    trials_per_test = 4;
  }

let t = lazy (Harness.Pipeline.prepare small_cfg)

let first_pmc ident =
  Core.Identify.fold
    (fun pmc _ acc -> match acc with None -> Some pmc | some -> some)
    ident None

let test_frontier_tracks_coverage () =
  reset ();
  let t = Lazy.force t in
  let f = Harness.Frontier.create t.Harness.Pipeline.ident in
  checki "starts with no tests" 0 (Harness.Frontier.tests f);
  let before = Harness.Frontier.frontier f in
  checkb "every Table 1 strategy present"
    true
    (List.map fst before = Core.Cluster.all);
  (* a hint-less test advances tallies but not coverage *)
  Harness.Frontier.note f ~issues:[] ~trials:7 ();
  checki "tests" 1 (Harness.Frontier.tests f);
  checki "trials" 7 (Harness.Frontier.trials f);
  checkb "frontier unchanged without a hint" true
    (Harness.Frontier.frontier f = before);
  (* a hinted test shrinks S-FULL's frontier by exactly one cluster *)
  (match first_pmc t.Harness.Pipeline.ident with
  | None -> Alcotest.fail "prepared pipeline identified no PMCs"
  | Some pmc ->
      Harness.Frontier.note f ~hint:pmc ~issues:[ 13 ] ~trials:3 ();
      let after = Harness.Frontier.frontier f in
      let get s l = List.assoc s l in
      checki "S-FULL frontier shrank by one"
        (get Core.Cluster.S_FULL before - 1)
        (get Core.Cluster.S_FULL after);
      (* noting the same PMC again must not double-count *)
      Harness.Frontier.note f ~hint:pmc ~issues:[ 13 ] ~trials:3 ();
      checkb "idempotent coverage" true
        (Harness.Frontier.frontier f = after));
  Alcotest.(check (list (pair int int)))
    "tests-to-find records the discovery ordinal" [ (13, 2) ]
    (Harness.Frontier.tests_to_find f);
  checkb "hud lines render one bar per strategy" true
    (List.length (Harness.Frontier.hud_lines f)
    >= List.length Core.Cluster.all);
  match Harness.Frontier.json f with
  | Obs.Export.Obj fields ->
      checkb "json carries tallies and strategies" true
        (List.mem_assoc "tests" fields
        && List.mem_assoc "strategies" fields
        && List.mem_assoc "issues" fields)
  | _ -> Alcotest.fail "frontier json is not an object"

let test_frontier_in_snapshot_stream () =
  reset ();
  let t = Lazy.force t in
  let f = Harness.Frontier.create t.Harness.Pipeline.ident in
  let path = Filename.temp_file "tel_frontier" ".ndjson" in
  Obs.Telemetry.configure ~out:path ~deterministic:true ~enabled:true ();
  Obs.Telemetry.set_source
    (Some (fun () -> [ ("frontier", Harness.Frontier.json f) ]));
  Harness.Frontier.note f ~issues:[] ~trials:2 ();
  Obs.Telemetry.snapshot ();
  Obs.Telemetry.close ();
  Obs.Telemetry.set_source None;
  let lines = read_lines path in
  Sys.remove path;
  checkb "snapshot lines present" true (List.length lines >= 2);
  checkb "frontier field embedded in every snapshot" true
    (List.for_all (fun l -> contains l "\"frontier\":") lines)

let () =
  Alcotest.run "telemetry"
    [
      ( "shards",
        [
          Alcotest.test_case "exact totals after join" `Quick
            test_sharded_exact_after_join;
          Alcotest.test_case "monotone during run" `Quick
            test_sharded_monotone_during_run;
        ] );
      ( "spans",
        [
          Alcotest.test_case "nesting with worker domains" `Quick
            test_span_nesting_with_worker_domains;
        ] );
      ( "ring",
        [
          Alcotest.test_case "wraparound mid-stream" `Quick
            test_ring_wraparound_mid_stream;
        ] );
      ( "stream",
        [
          Alcotest.test_case "deterministic byte-identical" `Quick
            test_stream_deterministic;
          Alcotest.test_case "worker-domain ticks are no-ops" `Quick
            test_tick_noop_on_worker_domain;
          Alcotest.test_case "mid-stream kill leaves whole lines" `Quick
            test_mid_stream_kill_leaves_whole_lines;
        ] );
      ( "scrub",
        [
          Alcotest.test_case "unit predicate" `Quick
            test_nondeterministic_unit_predicate;
          Alcotest.test_case "deterministic artifact scrubs rates" `Quick
            test_deterministic_artifact_scrubs_rates;
        ] );
      ( "openmetrics",
        [
          Alcotest.test_case "render and validate" `Quick test_openmetrics_valid;
          Alcotest.test_case "to_line round-trip" `Quick test_to_line_roundtrip;
        ] );
      ( "frontier",
        [
          Alcotest.test_case "tracks coverage" `Quick
            test_frontier_tracks_coverage;
          Alcotest.test_case "embeds in snapshots" `Quick
            test_frontier_in_snapshot_stream;
        ] );
    ]
