(* The resilient campaign runtime: deterministic fault injection,
   supervised trials (watchdog / retry / quarantine), per-test failure
   containment for dead workers and checkpoint/resume.

   The flagship property at the bottom: interrupting a fault-injected
   campaign after ANY prefix of its tests and resuming from the journal
   yields method statistics — and a JSON summary — byte-identical to the
   uninterrupted run's. *)

module Fault = Sched.Fault
module Supervise = Harness.Supervise
module Pipeline = Harness.Pipeline
module Checkpoint = Harness.Checkpoint

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checks = Alcotest.(check string)

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

(* ---------------- fault spec parsing ---------------- *)

let spec_exn s =
  match Fault.of_string s with
  | Ok spec -> spec
  | Error msg -> Alcotest.failf "spec %S rejected: %s" s msg

let test_spec_parse () =
  let s = spec_exn "timeout:0.05,crash:0.02" in
  checkb "timeout rate" true (s.Fault.timeout_rate = 0.05);
  checkb "crash rate" true (s.Fault.crash_rate = 0.02);
  checkb "truncate defaults to 0" true (s.Fault.truncate_rate = 0.);
  let t = spec_exn " truncate:0.5 " in
  checkb "whitespace tolerated" true (t.Fault.truncate_rate = 0.5);
  checkb "none is none" true (Fault.is_none Fault.none);
  checkb "nonzero spec is not none" false (Fault.is_none s)

let test_spec_roundtrip () =
  let specs =
    [ "timeout:0.05,crash:0.02"; "crash:1"; "timeout:0.1,crash:0.2,truncate:0.3" ]
  in
  List.iter
    (fun str ->
      let s = spec_exn str in
      checkb ("round-trips: " ^ str) true (spec_exn (Fault.to_string s) = s))
    specs

let test_spec_errors () =
  let rejects s =
    match Fault.of_string s with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "spec %S must be rejected" s
  in
  rejects "";
  rejects "bogus:0.1";
  rejects "timeout";
  rejects "timeout:zero";
  rejects "timeout:1.5";
  rejects "timeout:-0.1";
  rejects "timeout:0.9,crash:0.9"

(* ---------------- fault draws ---------------- *)

let test_draw_deterministic () =
  let plan = Fault.plan ~seed:42 (spec_exn "timeout:0.3,crash:0.3,truncate:0.3") in
  for test = 1 to 10 do
    for trial = 0 to 5 do
      for attempt = 0 to 2 do
        checkb "same draw twice" true
          (Fault.draw plan ~test ~trial ~attempt
          = Fault.draw plan ~test ~trial ~attempt)
      done
    done
  done;
  (* the empty plan never fires *)
  for test = 1 to 50 do
    checkb "disabled plan silent" true
      (Fault.draw Fault.disabled ~test ~trial:0 ~attempt:0 = Fault.No_fault)
  done

let test_draw_extremes () =
  let always = Fault.plan ~seed:3 (spec_exn "crash:1") in
  for test = 1 to 30 do
    match Fault.draw always ~test ~trial:test ~attempt:0 with
    | Fault.Crash at -> checkb "crash step sane" true (at >= 50)
    | _ -> Alcotest.fail "rate-1.0 crash plan must always crash"
  done;
  let never = Fault.plan ~seed:3 Fault.none in
  for test = 1 to 30 do
    checkb "rate-0 never fires" true
      (Fault.draw never ~test ~trial:0 ~attempt:0 = Fault.No_fault)
  done;
  (* seeds decorrelate the schedule *)
  let a = Fault.plan ~seed:1 (spec_exn "crash:0.5")
  and b = Fault.plan ~seed:2 (spec_exn "crash:0.5") in
  let draws p = List.init 64 (fun i -> Fault.draw p ~test:i ~trial:0 ~attempt:0) in
  checkb "different seeds differ" false (draws a = draws b)

(* ---------------- supervised execution ---------------- *)

let test_supervise_ok () =
  let sv = Supervise.run ~seed:1 (fun ~attempt:_ -> 41 + 1) in
  checkb "result" true (sv.Supervise.sv_result = Some 42);
  checkb "outcome" true (sv.Supervise.sv_outcome = Supervise.Ok);
  checki "no retries" 0 sv.Supervise.sv_retries;
  checki "no backoff" 0 sv.Supervise.sv_backoff

let test_supervise_retry_then_succeed () =
  let sv =
    Supervise.run ~seed:1 (fun ~attempt ->
        if attempt = 0 then raise (Fault.Injected_crash "flaky vm") else "done")
  in
  checkb "recovered" true (sv.Supervise.sv_result = Some "done");
  checkb "outcome ok" true (Supervise.is_ok sv.Supervise.sv_outcome);
  checki "one retry" 1 sv.Supervise.sv_retries;
  checkb "backoff charged" true (sv.Supervise.sv_backoff > 0)

let test_supervise_quarantine () =
  let attempts = ref 0 in
  let sv =
    Supervise.run ~seed:1 (fun ~attempt:_ ->
        incr attempts;
        raise (Fault.Trace_truncated "always"))
  in
  checkb "no result" true (sv.Supervise.sv_result = None);
  (match sv.Supervise.sv_outcome with
  | Supervise.Quarantined _ -> ()
  | o -> Alcotest.failf "expected quarantine, got %s" (Supervise.outcome_name o));
  checki "default max_retries exhausted" Supervise.default.Supervise.max_retries
    sv.Supervise.sv_retries;
  checki "attempts = retries + 1" (Supervise.default.Supervise.max_retries + 1)
    !attempts

let test_supervise_crash_no_retry () =
  let attempts = ref 0 in
  let sv =
    Supervise.run ~seed:1 (fun ~attempt:_ ->
        incr attempts;
        failwith "harness bug")
  in
  (match sv.Supervise.sv_outcome with
  | Supervise.Crashed msg -> checkb "message kept" true (String.length msg > 0)
  | o -> Alcotest.failf "expected crashed, got %s" (Supervise.outcome_name o));
  checki "non-transient never retried" 1 !attempts

let test_supervise_timeout_no_retry () =
  let attempts = ref 0 in
  let sv =
    Supervise.run ~seed:1 (fun ~attempt:_ ->
        incr attempts;
        raise (Fault.Watchdog_timeout 123))
  in
  checkb "timed out at step" true (sv.Supervise.sv_outcome = Supervise.Timed_out 123);
  checki "deterministic timeout never retried" 1 !attempts

let test_backoff_deterministic_bounded () =
  let p = { Supervise.default with Supervise.backoff_base = 64 } in
  for attempt = 1 to 12 do
    let b = Supervise.backoff p ~seed:9 ~attempt in
    checkb "positive" true (b > 0);
    checkb "bounded" true (b <= 64 * 4096);
    checki "pure in (seed, attempt)" b (Supervise.backoff p ~seed:9 ~attempt)
  done;
  checkb "grows with attempt (early)" true
    (Supervise.backoff p ~seed:9 ~attempt:1 < Supervise.backoff p ~seed:9 ~attempt:4)

let test_outcome_names () =
  checks "ok" "ok" (Supervise.outcome_name Supervise.Ok);
  checks "timeout" "timeout" (Supervise.outcome_name (Supervise.Timed_out 5));
  checks "crashed" "crashed" (Supervise.outcome_name (Supervise.Crashed "x"));
  checks "quarantined" "quarantined"
    (Supervise.outcome_name (Supervise.Quarantined "x"))

(* ---------------- executor-level injection ---------------- *)

let env = lazy (Sched.Exec.make_env Kernel.Config.all_buggy)

let scenario13 =
  lazy
    (match Harness.Scenarios.find 13 with
    | Some s -> s
    | None -> Alcotest.fail "scenario 13 missing")

let run_with ?watchdog ?fault () =
  let e = Lazy.force env and s = Lazy.force scenario13 in
  let rng = Random.State.make [| 5 |] in
  Sched.Exec.run_conc e ~writer:s.Harness.Scenarios.writer
    ~reader:s.Harness.Scenarios.reader
    ~policy:(Sched.Policies.naive rng ~period:4)
    ?watchdog ?fault ()

let test_injected_crash_raises () =
  (match run_with ~fault:(Fault.Crash 60) () with
  | exception Fault.Injected_crash _ -> ()
  | _ -> Alcotest.fail "Crash verdict must raise Injected_crash");
  match run_with ~fault:(Fault.Truncate 60) () with
  | exception Fault.Trace_truncated _ -> ()
  | _ -> Alcotest.fail "Truncate verdict must raise Trace_truncated"

let test_watchdog_raises () =
  match run_with ~watchdog:40 () with
  | exception Fault.Watchdog_timeout n ->
      checkb "fired at the budget" true (n >= 40)
  | _ -> Alcotest.fail "watchdog must abort a long trial"

let test_injected_timeout_becomes_watchdog () =
  match run_with ~fault:Fault.Timeout () with
  | exception Fault.Watchdog_timeout n ->
      checkb "clamped horizon" true (n >= Sched.Exec.injected_timeout_horizon)
  | _ -> Alcotest.fail "Timeout verdict must trip the watchdog"

let test_no_fault_unchanged () =
  (* the supervision plumbing must not perturb a healthy trial *)
  let plain = run_with () and again = run_with ~fault:Fault.No_fault () in
  checkb "same steps" true (plain.Sched.Exec.cc_steps = again.Sched.Exec.cc_steps);
  checkb "same accesses" true
    (plain.Sched.Exec.cc_accesses = again.Sched.Exec.cc_accesses)

(* ---------------- lookup errors (satellite b) ---------------- *)

let expect_invalid_arg name f =
  match f () with
  | exception Invalid_argument msg ->
      checkb (name ^ " names the id") true (contains ~sub:"4242" msg)
  | _ -> Alcotest.failf "%s must raise Invalid_argument" name

let test_unknown_corpus_id () =
  expect_invalid_arg "Parallel.prog_of_table" (fun () ->
      Harness.Parallel.prog_of_table (Hashtbl.create 4) 4242)

(* ---------------- dead-worker failure containment ---------------- *)

let test_crashed_result_shape () =
  let ct w r = { Core.Select.writer = w; reader = r; hint = None } in
  let rs =
    List.map
      (fun test ->
        Harness.Parallel.crashed_result test (Failure "domain blew up"))
      [ (3, ct 1 2); (7, ct 2 1) ]
  in
  checki "one record per test" 2 (List.length rs);
  List.iter2
    (fun idx (r : Pipeline.test_result) ->
      checki "index preserved" idx r.Pipeline.tr_index;
      (match r.Pipeline.tr_outcome with
      | Supervise.Crashed msg ->
          checkb "names the worker death" true
            (contains ~sub:"domain blew up" msg)
      | o -> Alcotest.failf "expected crashed, got %s" (Supervise.outcome_name o));
      checki "no salvaged trials" 0 r.Pipeline.tr_trials;
      checkb "no bug" true (r.Pipeline.tr_bug = None))
    [ 3; 7 ] rs

(* ---------------- checkpoint journal ---------------- *)

let sample_result ~index ~outcome ~bug =
  {
    Pipeline.tr_index = index;
    tr_hinted = index mod 2 = 0;
    tr_outcome = outcome;
    tr_retries = index mod 3;
    tr_exercised = true;
    tr_pmc_observed = true;
    tr_issues = [ 13; 16 ];
    tr_unknown = 1;
    tr_trials = 4;
    tr_steps = 5000 + index;
    tr_hint_hits = index mod 4;
    tr_miss_no_write = 1;
    tr_miss_no_read = index mod 2;
    tr_miss_value = 0;
    tr_prof = [ ("poll_wait", 120 + index, 7); ("tty_write", 64, 3) ];
    tr_bug = bug;
  }

let sample_bug () =
  let s = Lazy.force scenario13 in
  {
    Pipeline.br_issues = [ 13 ];
    br_test = 2;
    br_trial = 1;
    br_writer = s.Harness.Scenarios.writer;
    br_reader = s.Harness.Scenarios.reader;
    br_replay = "0:0101";
  }

let test_checkpoint_roundtrip () =
  let path = Filename.temp_file "snowboard_ck" ".json" in
  let entries =
    [
      {
        Checkpoint.ck_method = "S-INS";
        ck_result = sample_result ~index:1 ~outcome:Supervise.Ok ~bug:(Some (sample_bug ()));
      };
      {
        Checkpoint.ck_method = "S-INS";
        ck_result =
          sample_result ~index:2 ~outcome:(Supervise.Timed_out 192) ~bug:None;
      };
      {
        Checkpoint.ck_method = "S-MEM";
        ck_result =
          sample_result ~index:1 ~outcome:(Supervise.Quarantined "vm crash: x")
            ~bug:None;
      };
      {
        Checkpoint.ck_method = "S-MEM";
        ck_result =
          sample_result ~index:3 ~outcome:(Supervise.Crashed "boom") ~bug:None;
      };
    ]
  in
  let file = { Checkpoint.ck_fingerprint = "fp-1"; ck_entries = entries } in
  Checkpoint.save path file;
  (match Checkpoint.load path with
  | Error msg -> Alcotest.failf "load failed: %s" msg
  | Ok loaded ->
      checks "fingerprint" "fp-1" loaded.Checkpoint.ck_fingerprint;
      checkb "entries round-trip" true (loaded.Checkpoint.ck_entries = entries));
  Sys.remove path

let test_checkpoint_lookup () =
  let entries =
    [
      {
        Checkpoint.ck_method = "S-INS";
        ck_result = sample_result ~index:2 ~outcome:Supervise.Ok ~bug:None;
      };
    ]
  in
  checkb "hit" true (Checkpoint.lookup entries ~method_:"S-INS" 2 <> None);
  checkb "wrong method" true (Checkpoint.lookup entries ~method_:"S-MEM" 2 = None);
  checkb "wrong index" true (Checkpoint.lookup entries ~method_:"S-INS" 3 = None)

let test_checkpoint_load_errors () =
  (match Checkpoint.load "/nonexistent/snowboard.ck" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "missing file must be an error");
  let path = Filename.temp_file "snowboard_ck" ".json" in
  let oc = open_out path in
  output_string oc "{\"schema\": \"other/v9\", \"fingerprint\": \"x\", \"entries\": []}";
  close_out oc;
  (match Checkpoint.load path with
  | Error msg -> checkb "names the schema" true (contains ~sub:"schema" msg)
  | Ok _ -> Alcotest.fail "foreign schema must be an error");
  Sys.remove path

let test_checkpoint_sink () =
  let path = Filename.temp_file "snowboard_ck" ".json" in
  let sink = Checkpoint.create_sink ~path ~fingerprint:"fp-2" ~initial:[] in
  Checkpoint.record sink ~method_:"S-INS"
    (sample_result ~index:1 ~outcome:Supervise.Ok ~bug:None);
  Checkpoint.record sink ~method_:"S-INS"
    (sample_result ~index:2 ~outcome:(Supervise.Timed_out 10) ~bug:None);
  (match Checkpoint.load path with
  | Error msg -> Alcotest.failf "load failed: %s" msg
  | Ok f ->
      checki "both journaled" 2 (List.length f.Checkpoint.ck_entries);
      checkb "order preserved" true
        (List.map
           (fun e -> e.Checkpoint.ck_result.Pipeline.tr_index)
           f.Checkpoint.ck_entries
        = [ 1; 2 ]));
  Sys.remove path

let test_fingerprint_sensitivity () =
  let cfg = Pipeline.default in
  let fp ?(cfg = cfg) ?(budget = 10) ?(extra = "") () =
    Checkpoint.fingerprint ~cfg ~budget ~methods:[ "S-INS" ] ~extra ()
  in
  checks "stable" (fp ()) (fp ());
  checkb "seed changes it" false
    (fp () = fp ~cfg:{ cfg with Pipeline.seed = 99 } ());
  checkb "budget changes it" false (fp () = fp ~budget:11 ());
  checkb "fault knobs change it" false (fp () = fp ~extra:"faults=crash:1" ())

(* ---------------- campaign-level supervision ---------------- *)

let small_cfg =
  {
    Pipeline.default with
    Pipeline.seed = 7;
    fuzz_iters = 120;
    trials_per_test = 4;
    seed_corpus = Pipeline.scenario_seeds ();
  }

let pipe = lazy (Pipeline.prepare small_cfg)

let m_sins = Core.Select.Strategy Core.Cluster.S_INS

let test_crash_rate_one_quarantines_all () =
  let t = Lazy.force pipe in
  let faults = Fault.plan ~seed:7 (spec_exn "crash:1") in
  let s = Pipeline.run_method ~faults t m_sins ~budget:6 in
  checki "all quarantined" s.Pipeline.executed s.Pipeline.outcomes.Pipeline.oc_quarantined;
  checki "every retry burned"
    (s.Pipeline.executed * Supervise.default.Supervise.max_retries)
    s.Pipeline.outcomes.Pipeline.oc_retries;
  checkb "degraded" true (Pipeline.degraded [ s ]);
  checkb "no salvaged data" true
    (s.Pipeline.total_trials = 0 && s.Pipeline.bugs = [] && s.Pipeline.issues = [])

let test_timeout_rate_one_times_out_all () =
  let t = Lazy.force pipe in
  let faults = Fault.plan ~seed:7 (spec_exn "timeout:1") in
  let s = Pipeline.run_method ~faults t m_sins ~budget:6 in
  checki "all timed out" s.Pipeline.executed s.Pipeline.outcomes.Pipeline.oc_timed_out;
  checki "timeouts never retried" 0 s.Pipeline.outcomes.Pipeline.oc_retries

let test_watchdog_budget_times_out_all () =
  let t = Lazy.force pipe in
  let sup = { Supervise.default with Supervise.step_budget = Some 40 } in
  let s = Pipeline.run_method ~sup t m_sins ~budget:6 in
  checki "tiny budget times out every test" s.Pipeline.executed
    s.Pipeline.outcomes.Pipeline.oc_timed_out

let test_no_faults_no_outcome_change () =
  (* supervision with default policy must not change a healthy campaign *)
  let t = Lazy.force pipe in
  let s = Pipeline.run_method t m_sins ~budget:6 in
  checki "all ok" s.Pipeline.executed s.Pipeline.outcomes.Pipeline.oc_ok;
  checki "no retries" 0 s.Pipeline.outcomes.Pipeline.oc_retries;
  checkb "not degraded" false (Pipeline.degraded [ s ])

(* ---------------- interrupt/resume equivalence (satellite c) ---------- *)

let summary_string stats =
  Obs.Export.to_string
    (Harness.Report.json_summary ~stats
       ~found:[ ("campaign", Pipeline.issues_union stats) ]
       ())

let test_resume_any_prefix_identical () =
  let t = Lazy.force pipe in
  let faults = Fault.plan ~seed:7 (spec_exn "timeout:0.2,crash:0.15") in
  let collected = ref [] in
  let full =
    Pipeline.run_method ~faults ~on_result:(fun r -> collected := r :: !collected)
      t m_sins ~budget:8
  in
  let results = List.rev !collected in
  checki "every test journaled" full.Pipeline.executed (List.length results);
  checkb "fault plan actually bit (test is meaningful)" true
    (Pipeline.degraded [ full ]);
  let reference = summary_string [ full ] in
  List.iteri
    (fun k _ ->
      (* resume with the first [k] results journaled, re-run the rest *)
      let journal = List.filteri (fun i _ -> i < k) results in
      let resume idx =
        List.find_opt (fun r -> r.Pipeline.tr_index = idx) journal
      in
      let resumed = Pipeline.run_method ~faults ~resume t m_sins ~budget:8 in
      checkb
        (Printf.sprintf "stats equal after interrupt at %d" k)
        true (resumed = full);
      checks
        (Printf.sprintf "summary byte-identical after interrupt at %d" k)
        reference
        (summary_string [ resumed ]))
    (() :: List.map ignore results)

let prop_resume_random_subset =
  (* stronger than prefixes: ANY journaled subset must merge back to the
     uninterrupted statistics *)
  QCheck.Test.make ~name:"resume from any journaled subset" ~count:12
    QCheck.(list_of_size (Gen.return 8) bool)
    (fun mask ->
      let t = Lazy.force pipe in
      let faults = Fault.plan ~seed:7 (spec_exn "timeout:0.2,crash:0.15") in
      let collected = ref [] in
      let full =
        Pipeline.run_method ~faults
          ~on_result:(fun r -> collected := r :: !collected)
          t m_sins ~budget:8
      in
      let results = List.rev !collected in
      let journal =
        List.filteri
          (fun i _ -> match List.nth_opt mask i with Some b -> b | None -> false)
          results
      in
      let resume idx =
        List.find_opt (fun r -> r.Pipeline.tr_index = idx) journal
      in
      Pipeline.run_method ~faults ~resume t m_sins ~budget:8 = full)

(* ---------------- driver ---------------- *)

let tests =
  [
    Alcotest.test_case "fault spec parses" `Quick test_spec_parse;
    Alcotest.test_case "fault spec round-trips" `Quick test_spec_roundtrip;
    Alcotest.test_case "fault spec rejects junk" `Quick test_spec_errors;
    Alcotest.test_case "draws deterministic" `Quick test_draw_deterministic;
    Alcotest.test_case "draw extremes" `Quick test_draw_extremes;
    Alcotest.test_case "supervise: ok" `Quick test_supervise_ok;
    Alcotest.test_case "supervise: retry then succeed" `Quick
      test_supervise_retry_then_succeed;
    Alcotest.test_case "supervise: quarantine after retries" `Quick
      test_supervise_quarantine;
    Alcotest.test_case "supervise: crash not retried" `Quick
      test_supervise_crash_no_retry;
    Alcotest.test_case "supervise: timeout not retried" `Quick
      test_supervise_timeout_no_retry;
    Alcotest.test_case "backoff deterministic and bounded" `Quick
      test_backoff_deterministic_bounded;
    Alcotest.test_case "outcome names stable" `Quick test_outcome_names;
    Alcotest.test_case "injected crash/truncate raise" `Quick
      test_injected_crash_raises;
    Alcotest.test_case "watchdog aborts long trials" `Quick test_watchdog_raises;
    Alcotest.test_case "injected timeout trips watchdog" `Quick
      test_injected_timeout_becomes_watchdog;
    Alcotest.test_case "No_fault leaves trials untouched" `Quick
      test_no_fault_unchanged;
    Alcotest.test_case "unknown corpus id named" `Quick test_unknown_corpus_id;
    Alcotest.test_case "shard failure contained" `Quick
      test_crashed_result_shape;
    Alcotest.test_case "checkpoint round-trips" `Quick test_checkpoint_roundtrip;
    Alcotest.test_case "checkpoint lookup keyed" `Quick test_checkpoint_lookup;
    Alcotest.test_case "checkpoint load errors" `Quick test_checkpoint_load_errors;
    Alcotest.test_case "checkpoint sink journals" `Quick test_checkpoint_sink;
    Alcotest.test_case "fingerprint sensitivity" `Quick
      test_fingerprint_sensitivity;
    Alcotest.test_case "crash rate 1.0 quarantines all" `Slow
      test_crash_rate_one_quarantines_all;
    Alcotest.test_case "timeout rate 1.0 times out all" `Slow
      test_timeout_rate_one_times_out_all;
    Alcotest.test_case "watchdog budget times out all" `Slow
      test_watchdog_budget_times_out_all;
    Alcotest.test_case "supervision neutral when healthy" `Slow
      test_no_faults_no_outcome_change;
    Alcotest.test_case "resume any prefix is identical" `Slow
      test_resume_any_prefix_identical;
    QCheck_alcotest.to_alcotest prop_resume_random_subset;
  ]

let () = Alcotest.run "resilience" [ ("resilience", tests) ]
