(* Harness-level tests: pipeline phases, reporting, scenario inventory,
   and the PCT policy. *)

module P = Fuzzer.Prog
module Exec = Sched.Exec

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let small_cfg =
  {
    Harness.Pipeline.default with
    Harness.Pipeline.fuzz_iters = 120;
    trials_per_test = 8;
  }

let t = lazy (Harness.Pipeline.prepare small_cfg)

let test_fuzz_deterministic () =
  let env = Exec.make_env Kernel.Config.v5_12_rc3 in
  let c1, s1 = Harness.Pipeline.fuzz env ~seed:9 ~iters:100 in
  let c2, s2 = Harness.Pipeline.fuzz env ~seed:9 ~iters:100 in
  checki "same corpus size" (Fuzzer.Corpus.size c1) (Fuzzer.Corpus.size c2);
  checki "same edges" (Fuzzer.Corpus.total_edges c1) (Fuzzer.Corpus.total_edges c2);
  checki "same guest steps" s1 s2;
  let c3, _ = Harness.Pipeline.fuzz env ~seed:10 ~iters:100 in
  ignore c3

let test_fuzz_grows_coverage () =
  let env = Exec.make_env Kernel.Config.v5_12_rc3 in
  let c1, _ = Harness.Pipeline.fuzz env ~seed:3 ~iters:50 in
  let c2, _ = Harness.Pipeline.fuzz env ~seed:3 ~iters:400 in
  checkb "more iterations, at least as much coverage" true
    (Fuzzer.Corpus.total_edges c2 >= Fuzzer.Corpus.total_edges c1)

(* A golden digest of one long fuzzing run: every entry's program and
   new-edge count, then the corpus's edge total.  20,000 iterations
   reset the VM's coverage set more often than its generation counter
   can count, so the run crosses at least one wrap.  The constant was
   computed on commit 5c8686f, while coverage lived in a Hashtbl, and
   pins the coverage feedback the fuzzer's decisions depend on
   (72 entries, 592 edges). *)
let golden_corpus = "e9da0ae159d5bdabc73b824694cf2539"

let corpus_digest () =
  let env = Exec.make_env Kernel.Config.v5_12_rc3 in
  let c, _ = Harness.Pipeline.fuzz env ~seed:3 ~iters:20_000 in
  let b = Buffer.create 4096 in
  List.iter
    (fun (e : Fuzzer.Corpus.entry) ->
      Printf.bprintf b "%d %s +%d\n" e.id (P.to_line e.prog) e.new_edges)
    (Fuzzer.Corpus.to_list c);
  Printf.bprintf b "total %d\n" (Fuzzer.Corpus.total_edges c);
  Digest.to_hex (Digest.string (Buffer.contents b))

let test_golden_corpus () =
  Alcotest.(check string) "fuzz corpus digest" golden_corpus (corpus_digest ())

let test_seed_corpus_offered_first () =
  let env = Exec.make_env Kernel.Config.v5_12_rc3 in
  let seeds = Harness.Pipeline.scenario_seeds () in
  let c, _ = Harness.Pipeline.fuzz ~seeds env ~seed:3 ~iters:0 in
  checkb "seeds alone build a corpus" true (Fuzzer.Corpus.size c > 5);
  checkb "not every seed is coverage-novel" true
    (Fuzzer.Corpus.size c < List.length seeds)

let test_profiles_and_ident_nonempty () =
  let t = Lazy.force t in
  checkb "profiles cover the corpus" true
    (List.length t.Harness.Pipeline.profiles
    = Fuzzer.Corpus.size t.Harness.Pipeline.corpus);
  checkb "every profile has shared accesses" true
    (List.for_all
       (fun p -> Core.Profile.length p > 0)
       t.Harness.Pipeline.profiles);
  checkb "PMCs identified" true (Core.Identify.num_pmcs t.Harness.Pipeline.ident > 0)

let test_prog_of_id () =
  let t = Lazy.force t in
  let entries = Fuzzer.Corpus.to_list t.Harness.Pipeline.corpus in
  List.iter
    (fun (e : Fuzzer.Corpus.entry) ->
      checkb "roundtrip" true
        (P.equal (Harness.Pipeline.prog_of_id t e.Fuzzer.Corpus.id) e.Fuzzer.Corpus.prog))
    entries;
  Alcotest.check_raises "unknown id"
    (Invalid_argument "pipeline: unknown corpus id 99999") (fun () ->
      ignore (Harness.Pipeline.prog_of_id t 99999))

let test_run_method_stats_consistent () =
  let t = Lazy.force t in
  let s =
    Harness.Pipeline.run_method t (Core.Select.Strategy Core.Cluster.S_MEM)
      ~budget:30
  in
  checkb "executed <= planned" true (s.Harness.Pipeline.executed <= 30);
  checkb "hinted <= executed" true
    (s.Harness.Pipeline.hinted <= s.Harness.Pipeline.executed);
  checkb "exercised <= hinted" true
    (s.Harness.Pipeline.hint_exercised <= s.Harness.Pipeline.hinted);
  checkb "trials bounded" true
    (s.Harness.Pipeline.total_trials
    <= s.Harness.Pipeline.executed * small_cfg.Harness.Pipeline.trials_per_test);
  List.iter
    (fun (_, at) ->
      checkb "issue index within executed range" true
        (at >= 1 && at <= s.Harness.Pipeline.executed))
    s.Harness.Pipeline.issues

let test_issues_union () =
  let mk issues =
    {
      Harness.Pipeline.method_ = Core.Select.Random_pairing;
      num_clusters = 0;
      planned = 0;
      executed = 0;
      hinted = 0;
      hint_exercised = 0;
      pmc_observed = 0;
      issues;
      unknown_findings = 0;
      total_trials = 0;
      total_steps = 0;
      bugs = [];
      outcomes = Harness.Pipeline.zero_outcomes;
    }
  in
  checkb "union sorted and deduped" true
    (Harness.Pipeline.issues_union [ mk [ (13, 1); (2, 5) ]; mk [ (13, 3); (14, 2) ] ]
    = [ 2; 13; 14 ])

let test_reports_print () =
  (* the report renderers must not raise on real data *)
  let t = Lazy.force t in
  let s =
    Harness.Pipeline.run_method t (Core.Select.Strategy Core.Cluster.S_INS)
      ~budget:20
  in
  Harness.Report.pmc_summary t;
  Harness.Report.table3 [ s ];
  Harness.Report.accuracy [ s ];
  Harness.Report.table2 ~found:[ ("test", List.map fst s.Harness.Pipeline.issues) ];
  checkb "reports printed" true true

let test_scenarios_inventory () =
  checki "17 scenarios" 17 (List.length Harness.Scenarios.all);
  let ids = List.map (fun s -> s.Harness.Scenarios.issue) Harness.Scenarios.all in
  checkb "ids are 1..17" true (List.sort compare ids = List.init 17 (fun i -> i + 1));
  (* every scenario yields at least one hinted PMC from its own profiles *)
  let env = Exec.make_env Kernel.Config.all_buggy in
  List.iter
    (fun s ->
      let _, hints =
        Harness.Scenarios.identify env (Harness.Scenarios.progs s)
      in
      checkb
        (Printf.sprintf "scenario #%d has hints" s.Harness.Scenarios.issue)
        true (hints <> []))
    Harness.Scenarios.all

let test_feedback_loop () =
  let t = Lazy.force t in
  let r = Harness.Feedback.run t ~budget:30 ~trials:6 ~seed:4 in
  checki "budget respected" 30 r.Harness.Feedback.executed;
  checkb "communication coverage accumulated" true
    (r.Harness.Feedback.comm_coverage > 0);
  (* the curve is monotonically non-decreasing and ends at the total *)
  let rec mono = function
    | a :: (b :: _ as rest) -> a <= b && mono rest
    | _ -> true
  in
  checkb "coverage curve monotone" true (mono r.Harness.Feedback.coverage_curve);
  checki "curve length = executed" 30
    (List.length r.Harness.Feedback.coverage_curve);
  checkb "curve ends at the total" true
    (List.nth r.Harness.Feedback.coverage_curve 29
    = r.Harness.Feedback.comm_coverage);
  checkb "finds at least the ubiquitous race" true
    (List.mem_assoc 13 r.Harness.Feedback.issues)

let test_pct_policy_shape () =
  (* depth-d PCT makes at most d-1 voluntary switches *)
  let rng = Random.State.make [| 4 |] in
  let policy = Sched.Policies.pct rng ~depth:3 ~est_len:100 in
  let switches = ref 0 in
  for _ = 1 to 200 do
    if policy.Exec.decide 0 (Vmm.Vm.make_sink ()) then incr switches
  done;
  checkb "at most depth-1 switches" true (!switches <= 2)

let test_pct_explores () =
  (* PCT eventually finds the easy benign race *)
  let env = Exec.make_env Kernel.Config.v5_12_rc3 in
  let prog = [ { P.nr = Kernel.Abi.sys_socket; args = [ P.Const 1; P.Const 0 ] } ] in
  let res =
    Sched.Explore.run env ~ident:None ~writer:prog ~reader:prog ~hint:None
      ~kind:(Sched.Explore.Pct 3) ~trials:200 ~seed:2 ~stop_on_bug:true ()
  in
  checkb "pct finds #13" true (List.mem 13 (Sched.Explore.issues_found res))

let tests =
  [
    Alcotest.test_case "fuzz deterministic" `Quick test_fuzz_deterministic;
    Alcotest.test_case "fuzz grows coverage" `Quick test_fuzz_grows_coverage;
    Alcotest.test_case "golden fuzz corpus" `Quick test_golden_corpus;
    Alcotest.test_case "seed corpus" `Quick test_seed_corpus_offered_first;
    Alcotest.test_case "profiles and identification" `Quick
      test_profiles_and_ident_nonempty;
    Alcotest.test_case "prog_of_id" `Quick test_prog_of_id;
    Alcotest.test_case "method stats consistent" `Quick
      test_run_method_stats_consistent;
    Alcotest.test_case "issues union" `Quick test_issues_union;
    Alcotest.test_case "reports print" `Quick test_reports_print;
    Alcotest.test_case "scenario inventory" `Slow test_scenarios_inventory;
    Alcotest.test_case "feedback loop" `Slow test_feedback_loop;
    Alcotest.test_case "pct switch budget" `Quick test_pct_policy_shape;
    Alcotest.test_case "pct explores" `Quick test_pct_explores;
  ]

let () = Alcotest.run "harness" [ ("pipeline", tests) ]
