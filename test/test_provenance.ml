(* PMC provenance and guest profiling.

   The flagship property: the provenance artifact and the collapsed-stack
   flamegraph are byte-identical between a sequential campaign, a
   parallel one (profile and execute at --jobs 2) and a
   checkpointed-then-resumed one, all on the same seed.  Around it, unit
   coverage for the profiler primitives, the hint-outcome bookkeeping and
   the artifact's internal consistency. *)

module Pipeline = Harness.Pipeline
module Provenance = Harness.Provenance
module Frontier = Harness.Frontier
module Prof = Obs.Profguest
module J = Obs.Export

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checks = Alcotest.(check string)

(* ---------------- profiler primitives ---------------- *)

let test_profiler_gating () =
  Prof.reset ();
  Prof.set_enabled false;
  let c = Prof.collector () in
  checkb "collector inactive while disabled" false (Prof.active c);
  Prof.collect c ~fid:(Prof.intern "f") ~steps:10 ~shared:1;
  checkb "nothing collected" true (Prof.drain c = []);
  Prof.add_rows Prof.Profile [ ("f", 5, 1) ];
  checkb "add_rows is a no-op while disabled" true (Prof.rows () = []);
  Prof.set_enabled true;
  let c = Prof.collector () in
  checkb "collector active while enabled" true (Prof.active c);
  Prof.set_enabled false

let test_collector_drain_sorted () =
  Prof.reset ();
  Prof.set_enabled true;
  let c = Prof.collector () in
  let fb = Prof.intern "bbb" and fa = Prof.intern "aaa" in
  Prof.collect c ~fid:fb ~steps:3 ~shared:1;
  Prof.collect c ~fid:fa ~steps:2 ~shared:0;
  Prof.collect c ~fid:fb ~steps:4 ~shared:2;
  Prof.collect c ~fid:(-1) ~steps:99 ~shared:99;
  (* negative fid ignored *)
  checkb "rows sorted by name, counts summed" true
    (Prof.drain c = [ ("aaa", 2, 0); ("bbb", 7, 3) ]);
  checkb "drain clears" true (Prof.drain c = []);
  Prof.set_enabled false

let test_phase_split_and_flame_format () =
  Prof.reset ();
  Prof.set_enabled true;
  Prof.add_rows Prof.Profile [ ("tty_write", 10, 2) ];
  Prof.add_rows Prof.Explore [ ("tty_write", 30, 5); ("poll_wait", 7, 1) ];
  let rows = Prof.rows () in
  checki "two functions" 2 (List.length rows);
  (match List.find_opt (fun r -> r.Prof.r_name = "tty_write") rows with
  | Some r ->
      checki "profile instr" 10 r.Prof.r_profile_instr;
      checki "profile shared" 2 r.Prof.r_profile_shared;
      checki "explore instr" 30 r.Prof.r_explore_instr;
      checki "explore shared" 5 r.Prof.r_explore_shared
  | None -> Alcotest.fail "tty_write row missing");
  let lines = Prof.flame_lines () in
  checkb "collapsed-stack lines sorted" true
    (lines = List.sort compare lines);
  List.iter
    (fun l ->
      match String.index_opt l ';' with
      | None -> Alcotest.failf "flame line %S lacks phase prefix" l
      | Some i ->
          let phase = String.sub l 0 i in
          checkb "phase is profile or explore" true
            (phase = "profile" || phase = "explore"))
    lines;
  checkb "explore frame present" true
    (List.mem "explore;poll_wait 7" lines);
  Prof.set_enabled false

let test_reset_keeps_fids () =
  Prof.reset ();
  Prof.set_enabled true;
  let f = Prof.intern "stable_fn" in
  Prof.add_rows Prof.Profile [ ("stable_fn", 5, 0) ];
  Prof.reset ();
  checki "fid survives reset" f (Prof.intern "stable_fn");
  checkb "counts cleared" true (Prof.rows () = []);
  Prof.set_enabled false

(* ---------------- campaigns under comparison ---------------- *)

let m_sins = Core.Select.Strategy Core.Cluster.S_INS
let budget = 6

let cfg ~jobs =
  {
    Pipeline.default with
    Pipeline.seed = 7;
    fuzz_iters = 100;
    trials_per_test = 4;
    seed_corpus = Pipeline.scenario_seeds ();
    jobs;
  }

(* One complete profiled campaign (fresh pipeline, fresh profiler);
   returns the provenance artifact and flamegraph as strings, plus the
   executed results for journal-style resumption. *)
let campaign ?(jobs = 1) ~runner () =
  Prof.reset ();
  Prof.set_enabled true;
  let t = Pipeline.prepare (cfg ~jobs) in
  let collected = ref [] in
  let (_ : Pipeline.method_stats) =
    runner t (fun r -> collected := r :: !collected)
  in
  let prov =
    J.to_string (Provenance.json t.Pipeline.prov ~frontier:t.Pipeline.frontier)
  in
  let flame = String.concat "\n" (Prof.flame_lines ()) in
  Prof.set_enabled false;
  (prov, flame, List.rev !collected)

let run_sins t on_result = Pipeline.run_method ~on_result t m_sins ~budget

let reference = lazy (campaign ~runner:run_sins ())

let test_artifact_identical_jobs2 () =
  let prov1, flame1, _ = Lazy.force reference in
  let prov2, flame2, _ = campaign ~jobs:2 ~runner:run_sins () in
  checks "provenance byte-identical across --jobs 2" prov1 prov2;
  checks "flamegraph byte-identical across --jobs 2" flame1 flame2

let resumed_campaign journal =
  campaign
    ~runner:(fun t on_result ->
      let resume idx =
        List.find_opt (fun r -> r.Pipeline.tr_index = idx) journal
      in
      Pipeline.run_method ~resume ~on_result t m_sins ~budget)
    ()

let prop_artifact_identical_resumed =
  QCheck.Test.make ~name:"provenance/flame byte-identical after resume"
    ~count:4
    QCheck.(int_range 0 budget)
    (fun k ->
      let prov1, flame1, results = Lazy.force reference in
      (* journal the first [k] executed tests, re-run the rest *)
      let journal = List.filteri (fun i _ -> i < k) results in
      let prov2, flame2, _ = resumed_campaign journal in
      prov1 = prov2 && flame1 = flame2)

(* ---------------- artifact consistency ---------------- *)

let jfield k = function J.Obj l -> List.assoc_opt k l | _ -> None
let jget k o = match jfield k o with Some v -> v | None -> J.Null
let jint = function J.Int i -> i | _ -> Alcotest.fail "expected int"
let jlist = function J.List l -> l | _ -> []
let jstr = function J.String s -> s | _ -> Alcotest.fail "expected string"

let artifact = lazy (let p, _, _ = Lazy.force reference in J.of_string p)

let test_artifact_schema_and_counts () =
  let doc = Lazy.force artifact in
  checks "schema" Provenance.schema (jstr (jget "schema" doc));
  let pmcs = jlist (jget "pmcs" doc) in
  checki "num_pmcs matches the pmcs list" (jint (jget "num_pmcs" doc))
    (List.length pmcs);
  checki "one cluster block per Table 1 strategy"
    (List.length Core.Cluster.all)
    (List.length (jlist (jget "clusters" doc)));
  List.iter
    (fun p ->
      checki "verdict per strategy" (List.length Core.Cluster.all)
        (List.length
           (match jget "verdicts" p with J.Obj l -> l | _ -> [])))
    pmcs

let known_verdicts =
  [ "selected"; "deduplicated"; "beyond-budget"; "filtered"; "method-not-run" ]

let test_verdict_vocabulary () =
  let doc = Lazy.force artifact in
  List.iter
    (fun p ->
      List.iter
        (fun (_, v) ->
          let v = jstr v in
          checkb ("known verdict: " ^ v) true (List.mem v known_verdicts))
        (match jget "verdicts" p with J.Obj l -> l | _ -> []))
    (jlist (jget "pmcs" doc));
  (* the S-INS campaign ran, so its verdicts must include selections and
     every other strategy must read method-not-run or filtered *)
  let any_verdict name v =
    List.exists
      (fun p ->
        match jget "verdicts" p with
        | J.Obj l -> List.assoc_opt name l = Some (J.String v)
        | _ -> false)
      (jlist (jget "pmcs" doc))
  in
  checkb "some PMC selected under S-INS" true (any_verdict "S-INS" "selected");
  checkb "S-FULL never ran" true (any_verdict "S-FULL" "method-not-run");
  checkb "no S-FULL selection" false (any_verdict "S-FULL" "selected")

let test_hint_tallies_consistent () =
  (* per hinted ok test: every trial is either a hit or a classified
     miss, so the four tallies partition the trial count *)
  let doc = Lazy.force artifact in
  let hinted_checked = ref 0 in
  List.iter
    (fun t ->
      if jget "pmc" t <> J.Null && jstr (jget "outcome" t) = "ok" then begin
        incr hinted_checked;
        checki "hits + classified misses = trials"
          (jint (jget "trials" t))
          (jint (jget "hint_hits" t)
          + jint (jget "miss_no_write" t)
          + jint (jget "miss_no_read" t)
          + jint (jget "miss_value" t))
      end)
    (jlist (jget "tests" doc));
  checkb "some hinted tests were checked" true (!hinted_checked > 0)

let test_untested_cluster_why () =
  let doc = Lazy.force artifact in
  let known = [ "planned-but-not-executed"; "beyond-budget"; "method-not-run" ] in
  List.iter
    (fun block ->
      List.iter
        (fun c ->
          match (jget "tested" c, jfield "why" c) with
          | J.Bool true, Some _ -> Alcotest.fail "tested cluster carries a why"
          | J.Bool true, None -> ()
          | J.Bool false, Some (J.String w) ->
              checkb ("known why: " ^ w) true (List.mem w known)
          | _ -> Alcotest.fail "untested cluster lacks a why")
        (jlist (jget "clusters" block)))
    (jlist (jget "clusters" doc))

let test_frontier_point_queries () =
  (* is_tested, asked of every cluster id, agrees with the frontier
     count, before and after a campaign *)
  let _, _, _ = Lazy.force reference in
  let t = Pipeline.prepare (cfg ~jobs:1) in
  let fr = t.Pipeline.frontier in
  let strategy = Core.Cluster.S_INS in
  let n = Core.Cluster.num_clusters (Frontier.clusters fr strategy) in
  let untested () =
    List.length
      (List.filter
         (fun id -> not (Frontier.is_tested fr strategy id))
         (List.init n Fun.id))
  in
  let frontier () = List.assoc strategy (Frontier.frontier fr) in
  checki "fresh frontier: everything untested" n (untested ());
  checki "fresh frontier count" n (frontier ());
  let (_ : Pipeline.method_stats) = Pipeline.run_method t m_sins ~budget in
  checkb "campaign tested something" true (untested () < n);
  checki "is_tested and the frontier count agree" (frontier ()) (untested ())

let () =
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "provenance"
    [
      ( "profiler",
        [
          Alcotest.test_case "disabled profiler is inert" `Quick
            test_profiler_gating;
          Alcotest.test_case "collector drains sorted, summed" `Quick
            test_collector_drain_sorted;
          Alcotest.test_case "phase split and flame format" `Quick
            test_phase_split_and_flame_format;
          Alcotest.test_case "reset keeps interned fids" `Quick
            test_reset_keeps_fids;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "artifacts identical under --jobs 2/--domains 2"
            `Slow test_artifact_identical_jobs2;
          qc prop_artifact_identical_resumed;
        ] );
      ( "artifact",
        [
          Alcotest.test_case "schema and counts" `Slow
            test_artifact_schema_and_counts;
          Alcotest.test_case "verdict vocabulary" `Slow test_verdict_vocabulary;
          Alcotest.test_case "hint tallies partition trials" `Slow
            test_hint_tallies_consistent;
          Alcotest.test_case "untested clusters carry a why" `Slow
            test_untested_cluster_why;
          Alcotest.test_case "frontier point queries" `Slow
            test_frontier_point_queries;
        ] );
    ]
