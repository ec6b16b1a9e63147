(* Benchmark harness: regenerates every quantitative result of the paper's
   evaluation (section 5).  Figures 1, 3 and 4 are bug-mechanics
   illustrations; their data counterpart is the `cases` experiment, which
   reproduces each depicted bug deterministically and prints the evidence.

   Experiments (run all by default, or select by name on the command line):
     table2      - issues found on both kernel versions (Table 2)
     table3      - per-generation-method statistics (Table 3)
     accuracy    - PMC identification accuracy (section 5.3.2)
     expose      - interleavings to expose a bug, Snowboard vs SKI (5.4)
     throughput  - execution throughput, Snowboard vs SKI (5.4)
     perf        - pipeline-stage micro-benchmarks, bechamel (5.4)
     cases       - deterministic reproduction of the Figure 1/3/4 bugs
     extension   - the section 6 three-thread / PMC-chain demonstration
     feedback    - feedback-based exploration (the paper's stated future work)
     ablations   - design-choice ablations from DESIGN.md
     artifact    - deterministic machine-readable run artifact (BENCH_pipeline.json)
     tracing     - flight-recorder overhead + Chrome trace artifact (BENCH_trace.json)
     resilience  - supervision overhead + fault-injected campaign (BENCH_resilience.json)
     prepare     - dirty-page snapshots + multicore prepare (BENCH_prepare.json)
     exec        - interpreter throughput: Vm.step oracle vs threaded code (BENCH_exec.json)
     telemetry   - live telemetry streaming overhead (BENCH_telemetry.json)
     provenance  - PMC provenance + guest profiler: identity, overhead (BENCH_provenance.json)
     durability  - crash-consistent storage: framing totality, fsck, journaling overhead (BENCH_durability.json)
     scaling     - shared work queue + kept VMs: --jobs speedups (BENCH_scaling.json)

   Scaled-down parameters (a few hundred sequential tests rather than
   129,876; minutes rather than machine-weeks) are printed with each
   experiment; EXPERIMENTS.md records paper-vs-measured values. *)

let pf = Format.printf

let hr () = pf "%s@." (String.make 100 '=')

let section title =
  hr ();
  pf "%s@." title;
  hr ()

(* Wall-clock one call: its result and the seconds it took. *)
let time f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

(* The A/B timer behind every overhead and speedup verdict: one untimed
   warm-up pass of each side, then [ab_passes] alternating passes (a, b,
   a, b, ...).  A pass returns the seconds it timed, so the setup it
   leaves out stays untimed.  Each side reports its best and its median
   pass, so one preempted pass on a shared host cannot decide a
   verdict. *)
let ab_passes = 7

type ab = { a_best : float; a_median : float; b_best : float; b_median : float }

let ab_time a b =
  ignore (a ());
  ignore (b ());
  let da = Array.make ab_passes 0. and db = Array.make ab_passes 0. in
  for i = 0 to ab_passes - 1 do
    da.(i) <- a ();
    db.(i) <- b ()
  done;
  Array.sort Float.compare da;
  Array.sort Float.compare db;
  let mid = ab_passes / 2 in
  { a_best = da.(0); a_median = da.(mid); b_best = db.(0); b_median = db.(mid) }

(* Write a JSON artifact, then read it back: it must stay a valid JSON
   object. *)
let write_json ?site path json =
  Obs.Export.write_file ?site path json;
  let body = In_channel.with_open_bin path In_channel.input_all in
  match Obs.Export.of_string_opt body with
  | Some (Obs.Export.Obj fields) ->
      pf "wrote %s (%d bytes, %d fields, parses back OK)@." path
        (String.length body) (List.length fields)
  | _ -> pf "wrote %s but it does not parse back as a JSON object@." path

(* ------------------------------------------------------------------ *)
(* E1: Table 2                                                         *)

let campaign_cfg kernel =
  { Harness.Pipeline.default with Harness.Pipeline.kernel; fuzz_iters = 800;
    trials_per_test = 16;
    seed_corpus = Harness.Pipeline.scenario_seeds () }

let table2 () =
  section "E1 (Table 2): concurrency issues found, both kernel versions";
  pf "parameters: 800 fuzz iterations, 11 generation methods x 200 concurrent tests x 24 trials@.";
  let run label kernel =
    let cfg = { (campaign_cfg kernel) with Harness.Pipeline.trials_per_test = 24 } in
    let t = Harness.Pipeline.prepare cfg in
    let stats = Harness.Pipeline.run_campaign t ~budget:200 in
    (label, Harness.Pipeline.issues_union stats)
  in
  let found =
    [ run "5.3.10" Kernel.Config.v5_3_10; run "5.12-rc3" Kernel.Config.v5_12_rc3 ]
  in
  Harness.Report.table2 ~found;
  pf "paper: 17 issues total; 14 bugs (12 confirmed) + 3 benign data races@."

(* ------------------------------------------------------------------ *)
(* E2 + E3: Table 3 and accuracy                                       *)

let table3_stats = ref None

let get_table3_stats () =
  match !table3_stats with
  | Some s -> s
  | None ->
      let t = Harness.Pipeline.prepare (campaign_cfg Kernel.Config.v5_12_rc3) in
      let stats = Harness.Pipeline.run_campaign t ~budget:150 in
      table3_stats := Some (t, stats);
      (t, stats)

let table3 () =
  section "E2 (Table 3): testing results per concurrent-test generation method (5.12-rc3)";
  let t, stats = get_table3_stats () in
  Harness.Report.pmc_summary t;
  Harness.Report.table3 stats;
  pf "paper shape: S-INS / S-INS-PAIR find the most issues; S-FULL is unfocused@.";
  pf "             and finds only the ubiquitous benign race #13-class issues;@.";
  pf "             uncommon-first S-INS-PAIR beats Random S-INS-PAIR on issues found.@."

let accuracy () =
  section "E3 (section 5.3.2): PMC identification accuracy";
  let _, stats = get_table3_stats () in
  Harness.Report.accuracy stats

(* ------------------------------------------------------------------ *)
(* E5: interleavings to expose, Snowboard vs SKI                       *)

let expose () =
  section "E5 (section 5.4): interleavings needed to expose each 5.3.10 bug";
  pf "paper: SKI needs 84x more interleavings on average (826.29 vs 9.76 per test)@.@.";
  let env = Sched.Exec.make_env Kernel.Config.v5_3_10 in
  let issues_5_3_10 = [ 1; 2; 3; 4; 5; 6; 7; 8; 9; 10 ] in
  pf "%-6s %14s %14s %14s@." "issue" "snowboard" "ski" "pct/3";
  pf "%s@." (String.make 55 '-');
  let totals = ref (0., 0., 0.) in
  let counted = ref 0 in
  List.iter
    (fun issue ->
      match Harness.Scenarios.find issue with
      | None -> ()
      | Some s ->
          let run kind cap =
            (* average over several seeds; count trials until the target
               issue fires; censored at the cap if it never does *)
            let seeds = [ 11; 23; 37; 41 ] in
            let censored = ref false in
            let total =
              List.fold_left
                (fun acc seed ->
                  let a =
                    Harness.Scenarios.reproduce env s ~kind ~trials:cap ~seed ()
                  in
                  acc
                  + (match a.Harness.Scenarios.trials_to_expose with
                    | Some n -> n
                    | None ->
                        censored := true;
                        cap * a.Harness.Scenarios.hints_tried))
                0 seeds
            in
            (float_of_int total /. float_of_int (List.length seeds), !censored)
          in
          let sb, sb_c = run Sched.Explore.Snowboard 64 in
          let ski, ski_c = run Sched.Explore.Ski 512 in
          let pct, pct_c = run (Sched.Explore.Pct 3) 512 in
          let s0, s1, s2 = !totals in
          totals := (s0 +. sb, s1 +. ski, s2 +. pct);
          incr counted;
          let mark c = if c then ">=" else "  " in
          pf "#%-5d %12s%.1f %12s%.1f %12s%.1f@." issue (mark sb_c) sb
            (mark ski_c) ski (mark pct_c) pct)
    issues_5_3_10;
  let s0, s1, s2 = !totals in
  let n = float_of_int (max 1 !counted) in
  pf "%s@." (String.make 55 '-');
  pf "%-6s %14.2f %14.2f %14.2f@." "avg" (s0 /. n) (s1 /. n) (s2 /. n);
  pf "ratios vs snowboard: ski %.1fx, pct %.1fx (paper, ski: 84x)@."
    (s1 /. max 1. s0) (s2 /. max 1. s0)

(* ------------------------------------------------------------------ *)
(* E4: execution throughput, Snowboard vs SKI                          *)

let throughput () =
  section "E4 (section 5.4): execution throughput, Snowboard vs SKI";
  pf "paper: 193.8 vs 170.3 executions/minute (1.14x), because SKI yields at@.";
  pf "PMC instructions regardless of the memory target and pays more vCPU switches@.@.";
  let t = Harness.Pipeline.prepare (campaign_cfg Kernel.Config.v5_12_rc3) in
  let rng = Random.State.make [| 99 |] in
  let corpus_ids =
    List.map (fun (e : Fuzzer.Corpus.entry) -> e.Fuzzer.Corpus.id)
      (Fuzzer.Corpus.to_list t.Harness.Pipeline.corpus)
  in
  let plan =
    Core.Select.plan (Core.Select.Random_order Core.Cluster.S_INS_PAIR)
      t.Harness.Pipeline.ident
      ~clusters:(Harness.Frontier.clusters t.Harness.Pipeline.frontier)
      ~corpus_ids rng ~max:120
  in
  let measure kind =
    let t0 = Unix.gettimeofday () in
    let steps = ref 0 and switches = ref 0 and execs = ref 0 in
    List.iter
      (fun (ct : Core.Select.conc_test) ->
        let res =
          Sched.Explore.run t.Harness.Pipeline.env
            ~ident:(Some t.Harness.Pipeline.ident)
            ~writer:(Harness.Pipeline.prog_of_id t ct.Core.Select.writer)
            ~reader:(Harness.Pipeline.prog_of_id t ct.Core.Select.reader)
            ~hint:ct.Core.Select.hint ~kind ~trials:8 ~seed:5 ~stop_on_bug:false ()
        in
        steps := !steps + res.Sched.Explore.total_steps;
        switches := !switches + res.Sched.Explore.total_switches;
        execs := !execs + List.length res.Sched.Explore.trials)
      plan.Core.Select.tests;
    let dt = Unix.gettimeofday () -. t0 in
    (!execs, !steps, !switches, dt)
  in
  let measures =
    List.map
      (fun (name, kind) -> (name, measure kind))
      [
        ("snowboard", Sched.Explore.Snowboard);
        ("ski", Sched.Explore.Ski);
        ("naive/4", Sched.Explore.Naive 4);
        ("naive/32", Sched.Explore.Naive 32);
        ("pct/3", Sched.Explore.Pct 3);
      ]
  in
  let e_sb, st_sb, sw_sb, _ = List.assoc "snowboard" measures in
  let e_ski, st_ski, sw_ski, _ = List.assoc "ski" measures in
  (* In the paper's QEMU-based framework every vCPU switch costs host
     time; in this simulator a switch is a pointer update, so we model
     guest time as [steps + switch_cost * switches] (substitution
     documented in DESIGN.md) and also report raw wall clock. *)
  let switch_cost = 100 in
  pf "%-10s %8s %11s %10s %13s %16s %18s@." "scheduler" "execs" "steps"
    "switches" "wall e/min" "switches/exec" "modeled e/min";
  pf "%s@." (String.make 92 '-');
  let row name (e, st, sw, dt) =
    let modeled_time = float_of_int (st + (switch_cost * sw)) in
    pf "%-10s %8d %11d %10d %13.0f %16.1f %18.0f@." name e st sw
      (float_of_int e /. dt *. 60.)
      (float_of_int sw /. float_of_int (max 1 e))
      (float_of_int e /. modeled_time *. 1e6)
  in
  List.iter (fun (name, m) -> row name m) measures;
  let m_sb = float_of_int e_sb /. float_of_int (st_sb + (switch_cost * sw_sb)) in
  let m_ski = float_of_int e_ski /. float_of_int (st_ski + (switch_cost * sw_ski)) in
  pf "@.switch ratio (ski/snowboard): %.2fx; modeled throughput ratio %.2fx (paper: 1.14x).@."
    (float_of_int sw_ski /. float_of_int (max 1 sw_sb))
    (m_sb /. m_ski);
  pf "Note: in our mini-kernel the PMC instructions are mostly cold, so SKI's@.";
  pf "target-insensitive triggers fire rarely, while Algorithm 2's incidental-PMC@.";
  pf "growth gives Snowboard extra productive switch points; see EXPERIMENTS.md@.";
  pf "for why the paper's switch asymmetry does not fully emerge at this scale.@."

(* ------------------------------------------------------------------ *)
(* E6: pipeline-stage micro-benchmarks (bechamel)                      *)

let perf () =
  section "E6 (section 5.4): pipeline-stage performance";
  pf "paper: profiling 129,876 tests ~ 40h; clustering w/o S-FULL < 5h;@.";
  pf "       test generation > 1000 tests/s, far above execution throughput@.@.";
  let env = Sched.Exec.make_env Kernel.Config.v5_12_rc3 in
  let rng = Random.State.make [| 3 |] in
  let progs = List.init 32 (fun _ -> Fuzzer.Gen.generate rng) in
  let profiles =
    List.mapi
      (fun i p ->
        Core.Profile.of_shared ~test_id:i
          (Sched.Exec.run_seq ~accesses:true env ~tid:0 p).Sched.Exec.sq_accesses)
      progs
  in
  let ident = Core.Identify.run profiles in
  let corpus_ids = List.init 32 Fun.id in
  let ins_pair = Core.Cluster.run Core.Cluster.S_INS_PAIR ident in
  let open Bechamel in
  let tests =
    [
      Test.make ~name:"profile-one-test"
        (Staged.stage (fun () ->
             let p = List.hd progs in
             let r = Sched.Exec.run_seq ~accesses:true env ~tid:0 p in
             Core.Profile.of_shared ~test_id:0 r.Sched.Exec.sq_accesses));
      Test.make ~name:"identify-32-tests"
        (Staged.stage (fun () -> Core.Identify.run profiles));
      Test.make ~name:"cluster-S-INS-PAIR"
        (Staged.stage (fun () -> Core.Cluster.run Core.Cluster.S_INS_PAIR ident));
      Test.make ~name:"cluster-S-FULL"
        (Staged.stage (fun () -> Core.Cluster.run Core.Cluster.S_FULL ident));
      (* selection alone, over the prebuilt table a campaign's frontier
         holds; the two tests above time the clustering *)
      Test.make ~name:"generate-concurrent-tests"
        (Staged.stage (fun () ->
             let rng = Random.State.make [| 1 |] in
             Core.Select.plan (Core.Select.Strategy Core.Cluster.S_INS_PAIR) ident
               ~clusters:(fun _ -> ins_pair) ~corpus_ids rng ~max:100));
      Test.make ~name:"one-concurrent-trial"
        (Staged.stage (fun () ->
             let rng = Random.State.make [| 1 |] in
             let st = Sched.Policies.snowboard_state None in
             Sched.Exec.run_conc env ~writer:(List.hd progs)
               ~reader:(List.nth progs 1)
               ~policy:(Sched.Policies.snowboard rng st)
               ()));
      Test.make ~name:"fuzz-generate-program"
        (Staged.stage (fun () -> Fuzzer.Gen.generate rng));
    ]
  in
  let benchmark test =
    let instances = [ Toolkit.Instance.monotonic_clock ] in
    let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) ~kde:(Some 10) () in
    Benchmark.all cfg instances test
  in
  let analyze results =
    Analyze.all (Analyze.ols ~bootstrap:0 ~r_square:false
                   ~predictors:[| Measure.run |])
      (Toolkit.Instance.monotonic_clock) results
  in
  List.iter
    (fun test ->
      let results = benchmark (Test.make_grouped ~name:"g" [ test ]) in
      let a = analyze results in
      Hashtbl.iter
        (fun name result ->
          match Bechamel.Analyze.OLS.estimates result with
          | Some [ est ] ->
              pf "%-32s %12.0f ns/run@." name est
          | _ -> pf "%-32s (no estimate)@." name)
        a)
    tests

(* ------------------------------------------------------------------ *)
(* E7: case studies (Figures 1, 3, 4)                                  *)

let case issue ~figure ~blurb =
  pf "@.--- %s: issue #%d ---@.%s@." figure issue blurb;
  let env = Sched.Exec.make_env Kernel.Config.all_buggy in
  match Harness.Scenarios.find issue with
  | None -> pf "scenario missing@."
  | Some s ->
      pf "writer: %s@." (Fuzzer.Prog.to_string s.Harness.Scenarios.writer);
      pf "reader: %s@." (Fuzzer.Prog.to_string s.Harness.Scenarios.reader);
      let a =
        Harness.Scenarios.reproduce env s ~kind:Sched.Explore.Snowboard
          ~trials:64 ~seed:997 ()
      in
      match a.Harness.Scenarios.trials_to_expose with
      | Some n ->
          pf "reproduced after %d trials (hints tried: %d)@." n
            a.Harness.Scenarios.hints_tried
      | None -> pf "not reproduced@."

let cases () =
  section "E7 (Figures 1, 3, 4): case-study reproduction";
  case 12 ~figure:"Figure 1"
    ~blurb:
      "l2tp order violation: the tunnel is published on the RCU list before\n\
       tunnel->sock is initialised; the reader connects to the half-built\n\
       tunnel and l2tp_xmit_core dereferences the NULL socket.";
  case 9 ~figure:"Figure 3"
    ~blurb:
      "MAC data race: eth_commit_mac_addr_change (rtnl_lock) vs\n\
       dev_ifsioc_locked (rcu_read_lock) - both locked, different locks; the\n\
       reader can copy a partially updated MAC address.";
  case 1 ~figure:"Figure 4"
    ~blurb:
      "rhashtable double fetch: -O2 emits two fetches of the tagged bucket\n\
       pointer; IPC_RMID zeroing the bucket between them sends the reader\n\
       through a NULL object pointer (page fault in the key memcmp)."

(* ------------------------------------------------------------------ *)
(* E8: section 6 extension - three threads and PMC chains              *)

let extension () =
  section "E8 (section 6 extension): three testing threads via PMC chains";
  let env = Sched.Exec.make_env Kernel.Config.all_buggy in
  let progs = Harness.Scenarios.relay in
  let h = Harness.Scenarios.hunt_relay env ~seed:100 in
  pf "%d pairwise PMCs; %d chains join producer -> forwarder -> consumer@."
    h.Harness.Scenarios.pmcs h.Harness.Scenarios.chains;
  let safe =
    List.for_all
      (fun (w, r) ->
        Sched.Explore.issues_found
          (Sched.Explore.run env ~ident:None ~writer:w ~reader:r ~hint:None
             ~kind:(Sched.Explore.Naive 2) ~trials:100 ~seed:3 ~stop_on_bug:true ())
        = [])
      [
        (progs.(0), progs.(1)); (progs.(0), progs.(2)); (progs.(1), progs.(2));
      ]
  in
  pf "all two-thread combinations crash-free (100 dense trials each): %b@." safe;
  (match h.Harness.Scenarios.crash with
  | Some (chain, res) ->
      pf "@.three threads + chain hints crash the kernel on trial %d:@."
        (Option.get res.Sched.Explore.first_bug);
      pf "  %a@." Core.Chain.pp chain;
      List.iter
        (fun f -> pf "  %a@." Detectors.Oracle.pp_kind f.Detectors.Oracle.kind)
        (Sched.Explore.findings_found res)
  | None -> pf "not reproduced with these seeds@.");
  pf "@.The bug needs all three threads inside the producer's window -@.";
  pf "evidence for the paper's conjecture that PMCs generalise to@.";
  pf "higher-dimensional input spaces as chains.@."

(* ------------------------------------------------------------------ *)
(* E9: feedback-based exploration (section 4.4's future work)          *)

let feedback () =
  section "E9 (section 4.4 future work): feedback-based concurrent exploration";
  pf "fitness signal: communication coverage - distinct (write pc, read pc)@.";
  pf "pairs observed to communicate across threads; coverage-novel pairs breed@.";
  pf "mutated offspring with freshly identified PMC hints.@.@.";
  let t = Harness.Pipeline.prepare (campaign_cfg Kernel.Config.v5_12_rc3) in
  let budget = 150 in
  let fb = Harness.Feedback.run t ~budget ~trials:12 ~seed:5 in
  let plain =
    Harness.Pipeline.run_method t (Core.Select.Strategy Core.Cluster.S_INS_PAIR)
      ~budget
  in
  pf "%-26s %10s %14s  %s@." "method" "tests" "comm pairs" "issues (test index)";
  pf "%s@." (String.make 90 '-');
  let show_issues l =
    String.concat ", " (List.map (fun (i, a) -> Printf.sprintf "#%d (%d)" i a) l)
  in
  pf "%-26s %10d %14d  %s@." "feedback loop" fb.Harness.Feedback.executed
    fb.Harness.Feedback.comm_coverage
    (show_issues fb.Harness.Feedback.issues);
  pf "%-26s %10d %14s  %s@." "S-INS-PAIR (no feedback)"
    plain.Harness.Pipeline.executed "-"
    (show_issues plain.Harness.Pipeline.issues);
  let curve = fb.Harness.Feedback.coverage_curve in
  let at i = if i < List.length curve then List.nth curve i else 0 in
  pf "@.coverage curve (pairs after N tests): 10:%d 25:%d 50:%d 100:%d end:%d@."
    (at 9) (at 24) (at 49) (at 99)
    (at (List.length curve - 1))

(* ------------------------------------------------------------------ *)
(* Ablations (DESIGN.md)                                               *)

let ablations () =
  section "A1-A3: design-choice ablations";
  (* A1: value-projection filter off -> PMC blowup *)
  let env = Sched.Exec.make_env Kernel.Config.v5_12_rc3 in
  let rng = Random.State.make [| 3 |] in
  let progs = List.init 48 (fun _ -> Fuzzer.Gen.generate rng) in
  let profiles =
    List.mapi
      (fun i p ->
        Core.Profile.of_shared ~test_id:i
          (Sched.Exec.run_seq ~accesses:true env ~tid:0 p).Sched.Exec.sq_accesses)
      progs
  in
  let ident = Core.Identify.run profiles in
  (* count raw overlapping pairs ignoring the value filter *)
  let raw = ref 0 in
  List.iter
    (fun (p1 : Core.Profile.t) ->
      List.iter
        (fun (p2 : Core.Profile.t) ->
          Array.iter
            (fun (e1 : Core.Profile.entry) ->
              if e1.Core.Profile.access.Vmm.Trace.kind = Vmm.Trace.Write then
                Array.iter
                  (fun (e2 : Core.Profile.entry) ->
                    if
                      e2.Core.Profile.access.Vmm.Trace.kind = Vmm.Trace.Read
                      && Vmm.Trace.overlaps e1.Core.Profile.access
                           e2.Core.Profile.access
                    then incr raw)
                  p2.Core.Profile.entries)
            p1.Core.Profile.entries)
        profiles)
    profiles;
  pf "A1 value-projection filter: %d PMCs with filter; %d raw overlapping pairs without@."
    (Core.Identify.num_pmcs ident) !raw;
  (* A2: stack filter: how many accesses it prunes (the oracle runner
     returns every access; [run_seq] keeps only the survivors) *)
  let total = ref 0 and shared = ref 0 in
  List.iter
    (fun p ->
      let r = Sched.Exec.run_seq_step env ~tid:0 p in
      List.iter
        (fun a ->
          incr total;
          if Vmm.Trace.is_shared a then incr shared)
        r.Sched.Exec.sq_accesses)
    progs;
  pf "A2 ESP stack filter: %d/%d accesses survive (%.0f%% pruned)@." !shared !total
    (100. *. float_of_int (!total - !shared) /. float_of_int (max 1 !total));
  (* A3: uncommon-first vs random order is Table 3's S-INS-PAIR vs Random
     S-INS-PAIR; pointer to E2 *)
  pf "A3 uncommon-first ordering: see E2 rows 'S-INS-PAIR' vs 'Random S-INS-PAIR'@.";
  (* A5: CHESS-style bounded exhaustive enumeration as the systematic
     alternative to Snowboard's PMC-guided sampling *)
  (let envb = Sched.Exec.make_env Kernel.Config.all_buggy in
   let s = Option.get (Harness.Scenarios.find 16) in
   let r =
     Sched.Enumerate.run envb ~writer:s.Harness.Scenarios.writer
       ~reader:s.Harness.Scenarios.reader ~preemption_bound:1
       ~max_executions:50_000 ~stop_on_bug:false ()
   in
   pf "@.A5 bounded exhaustive enumeration (CHESS-style), scenario #16:@.";
   pf "  buggy kernel, bound 1: %d executions cover the space; issues [%s]@."
     r.Sched.Enumerate.executions
     (String.concat ";" (List.map string_of_int r.Sched.Enumerate.issues));
   let envf = Sched.Exec.make_env Kernel.Config.all_fixed in
   let rf =
     Sched.Enumerate.run envf ~writer:s.Harness.Scenarios.writer
       ~reader:s.Harness.Scenarios.reader ~preemption_bound:2
       ~max_executions:100_000 ()
   in
   pf "  fixed kernel, bound 2: %d executions, zero findings - exhaustively@."
     rf.Sched.Enumerate.executions;
   pf "  verified within the bound.  Snowboard needs ~1-30 PMC-guided trials@.";
   pf "  for the same bugs: the hints replace an exhaustive space with a@.";
   pf "  handful of targeted schedules.@.");
  (* A4: blind-scheduler preemption density - how many interleavings a
     hint-free random scheduler needs per 5.3.10 bug, by density.  This
     quantifies what the PMC hint buys: Snowboard averages ~4 trials on
     the same scenarios (see E5) at ~9 switches/execution. *)
  pf "@.A4 blind-scheduler preemption density (avg trials to expose, 5.3.10 scenarios):@.";
  let env53 = Sched.Exec.make_env Kernel.Config.v5_3_10 in
  List.iter
    (fun period ->
      let total = ref 0. in
      let switches = ref 0 and execs = ref 0 in
      List.iter
        (fun issue ->
          match Harness.Scenarios.find issue with
          | None -> ()
          | Some s ->
              List.iter
                (fun seed ->
                  let a =
                    Harness.Scenarios.reproduce env53 s
                      ~kind:(Sched.Explore.Naive period) ~trials:512 ~seed ()
                  in
                  total :=
                    !total
                    +. float_of_int
                         (match a.Harness.Scenarios.trials_to_expose with
                         | Some n -> n
                         | None -> 512 * a.Harness.Scenarios.hints_tried))
                [ 11; 23 ])
        [ 1; 2; 3; 4; 5; 6; 7; 8; 9; 10 ];
      (match Harness.Scenarios.find 2 with
      | Some s ->
          let r =
            Sched.Explore.run env53 ~ident:None ~writer:s.Harness.Scenarios.writer
              ~reader:s.Harness.Scenarios.reader ~hint:None
              ~kind:(Sched.Explore.Naive period) ~trials:32 ~seed:7
              ~stop_on_bug:false ()
          in
          switches := r.Sched.Explore.total_switches;
          execs := List.length r.Sched.Explore.trials
      | None -> ());
      pf "  preempt 1/%-3d: %7.1f trials/bug, %5.1f switches/execution@." period
        (!total /. 20.)
        (float_of_int !switches /. float_of_int (max 1 !execs)))
    [ 4; 16; 64 ]

(* ------------------------------------------------------------------ *)
(* E10: machine-readable run artifact                                   *)

(* A small fixed-seed campaign exported through the deterministic JSON
   mode (wall-clock metrics and span durations omitted), so the artifact
   is a pure function of the seed and diffs cleanly across commits. *)
let artifact () =
  section "E10: deterministic pipeline artifact (BENCH_pipeline.json)";
  Obs.Metrics.reset ();
  Obs.Span.reset ();
  let cfg =
    {
      (campaign_cfg Kernel.Config.v5_12_rc3) with
      Harness.Pipeline.fuzz_iters = 200;
      trials_per_test = 8;
    }
  in
  let t = Harness.Pipeline.prepare cfg in
  let stats = Harness.Pipeline.run_campaign t ~budget:40 in
  let found = [ ("campaign", Harness.Pipeline.issues_union stats) ] in
  let summary = Harness.Report.json_summary ~pipeline:t ~stats ~found () in
  let json =
    Obs.Export.registry_json ~deterministic:true
      ~extra:[ ("summary", summary) ] ()
  in
  write_json "BENCH_pipeline.json" json;
  pf "issues found in the scaled-down campaign: [%s]@."
    (String.concat ", "
       (List.map string_of_int (Harness.Pipeline.issues_union stats)))

(* ------------------------------------------------------------------ *)
(* E11: flight-recorder overhead and trace artifact                     *)

(* The recorder must be cheap enough to leave on during exploration:
   measure the same fixed workload with the ring disabled and enabled,
   then export one deterministic bug replay as BENCH_trace.json
   (Chrome trace-event format, Perfetto-viewable). *)
let tracing () =
  section "E11: flight-recorder overhead + trace artifact (BENCH_trace.json)";
  let env = Sched.Exec.make_env Kernel.Config.all_buggy in
  let s = Option.get (Harness.Scenarios.find 1) in
  let writer = s.Harness.Scenarios.writer
  and reader = s.Harness.Scenarios.reader in
  let run_once seed =
    let rng = Random.State.make [| seed |] in
    ignore
      (Sched.Exec.run_conc env ~writer ~reader
         ~policy:(Sched.Policies.naive rng ~period:4) ())
  in
  let reps = 400 in
  (* warm up the snapshot caches so both measurements see the same state *)
  run_once 0;
  Obs.Event.configure ~enabled:false ();
  let (), dt_off = time (fun () -> for i = 1 to reps do run_once i done) in
  Obs.Event.configure ~enabled:true ();
  let (), dt_on = time (fun () -> for i = 1 to reps do run_once i done) in
  let events = Obs.Event.seen () in
  pf "%d executions: %.3fs recorder off, %.3fs recorder on (%.1f%% overhead)@."
    reps dt_off dt_on
    (100. *. (dt_on -. dt_off) /. max 1e-9 dt_off);
  pf "%d events recorded (%.0f events/sec; ring dropped %d)@." events
    (float_of_int events /. max 1e-9 dt_on)
    (Obs.Event.dropped ());
  Obs.Event.configure ~enabled:false ();
  (* artifact: one deterministic replay of the Figure 4 bug, exported as
     a Chrome trace: the trial [Scenarios.reproduce] exposes it with,
     replayed with the ring armed *)
  (match
     (Harness.Scenarios.reproduce env s ~kind:Sched.Explore.Snowboard
        ~trials:64 ~seed:1 ())
       .Harness.Scenarios.exposed
   with
  | None -> pf "bug #1 not reproduced in the hint budget; no trace written@."
  | Some { Sched.Explore.replay = trace; _ } ->
      let _, evs =
        Sched.Explore.replay env ~progs:(Harness.Scenarios.progs s) trace
      in
      let json =
        Obs.Timeline.chrome_json
          ~extra:
            [ ("replay", Obs.Export.String (Sched.Replay.to_string trace)) ]
          evs
      in
      write_json "BENCH_trace.json" json;
      pf "%d events in the trace@." (List.length evs))

(* ------------------------------------------------------------------ *)
(* E12: supervision overhead and fault-injected campaign               *)

(* The supervised runner must cost nothing when nothing fails: time the
   same method budget through [Pipeline.run_method] (supervision on) and
   through a raw [Explore.run] loop over the identical plan and seeds,
   then demonstrate the failure taxonomy with a seeded fault plan and
   export the (deterministic) outcome statistics as
   BENCH_resilience.json. *)
let resilience () =
  section "E12: supervision overhead + fault-injected campaign (BENCH_resilience.json)";
  let cfg =
    {
      (campaign_cfg Kernel.Config.v5_12_rc3) with
      Harness.Pipeline.fuzz_iters = 300;
      trials_per_test = 8;
      seed = 7;
    }
  in
  let t = Harness.Pipeline.prepare cfg in
  let method_ = Core.Select.Strategy Core.Cluster.S_INS in
  let budget = 60 in
  (* raw baseline: the exact plan, kinds and per-test seeds
     [Pipeline.run_one_test] uses, without the supervisor wrapper *)
  let raw () =
    let plan = Harness.Pipeline.plan_method t method_ ~budget in
    List.iteri
      (fun i (ct : Core.Select.conc_test) ->
        let kind =
          if ct.Core.Select.hint <> None then Sched.Explore.Snowboard
          else Sched.Explore.Naive 8
        in
        ignore
          (Sched.Explore.run t.Harness.Pipeline.env
             ~ident:(Some t.Harness.Pipeline.ident)
             ~writer:(Harness.Pipeline.prog_of_id t ct.Core.Select.writer)
             ~reader:(Harness.Pipeline.prog_of_id t ct.Core.Select.reader)
             ~hint:ct.Core.Select.hint ~kind ~trials:cfg.Harness.Pipeline.trials_per_test
             ~seed:(cfg.Harness.Pipeline.seed + (1000 * (i + 1)))
             ~stop_on_bug:false ()))
      plan.Core.Select.tests
  in
  (* warm the snapshot caches before timing either side *)
  let warm = Harness.Pipeline.run_method t method_ ~budget:5 in
  ignore warm;
  let (), dt_raw = time raw in
  let healthy, dt_sup = time (fun () -> Harness.Pipeline.run_method t method_ ~budget) in
  pf "%d tests x %d trials: raw %.3fs, supervised %.3fs (%.1f%% overhead)@."
    healthy.Harness.Pipeline.executed cfg.Harness.Pipeline.trials_per_test dt_raw
    dt_sup
    (100. *. (dt_sup -. dt_raw) /. max 1e-9 dt_raw);
  let oc = healthy.Harness.Pipeline.outcomes in
  pf "healthy campaign outcomes: %d ok / %d timeout / %d crashed / %d quarantined@."
    oc.Harness.Pipeline.oc_ok oc.Harness.Pipeline.oc_timed_out
    oc.Harness.Pipeline.oc_crashed oc.Harness.Pipeline.oc_quarantined;
  (* fault-injected run: the same campaign under a seeded fault plan *)
  let spec =
    match Sched.Fault.of_string "timeout:0.1,crash:0.08,truncate:0.05" with
    | Ok s -> s
    | Error msg -> failwith msg
  in
  let faults = Sched.Fault.plan ~seed:cfg.Harness.Pipeline.seed spec in
  let faulty = Harness.Pipeline.run_method ~faults t method_ ~budget in
  let again = Harness.Pipeline.run_method ~faults t method_ ~budget in
  let summary s =
    Obs.Export.to_string
      (Harness.Report.json_summary ~stats:[ s ]
         ~found:[ ("campaign", Harness.Pipeline.issues_union [ s ]) ]
         ())
  in
  let deterministic = summary faulty = summary again in
  let fc = faulty.Harness.Pipeline.outcomes in
  pf "fault-injected (%s): %d ok / %d timeout / %d crashed / %d quarantined, %d retries@."
    (Sched.Fault.to_string spec) fc.Harness.Pipeline.oc_ok
    fc.Harness.Pipeline.oc_timed_out fc.Harness.Pipeline.oc_crashed
    fc.Harness.Pipeline.oc_quarantined fc.Harness.Pipeline.oc_retries;
  Harness.Report.resilience [ faulty ];
  pf "identical fault plan twice -> byte-identical summary: %b@." deterministic;
  (* artifact: deterministic fields only (no wall-clock), so the file is
     a pure function of the seed and diffs cleanly across commits *)
  let json =
    Obs.Export.Obj
      [
        ("experiment", Obs.Export.String "resilience");
        ("seed", Obs.Export.Int cfg.Harness.Pipeline.seed);
        ("budget", Obs.Export.Int budget);
        ("fault_spec", Obs.Export.String (Sched.Fault.to_string spec));
        ("deterministic", Obs.Export.Bool deterministic);
        ("healthy_outcomes", Harness.Report.json_of_outcomes oc);
        ("faulty_outcomes", Harness.Report.json_of_outcomes fc);
        ("faulty_degraded", Obs.Export.Bool (Harness.Pipeline.degraded [ faulty ]));
        ( "faulty_issues",
          Obs.Export.List
            (List.map
               (fun i -> Obs.Export.Int i)
               (Harness.Pipeline.issues_union [ faulty ])) );
      ]
  in
  write_json "BENCH_resilience.json" json

(* ------------------------------------------------------------------ *)
(* E13: dirty-page snapshots and the multicore prepare phase           *)

let bench_jobs = ref 4
let bench_deterministic = ref false

(* Quantifies the two prepare-phase optimisations: page-granular dirty
   tracking (restore copies the pages a short test touched, not the whole
   ~1.3 MB guest image) and domain-parallel corpus profiling.  In
   --deterministic mode the wall-clock fields are omitted so the artifact
   is a pure function of the seed and diffs cleanly across commits. *)
let prepare_bench () =
  section "E13: dirty-page snapshots + multicore prepare (BENCH_prepare.json)";
  let jobs = max 1 !bench_jobs in
  let det = !bench_deterministic in
  let cfg =
    {
      (campaign_cfg Kernel.Config.v5_12_rc3) with
      Harness.Pipeline.fuzz_iters = 600;
      jobs;
    }
  in
  (* one corpus, built up front, so every measurement profiles the exact
     same work *)
  let env = Sched.Exec.make_env cfg.Harness.Pipeline.kernel in
  let corpus, _ =
    Harness.Pipeline.fuzz ~seeds:cfg.Harness.Pipeline.seed_corpus env
      ~seed:cfg.Harness.Pipeline.seed ~iters:cfg.Harness.Pipeline.fuzz_iters
  in
  pf "corpus: %d tests; %d pages of %d bytes per VM@."
    (Fuzzer.Corpus.size corpus) Vmm.Vm.num_pages Vmm.Vm.page_size;
  (* 1. restore cost: run the corpus with a full-image blit before
     every test ([Vm.restore_full], after which the run's own restore
     finds no dirty page) and with the dirty-page restore alone.  The
     full leg restores twice per test, so [pages_total] (one restore's
     worth of pages per test) comes from the dirty leg. *)
  let c_restored = Obs.Metrics.counter "snowboard.vmm/pages_restored" in
  let c_total = Obs.Metrics.counter "snowboard.vmm/pages_total" in
  let vm = env.Sched.Exec.vm and snap = env.Sched.Exec.snap in
  let run_corpus ~full () =
    List.iter
      (fun (e : Fuzzer.Corpus.entry) ->
        if full then Vmm.Vm.restore_full vm snap;
        ignore (Sched.Exec.run_seq env ~tid:0 e.Fuzzer.Corpus.prog))
      (Fuzzer.Corpus.to_list corpus)
  in
  let restore_leg ~full =
    let r0 = Obs.Metrics.counter_value c_restored in
    let t0 = Obs.Metrics.counter_value c_total in
    let (), dt = time (run_corpus ~full) in
    ( dt,
      Obs.Metrics.counter_value c_restored - r0,
      Obs.Metrics.counter_value c_total - t0 )
  in
  (* warm-up pass so both timed passes start from identical cache state *)
  run_corpus ~full:false ();
  let dt_full, full_restored, _ = restore_leg ~full:true in
  let dt_dirty, dirty_restored, dirty_total = restore_leg ~full:false in
  pf "restore cost over the corpus:@.";
  pf "  full-blit restores:   %7d/%d pages copied, %.3fs@." full_restored
    dirty_total dt_full;
  pf "  dirty-page restores:  %7d/%d pages copied, %.3fs (%.1fx fewer pages, %.2fx faster)@."
    dirty_restored dirty_total dt_dirty
    (float_of_int full_restored /. float_of_int (max 1 dirty_restored))
    (dt_full /. max 1e-9 dt_dirty);
  (* 2. profiling wall-clock, sequential vs [jobs] worker domains; the
     merged profile lists must be identical (corpus-id merge order) *)
  let (seq_profiles, _), dt_seq =
    time (fun () -> Harness.Pipeline.profile_corpus env corpus)
  in
  let (par_profiles, _), dt_par =
    time (fun () -> Harness.Pipeline.profile_corpus ~jobs env corpus)
  in
  let identical = seq_profiles = par_profiles in
  pf "profiling: sequential %.3fs, %d jobs %.3fs (%.2fx); identical profiles: %b@."
    dt_seq jobs dt_par (dt_seq /. max 1e-9 dt_par) identical;
  (* 3. end-to-end prepare (fuzz + profile + identify), jobs=1 vs jobs=N *)
  let _, dt_prep_seq =
    time (fun () ->
        Harness.Pipeline.prepare { cfg with Harness.Pipeline.jobs = 1 })
  in
  let _, dt_prep_par =
    time (fun () -> Harness.Pipeline.prepare cfg)
  in
  pf "end-to-end prepare: jobs=1 %.3fs, jobs=%d %.3fs (%.2fx)@." dt_prep_seq
    jobs dt_prep_par
    (dt_prep_seq /. max 1e-9 dt_prep_par);
  let open Obs.Export in
  let json =
    Obj
      ([
         ("experiment", String "prepare");
         ("jobs", Int jobs);
         ("deterministic", Bool det);
         ("corpus_tests", Int (Fuzzer.Corpus.size corpus));
         ("page_size", Int Vmm.Vm.page_size);
         ("pages_per_vm", Int Vmm.Vm.num_pages);
         ("pages_restored_full", Int full_restored);
         ("pages_restored_dirty", Int dirty_restored);
         ("pages_total", Int dirty_total);
         ( "page_copy_ratio",
           Float
             (float_of_int dirty_restored /. float_of_int (max 1 full_restored))
         );
         ("parallel_profiles_identical", Bool identical);
       ]
      @
      if det then []
      else
        [
          ("profile_full_restore_s", Float dt_full);
          ("profile_dirty_restore_s", Float dt_dirty);
          ("profile_seq_s", Float dt_seq);
          ("profile_par_s", Float dt_par);
          ("profile_speedup", Float (dt_seq /. max 1e-9 dt_par));
          ("prepare_seq_s", Float dt_prep_seq);
          ("prepare_par_s", Float dt_prep_par);
          ("prepare_speedup", Float (dt_prep_seq /. max 1e-9 dt_prep_par));
        ])
  in
  write_json "BENCH_prepare.json" json

(* ------------------------------------------------------------------ *)
(* E14: zero-allocation execution core                                 *)

(* Quantifies the execution core: the list-returning [Vm.step] loop (the
   oracle) vs threaded-code block execution (no per-step allocation,
   plain instructions retired in a tight loop, fused pairs).  Also
   re-proves observational equivalence over the whole corpus and
   concurrent determinism, so the speedup numbers are only ever
   reported for a semantics-preserving interpreter. *)
let exec_bench () =
  section "E14: zero-allocation execution core (BENCH_exec.json)";
  let det = !bench_deterministic in
  let cfg =
    {
      (campaign_cfg Kernel.Config.v5_12_rc3) with
      Harness.Pipeline.fuzz_iters = 400;
    }
  in
  let env = Sched.Exec.make_env cfg.Harness.Pipeline.kernel in
  let corpus, _ =
    Harness.Pipeline.fuzz ~seeds:cfg.Harness.Pipeline.seed_corpus env
      ~seed:cfg.Harness.Pipeline.seed ~iters:cfg.Harness.Pipeline.fuzz_iters
  in
  let progs =
    List.map (fun e -> e.Fuzzer.Corpus.prog) (Fuzzer.Corpus.to_list corpus)
  in
  pf "corpus: %d tests@." (List.length progs);
  (* 1. observational equivalence: every corpus test through [run_seq]
     (threaded code, shared accesses only) and [run_seq_step] (the
     Vm.step oracle, every access) must produce identical results once
     the oracle's accesses are filtered, and identical final VM
     fingerprints; the fast profile builder on [run_seq] must reproduce
     the oracle builder on [run_seq_step] *)
  let seq_equivalent = ref true and profiles_identical = ref true in
  List.iteri
    (fun i p ->
      let r_step = Sched.Exec.run_seq_step env ~tid:0 p in
      let fp_step = Vmm.Vm.fingerprint env.Sched.Exec.vm in
      let r = Sched.Exec.run_seq ~accesses:true env ~tid:0 p in
      let fp = Vmm.Vm.fingerprint env.Sched.Exec.vm in
      let filtered =
        {
          r_step with
          Sched.Exec.sq_accesses =
            List.filter Vmm.Trace.is_shared r_step.Sched.Exec.sq_accesses;
        }
      in
      if not (filtered = r && fp_step = fp) then seq_equivalent := false;
      if
        Core.Profile.of_accesses ~test_id:i r_step.Sched.Exec.sq_accesses
        <> Core.Profile.of_shared ~test_id:i r.Sched.Exec.sq_accesses
      then profiles_identical := false)
    progs;
  pf "threaded-code run_seq identical to the filtered Vm.step oracle over the corpus: %b@."
    !seq_equivalent;
  pf "run_seq + fast profile builder match the oracle pair: %b@."
    !profiles_identical;
  (* 2. sequential throughput, both interpreters over the identical
     workload.  The corpus is small, so each path runs many
     repetitions to get the measurement out of timer-noise territory. *)
  let reps = 30 in
  (* [run_seq] without its optional collector, to pass as a value: as
     fuzzing runs it (no access records) and as profiling does *)
  let run_seq env ~tid p = Sched.Exec.run_seq env ~tid p in
  let run_seq_records env ~tid p = Sched.Exec.run_seq ~accesses:true env ~tid p in
  let run_corpus f =
    let steps = ref 0 in
    for _ = 1 to reps do
      List.iter
        (fun p -> steps := !steps + (f env ~tid:0 p).Sched.Exec.sq_steps)
        progs
    done;
    !steps
  in
  ignore (run_corpus Sched.Exec.run_seq_step) (* warm-up *);
  let steps_step, dt_step = time (fun () -> run_corpus Sched.Exec.run_seq_step) in
  let steps_threaded, dt_threaded =
    time (fun () -> run_corpus run_seq)
  in
  let rate steps dt = float_of_int steps /. max 1e-9 dt in
  Sched.Exec.note_throughput ~steps:steps_threaded ~seconds:dt_threaded;
  let threaded_speedup = dt_step /. max 1e-9 dt_threaded in
  pf "sequential runs (%d instructions x %d reps):@." (steps_step / reps)
    reps;
  pf "  Vm.step lists:        %.3fs  %10.0f instr/s@." dt_step
    (rate steps_step dt_step);
  pf "  threaded code:        %.3fs  %10.0f instr/s (%.2fx)@." dt_threaded
    (rate steps_threaded dt_threaded)
    threaded_speedup;
  pf "threaded code: %d ops, %d fused pairs@."
    (Vmm.Tcode.length env.Sched.Exec.tcode)
    (Vmm.Tcode.fused_pairs env.Sched.Exec.tcode);
  (* mean instructions per block, from the registry histogram; a
     sequential block runs on past calls, returns and lock and RCU
     hypercalls to the next return to user space, console line, pause,
     halt, panic or fault *)
  let block_len_mean =
    match
      List.find_opt
        (fun (s : Obs.Metrics.sample) ->
          s.Obs.Metrics.name = "snowboard.sched/block_len")
        (Obs.Metrics.dump ())
    with
    | Some { Obs.Metrics.value = Obs.Metrics.Sample_hist h; _ }
      when h.Obs.Metrics.count > 0 ->
        float_of_int h.Obs.Metrics.sum /. float_of_int h.Obs.Metrics.count
    | _ -> 0.
  in
  pf "mean block length: %.1f instructions@." block_len_mean;
  (* 2b. the headline number: the whole profiling phase (execute the test,
     build its communication profile) legacy vs fast path, in
     guest-instructions retired per wall second *)
  let profile_corpus run build =
    let steps = ref 0 in
    for _ = 1 to reps do
      List.iteri
        (fun i p ->
          let r = run env ~tid:0 p in
          steps := !steps + r.Sched.Exec.sq_steps;
          ignore (build ~test_id:i r.Sched.Exec.sq_accesses))
        progs
    done;
    !steps
  in
  ignore (profile_corpus Sched.Exec.run_seq_step Core.Profile.of_accesses)
  (* warm-up *);
  let steps_pleg, dt_pleg =
    time (fun () ->
        profile_corpus Sched.Exec.run_seq_step Core.Profile.of_accesses)
  in
  let steps_pnew, dt_pnew =
    time (fun () ->
        profile_corpus run_seq_records Core.Profile.of_shared)
  in
  let profiling_speedup = dt_pleg /. max 1e-9 dt_pnew in
  pf "profiling phase (run + profile per test):@.";
  pf "  legacy (run_seq_step + of_accesses): %.3fs  %10.0f instr/s@." dt_pleg
    (rate steps_pleg dt_pleg);
  pf "  fast (run_seq + of_shared):          %.3fs  %10.0f instr/s (%.2fx)@."
    dt_pnew (rate steps_pnew dt_pnew) profiling_speedup;
  (* 2c. interpreter hot loops: synthetic compute kernels running
     millions of instructions in one VM, no snapshot restores in the
     timed region.  The corpus numbers above bundle a snapshot restore
     and syscall setup into every ~200-instruction test, so their ratios
     understate the interpreter's own gain; these are the measurements
     the dispatch rewrite targets, and the ones the speedup gates use.
     Two variants: a *dispatch* loop of plain arithmetic and a branch
     (pure fetch/decode/dispatch cost), and an *event* loop that adds one store and one load per iteration
     (a ~6.5-instruction mean block, matching the corpus' 5.3) for the
     concurrent-cadence legs, where the policy consultation pattern at
     events is the thing under test. *)
  let hot_build ~events =
    let a = Vmm.Asm.create () in
    let cell = Vmm.Asm.global a "hot_cell" 8 in
    let open Vmm.Isa in
    Vmm.Asm.func a "hot_spin" (fun () ->
        Vmm.Asm.emit a (Li (r0, 0));
        Vmm.Asm.emit a (Li (r7, cell));
        Vmm.Asm.label a "hot_loop";
        Vmm.Asm.emit a (Bin (Add, r2, r0, Imm 3));
        Vmm.Asm.emit a (Bin (Xor, r3, r2, Reg r0));
        Vmm.Asm.emit a (Bin (Shl, r4, r3, Imm 1));
        Vmm.Asm.emit a (Mov (r5, r4));
        Vmm.Asm.emit a (Bin (And, r5, r5, Imm 0xffff));
        Vmm.Asm.emit a (Bin (Sub, r6, r5, Imm 1));
        (if events then begin
           Vmm.Asm.emit a
             (Store
                { base = r7; off = 0; src = Reg r6; size = 8; atomic = false });
           Vmm.Asm.emit a
             (Load { dst = r8; base = r7; off = 0; size = 8; atomic = false })
         end
         else begin
           Vmm.Asm.emit a (Bin (Or, r8, r6, Imm 1));
           Vmm.Asm.emit a (Bin (Add, r8, r8, Reg r7))
         end);
        Vmm.Asm.emit a (Bin (Or, r9, r8, Reg r2));
        Vmm.Asm.emit a (Bin (Add, r10, r9, Imm 7));
        Vmm.Asm.emit a (Bin (Mul, r11, r10, Imm 3));
        Vmm.Asm.emit a (Bin (Shr, r11, r11, Imm 2));
        Vmm.Asm.emit a (Bin (Add, r0, r0, Imm 1));
        Vmm.Asm.emit a (Br (Lt, r0, Imm max_int, "hot_loop")));
    let img = Vmm.Asm.link a in
    let vm = Vmm.Vm.create img in
    (vm, Vmm.Tcode.of_image img, Vmm.Asm.entry img "hot_spin")
  in
  let hot_vm_d, hot_tc_d, hot_entry_d = hot_build ~events:false in
  let hot_vm_e, hot_tc_e, hot_entry_e = hot_build ~events:true in
  let hot_sink = Vmm.Vm.make_sink () in
  let hot_target = 4_000_000 in
  let hot_time vm entry f =
    (* best-of-3 (min time): the container's timing jitter swamps a
       single rep, and the minimum is the least-noisy estimator of the
       actual cost *)
    Vmm.Vm.start_call vm 0 entry [];
    f 200_000 (* warm-up *);
    let best = ref infinity in
    for _ = 1 to 3 do
      Vmm.Vm.start_call vm 0 entry [];
      let dt = snd (time (fun () -> f hot_target)) in
      if dt < !best then best := dt
    done;
    !best
  in
  let hot_threaded vm tc target =
    let n = ref 0 in
    while !n < target do
      ignore (Vmm.Vm.run_tblock vm tc ~tid:0 ~quantum:100_000 hot_sink);
      n := !n + hot_sink.Vmm.Vm.sk_steps
    done
  in
  (* the concurrent cadence: per-step runs one instruction per call and
     consults the policy after every one; batched runs threaded blocks
     that stop at every decision point (here each store and load is
     shared) and consults only there — exactly run_multi's two modes *)
  let hot_policy () =
    let rng = Random.State.make [| 11 |] in
    Sched.Policies.snowboard rng (Sched.Policies.snowboard_state None)
  in
  let hot_conc_perstep target =
    let policy = hot_policy () in
    let n = ref 0 in
    while !n < target do
      ignore
        (Vmm.Vm.run_tblock_conc hot_vm_e hot_tc_e ~tid:0 ~quantum:1 hot_sink);
      ignore (policy.Sched.Exec.decide 0 hot_sink);
      incr n
    done
  in
  let hot_conc_batched target =
    let policy = hot_policy () in
    let n = ref 0 in
    while !n < target do
      (match
         Vmm.Vm.run_tblock_conc hot_vm_e hot_tc_e ~tid:0 ~quantum:100_000
           hot_sink
       with
      | Vmm.Vm.Rnone -> ()
      | _ -> ignore (policy.Sched.Exec.decide 0 hot_sink));
      n := !n + hot_sink.Vmm.Vm.sk_steps
    done
  in
  let dt_hot_threaded =
    hot_time hot_vm_d hot_entry_d (hot_threaded hot_vm_d hot_tc_d)
  in
  let dt_hot_ev_threaded =
    hot_time hot_vm_e hot_entry_e (hot_threaded hot_vm_e hot_tc_e)
  in
  (* The speedup gate's two legs (per-step, batched), timed by
     [ab_time]: the gate reads each leg's best pass. *)
  let hot_pass f () =
    Vmm.Vm.start_call hot_vm_e 0 hot_entry_e [];
    snd (time (fun () -> f hot_target))
  in
  let hot = ab_time (hot_pass hot_conc_perstep) (hot_pass hot_conc_batched) in
  let dt_hot_conc_ps = hot.a_best and dt_hot_conc_b = hot.b_best in
  let hot_rate dt = float_of_int hot_target /. max 1e-9 dt in
  let hot_conc_speedup = dt_hot_conc_ps /. max 1e-9 dt_hot_conc_b in
  Sched.Exec.note_throughput ~steps:hot_target ~seconds:dt_hot_threaded;
  pf "dispatch hot loop (%d plain instructions, no restores):@." hot_target;
  pf "  threaded code:        %.3fs  %10.0f instr/s@." dt_hot_threaded
    (hot_rate dt_hot_threaded);
  pf "event hot loop (store+load per 14-instruction iteration):@.";
  pf "  threaded code:        %.3fs  %10.0f instr/s@." dt_hot_ev_threaded
    (hot_rate dt_hot_ev_threaded);
  pf "concurrent cadence on it (policy consultations at events only; best \
      of %d alternating passes):@."
    ab_passes;
  pf "  per-step + decide:    %.3fs  %10.0f instr/s (median %.3fs)@."
    dt_hot_conc_ps (hot_rate dt_hot_conc_ps) hot.a_median;
  pf "  batched + decide:     %.3fs  %10.0f instr/s (%.2fx; median %.3fs)@."
    dt_hot_conc_b (hot_rate dt_hot_conc_b) hot_conc_speedup hot.b_median;
  (* 3. concurrent trials under the snowboard policy, block-batched
     (the production path) vs per-instruction stepping ([event_only]
     forced off).  Same seed twice must reproduce every trial, and the
     two loops must agree on every trial — the batching is semantics-
     preserving, not just faster. *)
  let conc_results ?(batch = true) seed =
    let rng = Random.State.make [| seed |] in
    List.map
      (fun s ->
        let st = Sched.Policies.snowboard_state None in
        let policy = Sched.Policies.snowboard rng st in
        let policy =
          {
            policy with
            Sched.Exec.event_only = policy.Sched.Exec.event_only && batch;
          }
        in
        Sched.Exec.run_conc env ~writer:s.Harness.Scenarios.writer
          ~reader:s.Harness.Scenarios.reader ~policy ())
      Harness.Scenarios.all
  in
  (* what two runs' results must share: every field but the log view,
     whose generation differs between any two runs *)
  let outcome (r : Sched.Exec.conc_result) =
    ( r.Sched.Exec.cc_console,
      r.Sched.Exec.cc_panicked,
      r.Sched.Exec.cc_deadlocked,
      r.Sched.Exec.cc_steps,
      r.Sched.Exec.cc_switches,
      r.Sched.Exec.cc_accesses,
      r.Sched.Exec.cc_retvals )
  in
  let same rs rs' = List.map outcome rs = List.map outcome rs' in
  ignore (conc_results 7) (* warm-up *);
  let rs1, dt_conc = time (fun () -> conc_results 7) in
  let rs2, _ = time (fun () -> conc_results 7) in
  let conc_deterministic = same rs1 rs2 in
  ignore (conc_results ~batch:false 7) (* warm-up *);
  let rs_ps, dt_conc_ps = time (fun () -> conc_results ~batch:false 7) in
  let conc_batch_identical = same rs1 rs_ps in
  let conc_batch_speedup = dt_conc_ps /. max 1e-9 dt_conc in
  (* 3b. the same scenario set, with the guest profiler on and an
     observer recording each shared access with its attributed function:
     batched blocks cross calls and returns, so attribution and
     per-function charges must still equal the per-step loop's.  On an
     env of its own, so the artifact's [events_sunk] still counts the
     runs above. *)
  let aenv = Sched.Exec.make_env cfg.Harness.Pipeline.kernel in
  let attributed ?(batch = true) seed =
    Obs.Profguest.set_enabled true;
    Fun.protect
      ~finally:(fun () -> Obs.Profguest.set_enabled false)
      (fun () ->
        let rng = Random.State.make [| seed |] in
        List.map
          (fun s ->
            let st = Sched.Policies.snowboard_state None in
            let policy = Sched.Policies.snowboard rng st in
            let policy =
              {
                policy with
                Sched.Exec.event_only = policy.Sched.Exec.event_only && batch;
              }
            in
            let seen = ref [] in
            let observer =
              {
                Sched.Exec.default_observer with
                Sched.Exec.on_access = (fun a ~ctx -> seen := (a, ctx) :: !seen);
              }
            in
            let prof = Obs.Profguest.collector () in
            let r =
              Sched.Exec.run_conc aenv ~writer:s.Harness.Scenarios.writer
                ~reader:s.Harness.Scenarios.reader ~policy ~observer ~prof ()
            in
            (outcome r, List.rev !seen, Obs.Profguest.drain prof))
          Harness.Scenarios.all)
  in
  let conc_batch_attribution_identical =
    attributed 7 = attributed ~batch:false 7
  in
  let conc_steps =
    List.fold_left (fun acc r -> acc + r.Sched.Exec.cc_steps) 0 rs1
  in
  pf "concurrent trials: %d scenarios, %d instructions; same seed twice identical: %b@."
    (List.length rs1) conc_steps conc_deterministic;
  pf "  per-step stepping:    %.3fs  %10.0f instr/s@." dt_conc_ps
    (rate conc_steps dt_conc_ps);
  pf "  block-batched:        %.3fs  %10.0f instr/s (%.2fx); identical trials: %b@."
    dt_conc
    (rate conc_steps dt_conc)
    conc_batch_speedup conc_batch_identical;
  pf "  with the profiler and attribution: batched = per-step: %b@."
    conc_batch_attribution_identical;
  let open Obs.Export in
  let json =
    Obj
      ([
         ("experiment", String "exec");
         ("deterministic", Bool det);
         ("corpus_tests", Int (List.length progs));
         ("reps", Int reps);
         ("seq_instructions", Int steps_step);
         ("seq_equivalent", Bool !seq_equivalent);
         ("profiles_identical", Bool !profiles_identical);
         ("block_len_mean", Float block_len_mean);
         ("tcode_ops", Int (Vmm.Tcode.length env.Sched.Exec.tcode));
         ("fused_pairs", Int (Vmm.Tcode.fused_pairs env.Sched.Exec.tcode));
         ("conc_instructions", Int conc_steps);
         ("conc_deterministic", Bool conc_deterministic);
         ("conc_batch_identical", Bool conc_batch_identical);
         ( "conc_batch_attribution_identical",
           Bool conc_batch_attribution_identical );
         ("events_sunk", Int (Vmm.Vm.events_sunk env.Sched.Exec.vm));
       ]
      @
      if det then []
      else
        [
          ("seq_step_s", Float dt_step);
          ("seq_threaded_s", Float dt_threaded);
          ("seq_step_instr_per_s", Float (rate steps_step dt_step));
          ("seq_threaded_instr_per_s", Float (rate steps_threaded dt_threaded));
          ("threaded_speedup", Float threaded_speedup);
          ("hot_threaded_s", Float dt_hot_threaded);
          ("hot_threaded_instr_per_s", Float (hot_rate dt_hot_threaded));
          ("hot_ev_threaded_s", Float dt_hot_ev_threaded);
          ("hot_ev_threaded_instr_per_s", Float (hot_rate dt_hot_ev_threaded));
          ("profiling_legacy_s", Float dt_pleg);
          ("profiling_fast_s", Float dt_pnew);
          ("profiling_legacy_instr_per_s", Float (rate steps_pleg dt_pleg));
          ("profiling_fast_instr_per_s", Float (rate steps_pnew dt_pnew));
          ("profiling_speedup", Float profiling_speedup);
          ("conc_s", Float dt_conc);
          ("conc_perstep_s", Float dt_conc_ps);
          ("conc_instr_per_s", Float (rate conc_steps dt_conc));
          ("conc_perstep_instr_per_s", Float (rate conc_steps dt_conc_ps));
          ("conc_batch_speedup", Float conc_batch_speedup);
          ("hot_conc_perstep_s", Float dt_hot_conc_ps);
          ("hot_conc_batch_s", Float dt_hot_conc_b);
          ("hot_conc_perstep_median_s", Float hot.a_median);
          ("hot_conc_batch_median_s", Float hot.b_median);
          ("hot_conc_perstep_instr_per_s", Float (hot_rate dt_hot_conc_ps));
          ("hot_conc_batch_instr_per_s", Float (hot_rate dt_hot_conc_b));
          ("hot_conc_batch_speedup", Float hot_conc_speedup);
          ("conc_batch_scales", Bool (hot_conc_speedup >= 2.0));
        ])
  in
  write_json "BENCH_exec.json" json

(* ------------------------------------------------------------------ *)
(* E15: live telemetry streaming overhead                              *)

(* Quantifies the telemetry pipeline: profiling the same corpus with the
   NDJSON stream off vs on (deterministic virtual-clock cadence, small
   interval so interval snapshots actually fire).  The overhead number is
   only reported alongside proof the stream is correct: two identical
   passes produce byte-identical files, every line parses back as JSON,
   and the OpenMetrics rendering validates.  Budget: <= 5% overhead on
   the profiling phase. *)
let telemetry_bench () =
  section "E15: live telemetry streaming overhead (BENCH_telemetry.json)";
  let det = !bench_deterministic in
  (* the whole profile phase is ~15k guest instructions; a small interval
     makes the virtual-clock cadence actually fire mid-phase *)
  let interval = 2_000 in
  let cfg =
    {
      (campaign_cfg Kernel.Config.v5_12_rc3) with
      Harness.Pipeline.fuzz_iters = 600;
    }
  in
  let env = Sched.Exec.make_env cfg.Harness.Pipeline.kernel in
  let corpus, _ =
    Harness.Pipeline.fuzz ~seeds:cfg.Harness.Pipeline.seed_corpus env
      ~seed:cfg.Harness.Pipeline.seed ~iters:cfg.Harness.Pipeline.fuzz_iters
  in
  pf "corpus: %d tests@." (Fuzzer.Corpus.size corpus);
  (* warm-up pass so every streamed/timed pass starts from identical
     cache and snapshot state *)
  ignore (Harness.Pipeline.profile_corpus env corpus);
  (* 1. stream correctness: profile the corpus twice under the
     deterministic cadence.  Metrics are reset before each pass so the
     virtual clock — and with it every counter total in the stream —
     restarts from zero, which is what makes the two passes
     byte-comparable within one process. *)
  let stream_to path =
    Obs.Metrics.reset ();
    Obs.Event.reset ();
    Obs.Telemetry.configure ~out:path ~progress:Obs.Telemetry.Off
      ~deterministic:true ~interval ~enabled:true ();
    Obs.Telemetry.phase "profile";
    ignore (Harness.Pipeline.profile_corpus env corpus);
    let snaps = Obs.Telemetry.snapshots () in
    Obs.Telemetry.close ();
    snaps
  in
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
  in
  let p1 = Filename.temp_file "snowboard_telemetry" ".ndjson" in
  let p2 = Filename.temp_file "snowboard_telemetry" ".ndjson" in
  let snaps = stream_to p1 in
  ignore (stream_to p2);
  let l1 = read_lines p1 and l2 = read_lines p2 in
  let stream_identical = l1 = l2 in
  let lines_parse =
    l1 <> [] && List.for_all (fun l -> Obs.Export.of_string_opt l <> None) l1
  in
  let om_ok =
    Obs.Export.openmetrics_valid (Obs.Export.openmetrics ~deterministic:true ())
  in
  Sys.remove p1;
  Sys.remove p2;
  pf "stream: %d snapshots (%d lines); identical across passes: %b; lines parse: %b; openmetrics valid: %b@."
    snaps (List.length l1) stream_identical lines_parse om_ok;
  (* 2. overhead: profiling wall-clock with telemetry disabled vs
     streaming to a file at the production cadence (default interval),
     timed by [ab_time] and judged on the best passes.  Each timed pass
     repeats the profile phase [inner] times so it runs long enough to
     measure and so interval snapshots fire at their real frequency per
     instruction. *)
  let inner = 100 in
  let profile_many () =
    for _ = 1 to inner do
      ignore (Harness.Pipeline.profile_corpus env corpus)
    done
  in
  let profile_off () =
    Obs.Telemetry.configure ~enabled:false ();
    snd (time profile_many)
  in
  let profile_on () =
    let p = Filename.temp_file "snowboard_telemetry" ".ndjson" in
    Obs.Telemetry.configure ~out:p ~progress:Obs.Telemetry.Off
      ~deterministic:true ~enabled:true ();
    let dt = snd (time profile_many) in
    Obs.Telemetry.close ();
    Sys.remove p;
    dt
  in
  let ab = ab_time profile_off profile_on in
  let dt_off = ab.a_best and dt_on = ab.b_best in
  let overhead_pct = 100. *. ((dt_on /. max 1e-9 dt_off) -. 1.) in
  let within = overhead_pct <= 5.0 in
  pf "profiling: telemetry off %.3fs, streaming on %.3fs (best of %d; medians %.3fs, %.3fs; overhead %+.2f%%; within <=5%% budget: %b)@."
    dt_off dt_on ab_passes ab.a_median ab.b_median overhead_pct within;
  let open Obs.Export in
  let json =
    Obj
      ([
         ("experiment", String "telemetry");
         ("deterministic", Bool det);
         ("corpus_tests", Int (Fuzzer.Corpus.size corpus));
         ("snapshot_interval", Int interval);
         ("snapshots", Int snaps);
         ("ndjson_lines", Int (List.length l1));
         ("ndjson_lines_parse", Bool lines_parse);
         ("stream_identical", Bool stream_identical);
         ("openmetrics_valid", Bool om_ok);
         ("overhead_budget_pct", Float 5.0);
       ]
      @
      if det then []
      else
        [
          ("profile_off_s", Float dt_off);
          ("profile_on_s", Float dt_on);
          ("profile_off_median_s", Float ab.a_median);
          ("profile_on_median_s", Float ab.b_median);
          ("overhead_pct", Float overhead_pct);
          ("overhead_within_budget", Bool within);
        ])
  in
  write_json "BENCH_telemetry.json" json

(* ------------------------------------------------------------------ *)
(* E16: PMC provenance store + guest profiler                          *)

(* Quantifies the observability layer added for [snowboard why]: a full
   instrumented campaign (prepare profile phase + one explored method)
   must produce byte-identical provenance and flamegraph artifacts on
   every pass, and the always-on per-instruction attribution must cost
   no more than 5% of campaign wall-clock.  [ab_time]'s alternating
   passes de-noise the overhead number, as in E15. *)
let provenance_bench () =
  section "E16: PMC provenance + guest profiler (BENCH_provenance.json)";
  let det = !bench_deterministic in
  let cfg =
    {
      (campaign_cfg Kernel.Config.v5_12_rc3) with
      Harness.Pipeline.fuzz_iters = 600;
      trials_per_test = 12;
      seed = 7;
    }
  in
  let budget = 80 in
  let method_ = Core.Select.Strategy Core.Cluster.S_INS in
  (* one campaign = prepare (profile phase) + one explored method; the
     artifact render happens outside [campaign] so the overhead number
     isolates the per-instruction attribution cost, not the one-shot
     serialisation --provenance-out pays at exit *)
  let campaign ~profiler () =
    Obs.Profguest.reset ();
    Obs.Profguest.set_enabled profiler;
    let t = Harness.Pipeline.prepare cfg in
    let (_ : Harness.Pipeline.method_stats) =
      Harness.Pipeline.run_method t method_ ~budget
    in
    t
  in
  let render t =
    let prov =
      Obs.Export.to_string
        (Harness.Provenance.json t.Harness.Pipeline.prov
           ~frontier:t.Harness.Pipeline.frontier)
    in
    let flame = String.concat "\n" (Obs.Profguest.flame_lines ()) in
    Obs.Profguest.set_enabled false;
    (prov, flame)
  in
  (* 1. artifact identity: two identical passes, byte-compared *)
  let t = campaign ~profiler:true () in
  let prov1, flame1 = render t in
  let prov2, flame2 = render (campaign ~profiler:true ()) in
  let prov_identical = prov1 = prov2 and flame_identical = flame1 = flame2 in
  let num_pmcs = Harness.Provenance.num_pmcs t.Harness.Pipeline.prov in
  let top_list name =
    match Obs.Export.of_string_opt prov1 with
    | Some (Obs.Export.Obj fields) -> (
        match List.assoc_opt name fields with
        | Some (Obs.Export.List l) -> Some l
        | _ -> None)
    | _ -> None
  in
  let parses_back = top_list "pmcs" <> None in
  let tests_recorded =
    match top_list "tests" with Some l -> List.length l | None -> 0
  in
  let profiler_functions =
    match Obs.Export.of_string_opt prov1 with
    | Some (Obs.Export.Obj fields) -> (
        match List.assoc_opt "profiler" fields with
        | Some (Obs.Export.Obj pf_fields) -> (
            match List.assoc_opt "functions" pf_fields with
            | Some (Obs.Export.List l) -> List.length l
            | _ -> 0)
        | _ -> 0)
    | _ -> 0
  in
  let flame_line_count =
    if flame1 = "" then 0
    else List.length (String.split_on_char '\n' flame1)
  in
  let flame_wellformed =
    flame1 <> ""
    && List.for_all
         (fun line -> String.contains line ';' && String.contains line ' ')
         (String.split_on_char '\n' flame1)
  in
  pf "campaign: %d PMCs, %d tests recorded, %d profiled functions, %d flame lines@."
    num_pmcs tests_recorded profiler_functions flame_line_count;
  pf "provenance artifact byte-identical across passes: %b; parses back: %b@."
    prov_identical parses_back;
  pf "flamegraph byte-identical across passes: %b; lines well-formed: %b@."
    flame_identical flame_wellformed;
  (* 2. profiler overhead: the same campaign with attribution off vs on,
     timed by [ab_time] and judged on the best passes, which discard
     scheduler noise; the short campaign still retires ~10^5 attributed
     instructions per pass. *)
  let pass ~profiler () =
    let dt = snd (time (fun () -> ignore (campaign ~profiler ()))) in
    Obs.Profguest.set_enabled false;
    dt
  in
  let ab = ab_time (pass ~profiler:false) (pass ~profiler:true) in
  let dt_off = ab.a_best and dt_on = ab.b_best in
  let overhead_pct = 100. *. ((dt_on /. max 1e-9 dt_off) -. 1.) in
  let within = overhead_pct <= 5.0 in
  pf "campaign: profiler off %.3fs, on %.3fs (best of %d; medians %.3fs, %.3fs; overhead %+.2f%%; within <=5%% budget: %b)@."
    dt_off dt_on ab_passes ab.a_median ab.b_median overhead_pct within;
  let open Obs.Export in
  let json =
    Obj
      ([
         ("experiment", String "provenance");
         ("deterministic", Bool det);
         ("seed", Int cfg.Harness.Pipeline.seed);
         ("budget", Int budget);
         ("method", String (Core.Select.method_name method_));
         ("num_pmcs", Int num_pmcs);
         ("tests_recorded", Int tests_recorded);
         ("profiler_functions", Int profiler_functions);
         ("flame_lines", Int flame_line_count);
         ("flame_wellformed", Bool flame_wellformed);
         ("provenance_identical", Bool prov_identical);
         ("flame_identical", Bool flame_identical);
         ("provenance_parses", Bool parses_back);
         ("overhead_budget_pct", Float 5.0);
       ]
      @
      if det then []
      else
        [
          ("campaign_off_s", Float dt_off);
          ("campaign_on_s", Float dt_on);
          ("campaign_off_median_s", Float ab.a_median);
          ("campaign_on_median_s", Float ab.b_median);
          ("overhead_pct", Float overhead_pct);
          ("overhead_within_budget", Bool within);
        ])
  in
  write_json "BENCH_provenance.json" json

(* ------------------------------------------------------------------ *)
(* E17: crash-consistent storage                                       *)

(* Quantifies the durable-storage layer: the CRC frame format must
   round-trip exactly, the reader must be total — longest valid record
   prefix, never an exception — under truncation at every byte offset
   and under single-bit flips at every byte, fsck must repair a torn
   journal to a clean one, and the per-test journaling (one framed
   fsynced append per completed test) must cost <= 5% of campaign
   wall-clock.  Deterministic mode omits the wall-clock fields so the
   artifact is byte-stable. *)
let durability_bench () =
  section "E17: crash-consistent storage (BENCH_durability.json)";
  let det = !bench_deterministic in
  (* 1. frame/scan round-trip identity over representative payloads
     (varying lengths, including empty) *)
  let records =
    List.init 64 (fun i ->
        Printf.sprintf "{\"i\":%d,\"p\":\"%s\"}" i
          (String.make (i * 7 mod 90) 'x'))
  in
  let bytes = String.concat "" (List.map Harness.Durable.frame records) in
  let decoded, rc0 = Harness.Durable.scan bytes in
  let round_trip = decoded = records && Harness.Durable.clean rc0 in
  let is_prefix recs =
    let rec go a b =
      match (a, b) with
      | [], _ -> true
      | x :: a', y :: b' -> x = y && go a' b'
      | _ :: _, [] -> false
    in
    go recs records
  in
  (* 2. recovery totality: truncating at every offset yields a valid
     record prefix without raising, and never claims bytes past the cut *)
  let truncation_total = ref true in
  for cut = 0 to String.length bytes do
    match Harness.Durable.scan (String.sub bytes 0 cut) with
    | recs, rc ->
        if
          (not (is_prefix recs))
          || rc.Harness.Durable.rc_valid_bytes > cut
          || rc.Harness.Durable.rc_total_bytes <> cut
        then truncation_total := false
    | exception _ -> truncation_total := false
  done;
  (* 3. corruption totality: one flipped bit at every byte offset still
     yields a valid record prefix without raising (CRC-32 catches every
     single-bit error, so no corrupt record can be returned) *)
  let bitflip_total = ref true in
  for i = 0 to String.length bytes - 1 do
    let b = Bytes.of_string bytes in
    Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl (i mod 8))));
    match Harness.Durable.scan (Bytes.to_string b) with
    | recs, _ -> if not (is_prefix recs) then bitflip_total := false
    | exception _ -> bitflip_total := false
  done;
  pf "framing: round-trip %b; truncation sweep (%d offsets) total %b; bit-flip sweep total %b@."
    round_trip
    (String.length bytes + 1)
    !truncation_total !bitflip_total;
  (* 4. fsck repairs a torn journal to a clean one *)
  let jpath = Filename.temp_file "snowboard_durability" ".ck" in
  let fsck_repairs =
    match
      Harness.Durable.write_journal ~site:"bench.journal" ~path:jpath records
    with
    | Error _ -> false
    | Ok () ->
        let torn = String.sub bytes 0 (String.length bytes - 17) in
        let oc = open_out_bin jpath in
        output_string oc torn;
        close_out oc;
        (match Harness.Durable.fsck ~repair:true jpath with
        | Ok r -> r.Harness.Durable.fk_repaired
        | Error _ -> false)
        &&
        (match Harness.Durable.fsck jpath with
        | Ok r -> r.Harness.Durable.fk_clean
        | Error _ -> false)
  in
  Sys.remove jpath;
  pf "fsck: repairs a torn journal to clean: %b@." fsck_repairs;
  (* 5. journaling overhead: the same method budget with and without a
     checkpoint sink (one framed fsynced append per completed test),
     timed by [ab_time] and judged on the best passes.  Trials per
     test use the paper's production setting (64 interleavings per
     concurrent test), which is the workload the one-fsync-per-test cost
     is actually amortised over. *)
  let cfg =
    {
      (campaign_cfg Kernel.Config.v5_12_rc3) with
      Harness.Pipeline.fuzz_iters = 300;
      trials_per_test = 64;
      seed = 7;
    }
  in
  let t = Harness.Pipeline.prepare cfg in
  let method_ = Core.Select.Strategy Core.Cluster.S_INS in
  let budget = 40 in
  let plain () = snd (time (fun () -> Harness.Pipeline.run_method t method_ ~budget)) in
  let journaled () =
    (* sink creation (base image, stale-tmp sweep) is one-off campaign
       setup; the steady-state cost being measured is the per-test
       framed fsynced append *)
    let p = Filename.temp_file "snowboard_durability" ".ck" in
    let sink =
      Harness.Checkpoint.create_sink ~path:p ~fingerprint:"bench" ~initial:[]
    in
    let dt =
      snd
        (time (fun () ->
             Harness.Pipeline.run_method
               ~on_result:(fun r ->
                 Harness.Checkpoint.record sink ~method_:"bench" r)
               t method_ ~budget))
    in
    Sys.remove p;
    dt
  in
  let ab = ab_time plain journaled in
  let dt_plain = ab.a_best and dt_journal = ab.b_best in
  let overhead_pct = 100. *. ((dt_journal /. max 1e-9 dt_plain) -. 1.) in
  let within = overhead_pct <= 5.0 in
  pf "campaign (%d tests x %d trials): plain %.3fs, journaled %.3fs (best of %d; medians %.3fs, %.3fs; overhead %+.2f%%; within <=5%% budget: %b)@."
    budget cfg.Harness.Pipeline.trials_per_test dt_plain dt_journal ab_passes
    ab.a_median ab.b_median overhead_pct within;
  let open Obs.Export in
  let json =
    Obj
      ([
         ("experiment", String "durability");
         ("deterministic", Bool det);
         ("records", Int (List.length records));
         ("frame_overhead_bytes", Int Harness.Durable.frame_overhead);
         ("round_trip_identity", Bool round_trip);
         ("truncation_sweep_offsets", Int (String.length bytes + 1));
         ("truncation_sweep_total", Bool !truncation_total);
         ("bitflip_sweep_total", Bool !bitflip_total);
         ("fsck_repairs_torn_journal", Bool fsck_repairs);
         ("journaled_tests", Int budget);
         ("overhead_budget_pct", Float 5.0);
       ]
      @
      if det then []
      else
        [
          ("plain_s", Float dt_plain);
          ("journaled_s", Float dt_journal);
          ("plain_median_s", Float ab.a_median);
          ("journaled_median_s", Float ab.b_median);
          ("overhead_pct", Float overhead_pct);
          ("overhead_within_budget", Bool within);
        ])
  in
  write_json "BENCH_durability.json" json

(* ------------------------------------------------------------------ *)
(* E18: one shared work queue over one kept VM per worker              *)

(* Quantifies the parallel scheduling substrate: workers pulling items
   from one shared cursor, each on its own kept VM, for both parallel
   phases and end-to-end prepare.  Each parallel pass is first proven to
   produce results identical to the sequential run's: speedups are only
   ever reported for a semantics-preserving schedule.  [ab_time] times
   each leg's two sides (sequential, parallel); the leg reports the
   speedup of the best pass on each side, plus the medians.  In
   --deterministic mode only the equality verdicts are emitted, so the
   artifact is a pure function of the seed. *)
let scaling_bench () =
  section "E18: shared work queue + kept VMs scaling (BENCH_scaling.json)";
  let jobs = max 1 !bench_jobs in
  let det = !bench_deterministic in
  let cfg =
    {
      (campaign_cfg Kernel.Config.v5_12_rc3) with
      Harness.Pipeline.fuzz_iters = 600;
      trials_per_test = 8;
      jobs;
    }
  in
  (* one corpus up front so every profiling pass measures the same work *)
  let env = Sched.Exec.make_env cfg.Harness.Pipeline.kernel in
  let corpus, _ =
    Harness.Pipeline.fuzz ~seeds:cfg.Harness.Pipeline.seed_corpus env
      ~seed:cfg.Harness.Pipeline.seed ~iters:cfg.Harness.Pipeline.fuzz_iters
  in
  pf "corpus: %d tests; %d worker domains; %d alternating passes per leg@."
    (Fuzzer.Corpus.size corpus) jobs ab_passes;
  (* Times one leg: returns whether every pass's result equals the
     sequential warm-up's, the best-pass speedup and the JSON fields.
     The parallel warm-up boots the workers' kept VMs, so the timed
     passes see the steady state every later batch, method and campaign
     sees. *)
  let leg name ~seq ~par =
    let expected = ref None and identical = ref true in
    let pass f () =
      let r, dt = time f in
      (match !expected with
      | None -> expected := Some r
      | Some e -> if r <> e then identical := false);
      dt
    in
    let ab = ab_time (pass seq) (pass par) in
    let identical = !identical in
    let seq_best = ab.a_best and par_best = ab.b_best in
    let seq_med = ab.a_median and par_med = ab.b_median in
    let speedup = seq_best /. max 1e-9 par_best in
    pf "%s: sequential best %.4fs median %.4fs, %d jobs best %.4fs median %.4fs (%.2fx best, %.2fx median); identical: %b@."
      name seq_best seq_med jobs par_best par_med speedup
      (seq_med /. max 1e-9 par_med)
      identical;
    let open Obs.Export in
    ( identical,
      speedup,
      [
        (name ^ "_seq_s", Float seq_best);
        (name ^ "_par_s", Float par_best);
        (name ^ "_seq_median_s", Float seq_med);
        (name ^ "_par_median_s", Float par_med);
        (name ^ "_speedup", Float speedup);
      ] )
  in
  (* 1. profile phase over one corpus *)
  let prof_ok, _, prof_fields =
    leg "profile"
      ~seq:(fun () -> Harness.Pipeline.profile_corpus env corpus)
      ~par:(fun () -> Harness.Pipeline.profile_corpus ~jobs env corpus)
  in
  (* 2. end-to-end prepare (fuzz + profile + identify), jobs=1 vs
     jobs=N; a prepared campaign holds a live VM, so only the step
     counts are compared *)
  let prepare_steps jobs () =
    let t = Harness.Pipeline.prepare { cfg with Harness.Pipeline.jobs } in
    (t.Harness.Pipeline.fuzz_steps, t.Harness.Pipeline.profile_steps)
  in
  let _, prepare_speedup, prep_fields =
    leg "prepare" ~seq:(prepare_steps 1) ~par:(prepare_steps jobs)
  in
  (* 3. explore phase: one method's budget, run_method at jobs=1 vs
     jobs=N; method stats (bugs, outcomes, everything) must be
     structurally identical *)
  let method_ = Core.Select.Strategy Core.Cluster.S_INS in
  let budget = 60 in
  let t = Harness.Pipeline.prepare cfg in
  let run jobs () =
    Harness.Pipeline.run_method
      { t with Harness.Pipeline.cfg = { cfg with Harness.Pipeline.jobs } }
      method_ ~budget
  in
  let exp_ok, explore_speedup, exp_fields =
    leg "explore" ~seq:(run 1) ~par:(run jobs)
  in
  let open Obs.Export in
  let json =
    Obj
      ([
         ("experiment", String "scaling");
         ("jobs", Int jobs);
         ("deterministic", Bool det);
         ("passes", Int ab_passes);
         ("corpus_tests", Int (Fuzzer.Corpus.size corpus));
         ("explore_tests", Int budget);
         ("trials_per_test", Int cfg.Harness.Pipeline.trials_per_test);
         ("profile_steal_identical", Bool prof_ok);
         ("explore_steal_identical", Bool exp_ok);
       ]
      @
      if det then []
      else
        prof_fields @ prep_fields
        @ [ ("prepare_scales", Bool (prepare_speedup > 1.0)) ]
        @ exp_fields
        @ [ ("explore_scales", Bool (explore_speedup > 1.0)) ])
  in
  write_json ~site:"bench.scaling" "BENCH_scaling.json" json

(* ------------------------------------------------------------------ *)

let experiments =
  [
    ("table2", table2);
    ("table3", table3);
    ("accuracy", accuracy);
    ("expose", expose);
    ("throughput", throughput);
    ("perf", perf);
    ("cases", cases);
    ("extension", extension);
    ("feedback", feedback);
    ("ablations", ablations);
    ("artifact", artifact);
    ("tracing", tracing);
    ("resilience", resilience);
    ("prepare", prepare_bench);
    ("exec", exec_bench);
    ("telemetry", telemetry_bench);
    ("provenance", provenance_bench);
    ("durability", durability_bench);
    ("scaling", scaling_bench);
  ]

let () =
  (* experiment names plus two bench-wide flags: --jobs N (or --jobs=N)
     for the prepare experiment's worker-domain count, --deterministic to
     omit wall-clock fields from artifacts *)
  let rec parse acc = function
    | [] -> List.rev acc
    | "--deterministic" :: rest ->
        bench_deterministic := true;
        parse acc rest
    | "--jobs" :: n :: rest ->
        bench_jobs := int_of_string n;
        parse acc rest
    | s :: rest when String.length s > 7 && String.sub s 0 7 = "--jobs=" ->
        bench_jobs := int_of_string (String.sub s 7 (String.length s - 7));
        parse acc rest
    | s :: rest -> parse (s :: acc) rest
  in
  let requested =
    match parse [] (List.tl (Array.to_list Sys.argv)) with
    | [] -> List.map fst experiments
    | names -> names
  in
  List.iter
    (fun name ->
      match List.assoc_opt name experiments with
      | Some f -> f ()
      | None ->
          pf "unknown experiment %s; available: %s@." name
            (String.concat ", " (List.map fst experiments)))
    requested
