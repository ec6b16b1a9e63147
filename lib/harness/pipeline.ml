(* The end-to-end Snowboard pipeline (Figure 2 of the paper):

     fuzz  ->  profile  ->  identify PMCs  ->  cluster/select  ->  execute

   [prepare] runs the input-side phases once; [run_method] spends a
   concurrent-test budget under one generation method, which is how the
   Table 3 strategy comparison is organised (one Snowboard instance per
   method, same resources each). *)

module Prog = Fuzzer.Prog
module Exec = Sched.Exec

let src = Logs.Src.create "snowboard.pipeline" ~doc:"Snowboard pipeline phases"

module Log = (val Logs.src_log src : Logs.LOG)

type config = {
  kernel : Kernel.Config.t;
  seed : int;
  fuzz_iters : int;  (* fuzzing iterations (generation + mutation) *)
  trials_per_test : int;  (* interleavings explored per concurrent test *)
  seed_corpus : Fuzzer.Prog.t list;
      (* distilled seed programs offered to the corpus before random
         generation starts, in the spirit of Moonshine's seed selection;
         they pass through the same coverage filter as generated tests *)
  jobs : int;
      (* worker domains for corpus profiling and test execution; results
         are identical for any value, so this knob only moves wall-clock
         and stays out of checkpoint fingerprints *)
}

let default =
  {
    kernel = Kernel.Config.v5_12_rc3;
    seed = 1;
    fuzz_iters = 400;
    trials_per_test = 16;
    seed_corpus = [];
    jobs = 1;
  }

(* The per-issue scenario programs double as a distilled seed corpus. *)
let scenario_seeds () =
  List.concat_map
    (fun (s : Scenarios.scenario) ->
      [ s.Scenarios.writer; s.Scenarios.reader ])
    Scenarios.all

type t = {
  cfg : config;
  env : Exec.env;
  corpus : Fuzzer.Corpus.t;
  profiles : Core.Profile.t list;
  ident : Core.Identify.t;
  frontier : Frontier.t;  (* online PMC-cluster coverage (Table 1) *)
  prov : Provenance.t;  (* per-PMC provenance, filled as tests complete *)
  fuzz_steps : int;  (* guest instructions spent fuzzing *)
  profile_steps : int;
}

(* Phase 1: coverage-guided sequential fuzzing (the Syzkaller role). *)
let fuzz ?(seeds = []) env ~seed ~iters =
  let rng = Random.State.make [| seed |] in
  let corpus = Fuzzer.Corpus.create () in
  let steps = ref 0 in
  (* seed and generated programs alike: sequential tests that crash or
     spam the console are not useful as corpus entries; Snowboard wants
     clean sequential behaviour *)
  let offer prog =
    let r = Exec.run_seq env ~tid:0 prog in
    steps := !steps + r.Exec.sq_steps;
    if not r.Exec.sq_panicked then
      ignore (Fuzzer.Corpus.consider corpus prog ~edges:r.Exec.sq_edges)
  in
  List.iter offer seeds;
  Log.info (fun m ->
      m "seed corpus: %d programs offered, %d kept" (List.length seeds)
        (Fuzzer.Corpus.size corpus));
  for _ = 1 to iters do
    let prog =
      if Random.State.int rng 3 = 0 || Fuzzer.Corpus.size corpus = 0 then
        Fuzzer.Gen.generate rng
      else
        (* O(1) uniform pick; consumes the same single RNG draw the old
           List.nth scan did, so corpora are bit-identical across seeds *)
        let e = Fuzzer.Corpus.sample corpus rng in
        Fuzzer.Gen.mutate rng e.Fuzzer.Corpus.prog
    in
    offer prog;
    Obs.Telemetry.tick ()
  done;
  Log.info (fun m ->
      m "fuzzing done: %d iterations, corpus %d, %d edges, %d guest instructions"
        iters (Fuzzer.Corpus.size corpus)
        (Fuzzer.Corpus.total_edges corpus)
        !steps);
  (corpus, !steps)

(* Worker contexts for [Workpool.run ~jobs]: a single worker runs
   inline on [env]; more workers each lease their kept VM
   ([Exec.lease_env]) and return it when done. *)
let envs ~jobs env =
  if jobs <= 1 then ((fun _ -> env), fun _ _ -> ())
  else
    let cfg = env.Exec.kern.Kernel.config in
    ( (fun w -> Exec.lease_env cfg ~worker:w),
      fun w e -> Exec.release_env ~worker:w e )

(* Phase 2: profile every corpus test from the boot snapshot, over
   [jobs] workers pulling from one queue.  Sequential profiling is a
   pure function of (kernel, program) and results land in per-entry
   slots, so the list - and everything downstream, [Identify.run] first
   - is the same for any worker count or claim interleaving. *)
let profile_corpus ?(jobs = 1) env corpus =
  let worker, finish = envs ~jobs env in
  let results =
    Workpool.run ~jobs ~worker ~finish
      ~f:(fun env _ (e : Fuzzer.Corpus.entry) ->
        let prof = Obs.Profguest.collector () in
        let r = Exec.run_seq ~prof ~accesses:true env ~tid:0 e.prog in
        Obs.Profguest.flush prof Obs.Profguest.Profile;
        (* a no-op off the main domain *)
        Obs.Telemetry.tick ();
        ( Core.Profile.of_shared ~test_id:e.id r.Exec.sq_accesses,
          r.Exec.sq_steps ))
        (* profiling has no supervisor: an entry that cannot be
           profiled fails the prepare phase *)
      ~fallback:(fun _ _ exn -> raise exn)
      (Array.of_list (Fuzzer.Corpus.to_list corpus))
  in
  ( Array.to_list (Array.map fst results),
    Array.fold_left (fun acc (_, s) -> acc + s) 0 results )

(* The Figure 2 input-side phases, each under its own span so exported
   artifacts attribute guest instructions and corpus growth per phase. *)
let prepare cfg =
  Obs.Span.with_span "pipeline.prepare" (fun () ->
      Obs.Telemetry.phase "boot";
      let env =
        Obs.Span.with_span "boot" (fun () -> Exec.make_env cfg.kernel)
      in
      Obs.Telemetry.phase "fuzz";
      let corpus, fuzz_steps =
        Obs.Span.with_span "fuzz" (fun () ->
            fuzz ~seeds:cfg.seed_corpus env ~seed:cfg.seed ~iters:cfg.fuzz_iters)
      in
      Obs.Telemetry.phase "profile";
      Obs.Profguest.set_phase (Some Obs.Profguest.Profile);
      let profiles, profile_steps =
        Obs.Span.with_span "profile" (fun () ->
            profile_corpus ~jobs:cfg.jobs env corpus)
      in
      Obs.Profguest.set_phase None;
      Obs.Telemetry.phase "identify";
      let ident =
        Obs.Span.with_span "identify" (fun () -> Core.Identify.run profiles)
      in
      Log.info (fun m ->
          m "identification: %d profiles, %d PMCs" (List.length profiles)
            (Core.Identify.num_pmcs ident));
      let frontier = Frontier.create ident in
      let prov =
        Provenance.create ~image:env.Exec.kern.Kernel.image ~ident
      in
      {
        cfg;
        env;
        corpus;
        profiles;
        ident;
        frontier;
        prov;
        fuzz_steps;
        profile_steps;
      })

let prog_of_id t id =
  match Fuzzer.Corpus.find t.corpus id with
  | Some e -> e.Fuzzer.Corpus.prog
  | None -> invalid_arg (Printf.sprintf "pipeline: unknown corpus id %d" id)

(* Everything needed to re-execute a buggy trial away from the campaign:
   the two programs and the recorded switch decisions (section 6,
   deterministic reproduction).  One report is kept per concurrent test -
   the first buggy trial - which bounds report growth on noisy tests. *)
type bug_report = {
  br_issues : int list;  (* triaged issue ids ([] = untriaged findings) *)
  br_test : int;  (* 1-based index of the test in its method's plan *)
  br_trial : int;  (* 1-based index of the buggy trial within the test *)
  br_writer : Fuzzer.Prog.t;
  br_reader : Fuzzer.Prog.t;
  br_replay : string;  (* [Sched.Replay.to_string] of the trial's trace *)
}

(* The first buggy trial of an exploration result, if any. *)
let bug_of_result ~test_idx ~writer ~reader (res : Sched.Explore.result) =
  let rec go i = function
    | [] -> None
    | (tr : Sched.Explore.trial) :: rest ->
        if tr.Sched.Explore.findings <> [] then
          Some
            {
              br_issues = tr.Sched.Explore.issues;
              br_test = test_idx;
              br_trial = i;
              br_writer = writer;
              br_reader = reader;
              br_replay = Sched.Replay.to_string tr.Sched.Explore.replay;
            }
        else go (i + 1) rest
  in
  go 1 res.Sched.Explore.trials

(* The supervised record of one executed (or attempted) concurrent
   test.  This is the unit the resilient campaign runtime works in: the
   checkpoint journal stores these, workers ship them back to the
   calling domain, and [stats_of_results] folds them into method
   statistics — so fresh and resumed results at any [jobs] all
   aggregate through the same code path. *)
type test_result = {
  tr_index : int;  (* 1-based index of the test in its method's plan *)
  tr_hinted : bool;
  tr_outcome : Supervise.outcome;
  tr_retries : int;
  tr_exercised : bool;
  tr_pmc_observed : bool;
  tr_issues : int list;  (* distinct issues this test found, sorted *)
  tr_unknown : int;  (* untriaged findings *)
  tr_trials : int;
  tr_steps : int;
  tr_hint_hits : int;  (* trials whose hinted channel was exercised *)
  tr_miss_no_write : int;  (* Algorithm 2 miss tallies, classified *)
  tr_miss_no_read : int;
  tr_miss_value : int;
  tr_prof : (string * int * int) list;
      (* guest-profiler rows (function, instr, shared); journaled with
         the result and flushed exactly once at the note site, so
         explore-phase profiles survive resume without double counting *)
  tr_bug : bug_report option;
}

(* Supervision outcome tallies for one method. *)
type outcome_stats = {
  oc_ok : int;
  oc_timed_out : int;
  oc_crashed : int;
  oc_quarantined : int;
  oc_retries : int;  (* total retries across all tests *)
}

let zero_outcomes =
  { oc_ok = 0; oc_timed_out = 0; oc_crashed = 0; oc_quarantined = 0; oc_retries = 0 }

let count_outcome oc (r : test_result) =
  let oc = { oc with oc_retries = oc.oc_retries + r.tr_retries } in
  match r.tr_outcome with
  | Supervise.Ok -> { oc with oc_ok = oc.oc_ok + 1 }
  | Supervise.Timed_out _ -> { oc with oc_timed_out = oc.oc_timed_out + 1 }
  | Supervise.Crashed _ -> { oc with oc_crashed = oc.oc_crashed + 1 }
  | Supervise.Quarantined _ -> { oc with oc_quarantined = oc.oc_quarantined + 1 }

(* Execution statistics for one generation method. *)
type method_stats = {
  method_ : Core.Select.method_;
  num_clusters : int;  (* Table 3 "Exemplar PMCs" (0 = NA) *)
  planned : int;
  executed : int;  (* concurrent tests actually run *)
  hinted : int;  (* tests generated from a PMC *)
  hint_exercised : int;  (* hinted tests whose channel occurred *)
  pmc_observed : int;  (* tests where any identified PMC occurred *)
  issues : (int * int) list;  (* issue id -> 1-based test index when found *)
  unknown_findings : int;
  total_trials : int;
  total_steps : int;
  bugs : bug_report list;  (* one per test with findings, in test order *)
  outcomes : outcome_stats;
}

let degraded stats =
  List.exists
    (fun s ->
      s.outcomes.oc_timed_out > 0
      || s.outcomes.oc_crashed > 0
      || s.outcomes.oc_quarantined > 0)
    stats

(* The record of a test that contributes only its outcome. *)
let failed_result ~index (ct : Core.Select.conc_test) outcome ~retries =
  {
    tr_index = index;
    tr_hinted = ct.hint <> None;
    tr_outcome = outcome;
    tr_retries = retries;
    tr_exercised = false;
    tr_pmc_observed = false;
    tr_issues = [];
    tr_unknown = 0;
    tr_trials = 0;
    tr_steps = 0;
    tr_hint_hits = 0;
    tr_miss_no_write = 0;
    tr_miss_no_read = 0;
    tr_miss_value = 0;
    tr_prof = [];
    tr_bug = None;
  }

(* A planned test whose run raised past its supervisor (a harness bug,
   an OOM kill of its VM, ...): a [Crashed] record, so the campaign
   still accounts for it.  Deliberately NOT journaled as completed work
   — a resumed campaign re-runs it. *)
let crashed_result ~index ct exn =
  failed_result ~index ct
    (Supervise.Crashed ("worker domain died: " ^ Supervise.describe exn))
    ~retries:0

(* Run (or re-run, under retry) one planned concurrent test under
   supervision.  Takes the environment and identification explicitly
   rather than the pipeline handle so every worker — inline on the
   pipeline's VM or on a leased one — runs this exact code path.  A
   failed attempt discards its partial exploration data: like the
   paper's re-issued work queue items, a test either completes and
   contributes whole results or contributes only its outcome. *)
let run_one_test ~env ~ident ~(cfg : config) ~kind
    ?(sup = Supervise.default) ?faults ~prog_of_id ~index
    (ct : Core.Select.conc_test) =
  let hinted = ct.hint <> None in
  let kind =
    match ct.hint with Some _ -> kind | None -> Sched.Explore.Naive 8
  in
  let writer = prog_of_id ct.writer and reader = prog_of_id ct.reader in
  let seed = cfg.seed + (1000 * index) in
  let sv =
    Supervise.run ~policy:sup (fun ~attempt ->
        Sched.Explore.run env ~ident:(Some ident) ~writer ~reader
          ~hint:ct.hint ~kind ~trials:cfg.trials_per_test ~seed
          ~stop_on_bug:false ?watchdog:sup.Supervise.step_budget
          ?fault:(Option.map (fun p -> (p, index)) faults)
          ~attempt ())
  in
  match sv.Supervise.sv_result with
  | Some res ->
      {
        tr_index = index;
        tr_hinted = hinted;
        tr_outcome = sv.Supervise.sv_outcome;
        tr_retries = sv.Supervise.sv_retries;
        tr_exercised = res.Sched.Explore.any_exercised;
        tr_pmc_observed = res.Sched.Explore.any_pmc_observed;
        tr_issues = Sched.Explore.issues_found res;
        tr_unknown =
          List.length
            (List.filter
               (fun (f : Detectors.Oracle.finding) ->
                 f.Detectors.Oracle.issue = None)
               (Sched.Explore.findings_found res));
        tr_trials = List.length res.Sched.Explore.trials;
        tr_steps = res.Sched.Explore.total_steps;
        tr_hint_hits = res.Sched.Explore.hint_hits;
        tr_miss_no_write = res.Sched.Explore.miss_no_write;
        tr_miss_no_read = res.Sched.Explore.miss_no_read;
        tr_miss_value = res.Sched.Explore.miss_value;
        tr_prof = res.Sched.Explore.prof;
        tr_bug = bug_of_result ~test_idx:index ~writer ~reader res;
      }
  | None ->
      Log.warn (fun m ->
          m "test %d: %a (%d retries)" index Supervise.pp_outcome
            sv.Supervise.sv_outcome sv.Supervise.sv_retries);
      failed_result ~index ct sv.Supervise.sv_outcome
        ~retries:sv.Supervise.sv_retries

(* Fold per-test results into method statistics.  Results are sorted by
   plan index first, so statistics are identical however the results
   were produced — by any number of workers, or merged from a
   checkpoint journal plus a resumed run. *)
let stats_of_results ~method_ ~num_clusters ~planned results =
  let results =
    List.sort (fun a b -> compare a.tr_index b.tr_index) results
  in
  let issues : (int, int) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun r ->
      List.iter
        (fun id ->
          if not (Hashtbl.mem issues id) then
            Hashtbl.replace issues id r.tr_index)
        r.tr_issues)
    results;
  let count f = List.length (List.filter f results) in
  let sum f = List.fold_left (fun acc r -> acc + f r) 0 results in
  {
    method_;
    num_clusters;
    planned;
    executed = List.length results;
    hinted = count (fun r -> r.tr_hinted);
    hint_exercised = count (fun r -> r.tr_exercised);
    pmc_observed = count (fun r -> r.tr_pmc_observed);
    issues =
      Hashtbl.fold (fun id first acc -> (id, first) :: acc) issues []
      |> List.sort compare;
    unknown_findings = sum (fun r -> r.tr_unknown);
    total_trials = sum (fun r -> r.tr_trials);
    total_steps = sum (fun r -> r.tr_steps);
    bugs = List.filter_map (fun r -> r.tr_bug) results;
    outcomes = List.fold_left count_outcome zero_outcomes results;
  }

(* Note one completed test everywhere it must land: the coverage
   frontier, the provenance store and the explore-phase profiler cells.
   [run_method] calls this exactly once per (method, index) on the
   calling domain, in plan order, for fresh and resumed results alike —
   the single-note discipline is what keeps frontier blocks, provenance
   artifacts and flamegraphs byte-identical across [--jobs] and
   [--resume]. *)
let note_result t ~method_ (ct : Core.Select.conc_test) (r : test_result) =
  Frontier.note t.frontier ?hint:ct.Core.Select.hint ~issues:r.tr_issues
    ~trials:r.tr_trials ();
  Provenance.note_test t.prov ~method_:(Core.Select.method_name method_)
    ~index:r.tr_index ~writer:ct.Core.Select.writer
    ~reader:ct.Core.Select.reader ~hint:ct.Core.Select.hint
    ~outcome:(Supervise.outcome_name r.tr_outcome) ~retries:r.tr_retries
    ~exercised:r.tr_exercised ~issues:r.tr_issues ~trials:r.tr_trials
    ~hits:r.tr_hint_hits ~miss_no_write:r.tr_miss_no_write
    ~miss_no_read:r.tr_miss_no_read ~miss_value:r.tr_miss_value;
  Obs.Profguest.add_rows Obs.Profguest.Explore r.tr_prof

let plan_method t method_ ~budget =
  let rng = Random.State.make [| t.cfg.seed + 7919 |] in
  let corpus_ids =
    List.map (fun (e : Fuzzer.Corpus.entry) -> e.id) (Fuzzer.Corpus.to_list t.corpus)
  in
  Obs.Span.with_span "select" (fun () ->
      Core.Select.plan method_ t.ident
        ~clusters:(Frontier.clusters t.frontier) ~corpus_ids rng ~max:budget)

(* Spend a budget under one method over [t.cfg.jobs] workers pulling
   from one queue (the single-machine analogue of the paper's
   distributed work queue, section 4.4.1).  Per-test seeds derive from
   the plan index and results land in per-index slots, so any worker
   count or claim order finds exactly the same issues.  Results are
   noted on the calling domain in plan order: after each test when one
   worker runs inline, after the joins otherwise. *)
let run_method ?(kind = Sched.Explore.Snowboard) ?sup ?faults
    ?(resume = fun _ -> None) ?(on_result = fun _ -> ()) t method_ ~budget =
  let name = Core.Select.method_name method_ in
  Obs.Span.with_span ("pipeline.run_method(" ^ name ^ ")") @@ fun () ->
  Obs.Telemetry.phase ("execute:" ^ name);
  let plan = plan_method t method_ ~budget in
  Provenance.note_plan t.prov ~method_:name ~plan;
  Obs.Profguest.set_phase (Some Obs.Profguest.Explore);
  let tests = Array.of_list plan.Core.Select.tests in
  let stored = Array.mapi (fun i _ -> resume (i + 1)) tests in
  let inline = t.cfg.jobs <= 1 in
  (* resumed results are noted too: the frontier and provenance must
     describe the whole campaign, not just the work done since the
     checkpoint *)
  let note i r = note_result t ~method_ tests.(i) r in
  (* [on_result] is the caller's sink (checkpoint journal, interruption
     counter): serialized, and once it raises no further test starts;
     the exception is re-raised after the joins *)
  let stop = Atomic.make None and lock = Mutex.create () in
  let deliver r =
    Mutex.protect lock (fun () ->
        if Atomic.get stop = None then
          try on_result r with e -> Atomic.set stop (Some e))
  in
  let run env i ct =
    let index = i + 1 in
    if Atomic.get stop <> None then None
    else begin
      let r =
        match stored.(i) with
        | Some r -> r
        | None -> (
            match
              run_one_test ~env ~ident:t.ident ~cfg:t.cfg ~kind ?sup ?faults
                ~prog_of_id:(prog_of_id t) ~index ct
            with
            | r ->
                deliver r;
                r
            | exception e -> crashed_result ~index ct e)
      in
      if inline && Atomic.get stop = None then begin
        note i r;
        Obs.Telemetry.tick ~tests:1 ()
      end;
      Some r
    end
  in
  let worker, finish = envs ~jobs:t.cfg.jobs t.env in
  let results =
    Obs.Span.with_span "execute" @@ fun () ->
    Workpool.run ~jobs:t.cfg.jobs ~worker ~finish ~f:run
      ~fallback:(fun i ct exn -> Some (crashed_result ~index:(i + 1) ct exn))
      tests
  in
  Option.iter raise (Atomic.get stop);
  if not inline then begin
    Array.iteri (fun i r -> Option.iter (note i) r) results;
    Obs.Telemetry.tick ~tests:(Array.length results) ()
  end;
  let results = List.filter_map Fun.id (Array.to_list results) in
  Obs.Profguest.set_phase None;
  let stats =
    stats_of_results ~method_ ~num_clusters:plan.Core.Select.num_clusters
      ~planned:(Array.length tests) results
  in
  Log.info (fun m ->
      m "%s: %d tests executed (%d ok, %d timeout, %d crashed, %d quarantined), issues [%s]"
        name stats.executed stats.outcomes.oc_ok stats.outcomes.oc_timed_out
        stats.outcomes.oc_crashed stats.outcomes.oc_quarantined
        (String.concat ", " (List.map (fun (id, _) -> string_of_int id) stats.issues)));
  stats

(* A full campaign: every generation method with the same budget; the
   union of issues is what Table 2 reports for a kernel version. *)
let run_campaign ?sup ?faults t ~budget =
  List.map
    (fun m -> run_method ?sup ?faults t m ~budget)
    Core.Select.all_paper_methods

let issues_union stats =
  List.concat_map (fun s -> List.map fst s.issues) stats |> List.sort_uniq compare
