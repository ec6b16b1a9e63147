(** The end-to-end Snowboard pipeline (Figure 2 of the paper):
    fuzz -> profile -> identify -> cluster/select -> execute. *)

type config = {
  kernel : Kernel.Config.t;
  seed : int;
  fuzz_iters : int;  (** fuzzing iterations (generation + mutation) *)
  trials_per_test : int;  (** interleavings per concurrent test *)
  seed_corpus : Fuzzer.Prog.t list;
      (** distilled seed programs offered before random generation, in
          the spirit of Moonshine's seed selection *)
  jobs : int;
      (** worker domains for the prepare phase's profiling step; any
          value yields the same merged profile list (profiles are merged
          in corpus-id order), so [jobs] does not shape the plan and
          stays out of checkpoint fingerprints *)
}

val default : config

val scenario_seeds : unit -> Fuzzer.Prog.t list
(** The per-issue scenario programs, usable as a seed corpus. *)

type t = {
  cfg : config;
  env : Sched.Exec.env;
  corpus : Fuzzer.Corpus.t;
  profiles : Core.Profile.t list;
  ident : Core.Identify.t;
  frontier : Frontier.t;
      (** online PMC-cluster coverage over every Table 1 strategy; the
          sequential and parallel runners note each completed test *)
  prov : Provenance.t;
      (** per-PMC provenance (stored pairs, verdicts, hint outcomes),
          filled through {!note_result} as tests complete and exported
          with {!Provenance.write} *)
  fuzz_steps : int;  (** guest instructions spent fuzzing *)
  profile_steps : int;
}

val fuzz :
  ?seeds:Fuzzer.Prog.t list ->
  Sched.Exec.env ->
  seed:int ->
  iters:int ->
  Fuzzer.Corpus.t * int
(** Phase 1: coverage-guided sequential fuzzing; returns the corpus and
    the guest instructions spent. *)

val profile_corpus :
  Sched.Exec.env -> Fuzzer.Corpus.t -> Core.Profile.t list * int
(** Phase 2: profile every corpus test from the boot snapshot. *)

val profile_corpus_parallel :
  jobs:int ->
  kernel:Kernel.Config.t ->
  Fuzzer.Corpus.t ->
  Core.Profile.t list * int
(** Phase 2 over [jobs] worker domains.  Work-steals ({!Workpool})
    with every worker leasing a pre-booted VM from the warm pool
    ({!Sched.Exec.warm_pool}); per-test profiles land in per-entry
    result slots, so the result is identical to {!profile_corpus} for
    any [jobs] and any steal interleaving. *)

val prepare : config -> t
(** Run the input-side phases: fuzz, profile, identify. *)

val prog_of_id : t -> int -> Fuzzer.Prog.t
(** The corpus program with this id; raises [Invalid_argument] if
    unknown. *)

type bug_report = {
  br_issues : int list;  (** triaged issue ids ([] = untriaged findings) *)
  br_test : int;  (** 1-based index of the test in its method's plan *)
  br_trial : int;  (** 1-based index of the buggy trial within the test *)
  br_writer : Fuzzer.Prog.t;
  br_reader : Fuzzer.Prog.t;
  br_replay : string;  (** [Sched.Replay.to_string] of the trial's trace *)
}
(** Everything needed to re-execute a buggy trial away from the campaign
    (section 6, deterministic reproduction): the two programs plus the
    recorded switch decisions.  [snowboard explain] consumes these. *)

val bug_of_result :
  test_idx:int ->
  writer:Fuzzer.Prog.t ->
  reader:Fuzzer.Prog.t ->
  Sched.Explore.result ->
  bug_report option
(** The first buggy trial of an exploration result, if any. *)

type test_result = {
  tr_index : int;  (** 1-based index of the test in its method's plan *)
  tr_hinted : bool;
  tr_outcome : Supervise.outcome;
  tr_retries : int;
  tr_exercised : bool;
  tr_pmc_observed : bool;
  tr_issues : int list;  (** distinct issues this test found, sorted *)
  tr_unknown : int;  (** untriaged findings *)
  tr_trials : int;
  tr_steps : int;
  tr_hint_hits : int;  (** trials whose hinted channel was exercised *)
  tr_miss_no_write : int;
      (** hinted misses classified {!Sched.Explore.miss_reason_no_write} *)
  tr_miss_no_read : int;
  tr_miss_value : int;
  tr_prof : (string * int * int) list;
      (** guest-profiler rows [(function, instr, shared)] from this
          test's trials; journaled with the result and flushed exactly
          once by {!note_result}, so explore-phase profiles survive
          resume without double counting *)
  tr_bug : bug_report option;
}
(** The supervised record of one executed (or attempted) concurrent
    test: the unit the checkpoint journal stores, parallel workers ship
    back and {!stats_of_results} aggregates.  A failed attempt carries
    only its outcome — partial exploration data is discarded, like the
    paper's re-issued work-queue items. *)

type outcome_stats = {
  oc_ok : int;
  oc_timed_out : int;
  oc_crashed : int;
  oc_quarantined : int;
  oc_retries : int;  (** total retries across all tests *)
}
(** Supervision outcome tallies for one method. *)

val zero_outcomes : outcome_stats

type method_stats = {
  method_ : Core.Select.method_;
  num_clusters : int;  (** Table 3's "Exemplar PMCs" column (0 = NA) *)
  planned : int;
  executed : int;  (** concurrent tests actually run *)
  hinted : int;  (** tests generated from a PMC *)
  hint_exercised : int;  (** hinted tests whose channel occurred *)
  pmc_observed : int;  (** tests where any identified PMC occurred *)
  issues : (int * int) list;
      (** issue id paired with the 1-based test index of discovery *)
  unknown_findings : int;  (** untriaged findings (noise pool) *)
  total_trials : int;
  total_steps : int;
  bugs : bug_report list;
      (** one report per test with findings, in test order *)
  outcomes : outcome_stats;
}

val degraded : method_stats list -> bool
(** Any non-[Ok] outcome anywhere: the campaign completed but the
    harness lost work (drives the CLI's "degraded" exit code). *)

val run_one_test :
  env:Sched.Exec.env ->
  ident:Core.Identify.t ->
  cfg:config ->
  kind:Sched.Explore.kind ->
  ?sup:Supervise.policy ->
  ?faults:Sched.Fault.plan ->
  prog_of_id:(int -> Fuzzer.Prog.t) ->
  index:int ->
  Core.Select.conc_test ->
  test_result
(** Run one planned test under supervision ({!Supervise.run}) with the
    deterministic per-test seed [cfg.seed + 1000 * index].  Explicit
    environment/identification so parallel workers share this exact
    code path. *)

val note_result :
  t -> method_:Core.Select.method_ -> Core.Select.conc_test -> test_result -> unit
(** Note one completed test everywhere it must land: the coverage
    frontier, the provenance store and the explore-phase profiler cells.
    Called exactly once per (method, index) on the coordinator, in plan
    order, for fresh, parallel-shipped and resumed results alike — the
    single-note discipline keeps frontier blocks, provenance artifacts
    and flamegraphs byte-identical across [--jobs] and [--resume]. *)

val plan_method : t -> Core.Select.method_ -> budget:int -> Core.Select.plan
(** Build one method's concurrent-test plan (deterministic in the
    pipeline seed); shared by the sequential and parallel runners. *)

val stats_of_results :
  method_:Core.Select.method_ ->
  num_clusters:int ->
  planned:int ->
  test_result list ->
  method_stats
(** Fold per-test results (any order; sorted by [tr_index] internally)
    into method statistics — the single aggregation path for
    sequential, parallel and resumed campaigns. *)

val run_method :
  ?kind:Sched.Explore.kind ->
  ?sup:Supervise.policy ->
  ?faults:Sched.Fault.plan ->
  ?resume:(int -> test_result option) ->
  ?on_result:(test_result -> unit) ->
  t ->
  Core.Select.method_ ->
  budget:int ->
  method_stats
(** Spend a concurrent-test budget under one generation method.  Hinted
    tests run under [kind] (Snowboard by default); hint-less tests run
    under naive random preemption.

    [sup] is the supervision policy (default {!Supervise.default});
    [faults] a seeded fault plan to inject.  [resume] is consulted with
    each 1-based plan index before running: returning [Some r] (e.g.
    from a checkpoint journal) skips the test and reuses [r].
    [on_result] observes each freshly executed result — the checkpoint
    sink's hook — and is not called for resumed tests. *)

val run_campaign :
  ?sup:Supervise.policy ->
  ?faults:Sched.Fault.plan ->
  t ->
  budget:int ->
  method_stats list
(** All eleven paper methods with the same budget. *)

val issues_union : method_stats list -> int list
