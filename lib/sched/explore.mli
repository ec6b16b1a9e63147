(** Interleaving exploration of one concurrent test: the outer loop of
    Algorithm 2.  Each trial reseeds the RNG with SEED + trial, restores
    the boot snapshot and runs the two tests under the chosen scheduler
    with the race detector and console checker attached; incidental PMCs
    discovered in a trial join the set under test.  {!run_chain} is the
    section 6 extension over three programs, on the same loop.

    {!check} is the one checked trial: every driver of a concurrent run
    that wants bug verdicts ({!run}, {!run_chain}, {!replay},
    {!Enumerate.run} and the feedback loop) goes through it. *)

type kind =
  | Snowboard  (** Algorithm 2 with the PMC as scheduling hint *)
  | Ski  (** instruction-triggered yields, no memory-target check *)
  | Naive of int  (** random preemption with the given period *)
  | Pct of int  (** PCT with this depth (change points over ~1000 steps) *)

val kind_name : kind -> string

type checked = {
  run : Exec.conc_result;
  races : Detectors.Race.report list;
      (** the race detector's reports, in detection order *)
  findings : Detectors.Oracle.finding list;
      (** {!Detectors.Oracle.analyze} over [races], the console and the
          deadlock verdict *)
}

val check :
  Exec.env ->
  progs:Fuzzer.Prog.t array ->
  policy:Exec.policy ->
  ?watchdog:int ->
  ?fault:Fault.verdict ->
  ?prof:Obs.Profguest.collector ->
  unit ->
  checked
(** Run one interleaving through {!Exec.run_multi} with a
    {!Detectors.Race} detector over [Array.length progs] threads spliced
    into {!Exec.default_observer}, then finish the detector and triage
    the trial.  Exceptions of the run ({!Fault.Watchdog_timeout},
    injected faults) escape unchanged, after the detector has handed its
    table back to the domain. *)

val replay :
  Exec.env ->
  progs:Fuzzer.Prog.t array ->
  Replay.trace ->
  checked * Obs.Event.t list
(** Re-execute a recorded trial ({!check} under {!Replay.replay}) with
    the flight recorder on, and return it with the events it recorded;
    the recorder is off again afterwards.  [snowboard diagnose] and
    [explain] replay through this. *)

type trial = {
  findings : Detectors.Oracle.finding list;
  issues : int list;
  exercised : bool;
      (** the hinted PMC channel actually occurred; [false] under
          {!run_chain} *)
  steps : int;
  replay : Replay.trace;
      (** the trial's recorded switch decisions, enough to re-execute it
          exactly ({!Replay.replay}) *)
}

(** What an exploration found.  {!run_chain} has no single hint: its
    hint and PMC fields read [false] and [0]. *)
type result = {
  trials : trial list;
  first_bug : int option;  (** 1-based index of the first buggy trial *)
  any_exercised : bool;
  any_pmc_observed : bool;
      (** some identified PMC (hinted or not) had its write and read
          occur in opposite threads during some trial *)
  total_steps : int;
  total_switches : int;
  hint_hits : int;  (** trials whose hinted channel was exercised *)
  miss_no_write : int;
      (** hinted misses where the write side never executed *)
  miss_no_read : int;
      (** hinted misses where the write landed but the reader never
          reached the hinted access *)
  miss_value : int;
      (** hinted misses where both sides ran but the value read was the
          profiled (sequential) one *)
  prof : (string * int * int) list;
      (** guest-profiler rows [(function, instr, shared)] over all
          trials, sorted by name; [[]] while {!Obs.Profguest} is
          disabled.  The caller flushes these exactly once (they ride in
          test results and the checkpoint journal for resume). *)
}

val miss_reason_no_write : string
(** ["write-never-executed"]. *)

val miss_reason_no_read : string
(** ["reader-preempted"]. *)

val miss_reason_value : string
(** ["value-mismatch"]. *)

val classify_miss : Core.Pmc.t -> Exec.conc_result -> string
(** Why a hinted trial missed, as one of the three reasons above;
    carried on {!Obs.Event.kind.Hint_miss}. *)

val channel_exercised : Core.Pmc.t option -> Exec.conc_result -> bool
(** Section 5.3.2's accuracy proxy: the hinted write occurred in the
    writer thread and a matching read in the reader thread saw a value
    different from its sequential profile. *)

val run :
  Exec.env ->
  ident:Core.Identify.t option ->
  writer:Fuzzer.Prog.t ->
  reader:Fuzzer.Prog.t ->
  hint:Core.Pmc.t option ->
  kind:kind ->
  ?trials:int ->
  seed:int ->
  ?stop_on_bug:bool ->
  ?target_issue:int option ->
  ?watchdog:int ->
  ?fault:Fault.plan * int ->
  ?attempt:int ->
  unit ->
  result
(** Explore up to [trials] (default 64, the paper's per-PMC trial cap)
    interleavings.  With [stop_on_bug], stop at the first finding (or at
    the first [target_issue] hit if given).

    [watchdog] caps every trial at that many guest steps, raising
    {!Fault.Watchdog_timeout} past it.  [fault] is a seeded fault plan
    plus this test's global 1-based index; each trial then draws
    [Fault.draw plan ~test ~trial ~attempt] and applies the verdict
    ({!Exec.run_multi}).  [attempt] (default 0) is the supervised retry
    attempt, so re-runs of a faulted test draw fresh verdicts.  Fault
    and watchdog exceptions escape to the caller mid-exploration. *)

val run_chain :
  Exec.env ->
  progs:Fuzzer.Prog.t array ->
  chain:Core.Chain.t option ->
  ?trials:int ->
  seed:int ->
  ?stop_on_bug:bool ->
  unit ->
  result
(** Three-thread exploration over a PMC chain (the paper's section 6
    extension): {!run}'s trial loop over [Array.length progs] vCPUs
    under Algorithm 2's policy, with both chain PMCs under test from the
    first trial and no incidental adoption, for up to [trials] (default
    64) interleavings, stopping at the first finding with [stop_on_bug]
    (default [true]).  With more than two programs, a second draw after
    the policy's own picks the thread that starts. *)

val issues_found : result -> int list

val findings_found : result -> Detectors.Oracle.finding list
