(** Hand-written reproduction scenarios for the 17 issues of Table 2:
    per issue, a writer and a reader program exhibiting the relevant
    PMC, and {!reproduce}, the one hunt for an issue over its scenario.
    Used by [snowboard repro] and [diagnose], integration tests, the
    case-study examples and the interleavings-to-expose benchmark; the
    fuzzing pipeline finds the same issues from random corpora.  Section
    6's three-program relay and its chain hunt live here too. *)

type scenario = { issue : int; writer : Fuzzer.Prog.t; reader : Fuzzer.Prog.t }

val all : scenario list

val find : int -> scenario option

val progs : scenario -> Fuzzer.Prog.t array
(** [[| writer; reader |]]. *)

val identify :
  Sched.Exec.env -> Fuzzer.Prog.t array -> Core.Identify.t * Core.Pmc.t list
(** Profile the programs, program [i] as test [i], and return the
    identification result plus the PMCs that pair test 0's write with
    test 1's read, in {!Core.Identify.iter} order. *)

type attempt = {
  ident : Core.Identify.t;  (** the scenario's PMCs, from {!identify} *)
  hints_tried : int;
  trials_to_expose : int option;
      (** total interleavings across hints until the issue fired *)
  other_issues : int list;  (** distinct other issues seen on the way *)
  exposed : Sched.Explore.trial option;
      (** the trial that exposed the issue; its [replay] re-executes it
          ({!Sched.Explore.check} under {!Sched.Replay.replay}) *)
}

val reproduce :
  Sched.Exec.env ->
  scenario ->
  kind:Sched.Explore.kind ->
  ?trials:int ->
  seed:int ->
  unit ->
  attempt
(** Drive the scenario under a scheduler: one {!Sched.Explore.run} of up
    to [trials] (default 64) interleavings per hinted PMC, hint [i]
    (from 1) seeded with [seed + 131 i], until the target issue fires or
    the hints are exhausted.  [snowboard repro] and [snowboard diagnose]
    both hunt through this. *)

val relay : Fuzzer.Prog.t array
(** Section 6's relay programs: producer, forwarder and consumer.  No two
    of them can crash the kernel; all three can. *)

type relay_hunt = {
  pmcs : int;  (** PMCs identified across the three programs *)
  chains : int;  (** PMC chains joining them *)
  crash : (Core.Chain.t * Sched.Explore.result) option;
      (** the first chain whose exploration crashed the kernel, and that
          exploration (its [first_bug] is set) *)
}

val hunt_relay : Sched.Exec.env -> seed:int -> relay_hunt
(** Identify the relay's PMC chains and run {!Sched.Explore.run_chain}
    (64 trials, stopping at the first finding) on up to 12 exemplars
    ({!Core.Chain.select} with an RNG seeded [seed]), chain [i] (from 0)
    seeded with [seed + 37 i], until one crashes the kernel. *)
