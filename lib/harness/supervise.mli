(** Supervised trial execution: the campaign-side half of the resilience
    story (the executor-side half is {!Sched.Fault}).

    The paper's cloud deployment ran tests under a work queue that
    re-issued lost work when a VM died (section 4.4.1).  This module is
    the single-machine analogue: every concurrent test runs under a
    supervisor that enforces a per-trial step budget, classifies
    failures, retries transient ones at once and quarantines tests that
    exhaust their retries — so one sick test (or injected fault)
    degrades the campaign instead of killing it.

    Determinism rule: a retry re-runs the test with the next attempt
    number and nothing else changes — no wall clock, no pause, no
    global RNG — so a supervised campaign is exactly as reproducible as
    an unsupervised one. *)

type outcome =
  | Ok  (** the test ran to completion (bugs found or not) *)
  | Timed_out of int
      (** the watchdog fired after this many guest steps; deterministic
          for a given seed, so never retried *)
  | Crashed of string  (** a non-transient harness failure; not retried *)
  | Quarantined of string
      (** transient failures exhausted every retry; the test is benched
          and its partial results discarded *)

val outcome_name : outcome -> string
(** Stable labels: ["ok"], ["timeout"], ["crashed"], ["quarantined"]. *)

val is_ok : outcome -> bool

val pp_outcome : Format.formatter -> outcome -> unit

type policy = {
  step_budget : int option;
      (** per-trial watchdog in guest steps; [None] disables it *)
  max_retries : int;  (** retries after the first attempt (so
      [max_retries + 1] attempts total) *)
}

val default : policy
(** No step budget, 2 retries. *)

type 'a supervised = {
  sv_result : 'a option;  (** [Some] iff the outcome is [Ok] *)
  sv_outcome : outcome;
  sv_retries : int;  (** retries actually performed *)
}

val run : ?policy:policy -> (attempt:int -> 'a) -> 'a supervised
(** Run [f ~attempt:0] under supervision.  {!Sched.Fault.Watchdog_timeout}
    becomes [Timed_out]; the transient taxonomy ({!Sched.Fault.Injected_crash},
    {!Sched.Fault.Trace_truncated}) is retried — [f ~attempt:k] for
    successive [k] — up to [policy.max_retries] times and then
    [Quarantined]; any other exception is [Crashed] immediately.  The
    [attempt] index lets the callee re-draw attempt-keyed fault verdicts,
    which is what makes injected failures transient. *)

val describe : exn -> string
(** Re-export of {!Sched.Fault.describe}. *)
