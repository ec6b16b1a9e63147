(** Deterministic fault injection for the campaign runtime.

    The paper's cloud deployment survived flaky VMs because the work
    queue re-issued lost work (section 4.4.1); the single-machine
    harness gets the same resilience from {!Supervise}-style
    supervision, and this module provides the machinery to {e prove} it
    works: a seeded fault plan that forces trial timeouts, simulated VM
    crashes and truncated traces at reproducible points.

    Determinism rule: whether a fault fires — and at which guest step —
    is a pure function of [(plan seed, test index, trial index, retry
    attempt)].  Re-running a campaign with the same seed and fault spec
    injects exactly the same faults, and a resumed campaign draws the
    same verdicts as the uninterrupted one; keying on the attempt makes
    injected failures {e transient}, so a supervised retry can
    succeed. *)

type spec = {
  timeout_rate : float;  (** probability a trial livelocks (watchdog fires) *)
  crash_rate : float;  (** probability the guest VM "crashes" mid-trial *)
  truncate_rate : float;  (** probability the trial's trace is cut short *)
}

val none : spec

val is_none : spec -> bool

val of_string : string -> (spec, string) result
(** Parse a fault spec like ["timeout:0.05,crash:0.02,truncate:0.01"].
    Unknown fault names, rates outside [0, 1] or a total above 1 are
    errors.  Omitted faults default to rate 0. *)

val to_string : spec -> string
(** Canonical rendering; [of_string (to_string s)] round-trips. *)

type plan
(** A seeded fault plan: the spec plus the seed every draw hashes. *)

val plan : seed:int -> spec -> plan

val disabled : plan
(** The empty plan: every draw is [No_fault]. *)

type verdict =
  | No_fault
  | Timeout  (** force the trial past its step budget (watchdog fires) *)
  | Crash of int  (** raise {!Injected_crash} at this guest step *)
  | Truncate of int  (** raise {!Trace_truncated} at this guest step *)

val draw : plan -> test:int -> trial:int -> attempt:int -> verdict
(** The fault (if any) injected into this trial; pure and deterministic
    in all four inputs. *)

(** {1 Failure taxonomy}

    Raised out of the executor; {!Supervise} classifies them.  The
    watchdog timeout is also raised on {e genuine} runaway trials when a
    step budget is configured, faults or not. *)

exception Injected_crash of string
(** A simulated VM crash (transient: a retry re-draws). *)

exception Trace_truncated of string
(** The trial's trace was cut short (transient: a retry re-draws). *)

exception Watchdog_timeout of int
(** The per-trial step budget was exceeded after this many guest steps
    (deterministic for a given seed, so never retried). *)

val describe : exn -> string
(** Human-readable rendering of the taxonomy above (falls back to
    [Printexc.to_string]). *)
