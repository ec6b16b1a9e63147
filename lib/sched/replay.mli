(** Deterministic bug reproduction (paper section 6): the guest machine
    is deterministic, so capturing a policy's switch decisions is enough
    to re-execute a bug-triggering interleaving exactly. *)

type trace = { t_first : int; t_decisions : string; t_event_only : bool }
(** [t_decisions] holds one ['0'] (no switch) or ['1'] (switch) per
    policy consultation, in order: exactly the body of {!to_string}.
    [t_event_only] is the cadence they were recorded at: the recorded
    policy's {!Exec.policy.event_only}, so [true] means one
    consultation per concurrent block and [false] one per
    instruction. *)

type recorder = { policy : Exec.policy; finish : unit -> trace }

val record : Exec.policy -> recorder
(** Wrap a policy: each [decide] call appends one byte and nothing
    else.  [finish ()] returns the decisions made so far, at the wrapped
    policy's cadence. *)

val replay : trace -> Exec.policy
(** Re-apply a captured trace verbatim, declaring the cadence it was
    recorded at as [event_only], so a batched trace replays in whole
    blocks and a per-step one an instruction at a time.  Decisions
    beyond its length default to "no switch". *)

val length : trace -> int
(** The number of recorded consultations. *)

val num_switches : trace -> int

val to_string : trace -> string
(** Compact serialisation, storable alongside a bug report:
    ["FIRST:BITS"] for a per-step trace (the form every older report
    holds) and ["FIRST;BITS"] for a batched one. *)

val of_string : string -> trace option
(** The inverse of {!to_string}; [None] on anything else. *)
