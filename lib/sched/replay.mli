(** Deterministic bug reproduction (paper section 6): the guest machine
    is deterministic, so capturing a policy's switch decisions is enough
    to re-execute a bug-triggering interleaving exactly. *)

type trace = { t_first : int; t_decisions : string }
(** [t_decisions] holds one ['0'] (no switch) or ['1'] (switch) per
    decision, in order: exactly the body of {!to_string}. *)

type recorder = { policy : Exec.policy; finish : unit -> trace }

val record : Exec.policy -> recorder
(** Wrap a policy; [finish ()] returns the decisions made so far. *)

val replay : trace -> Exec.policy
(** Re-apply a captured trace verbatim; decisions beyond its length
    default to "no switch". *)

val length : trace -> int

val num_switches : trace -> int

val to_string : trace -> string
(** Compact serialisation, storable alongside a bug report. *)

val of_string : string -> trace option
