(** Per-test memory-access profiles (paper section 4.1): the shared
    subset of a sequential test's kernel accesses, in execution order,
    annotated with double-fetch leaders. *)

type entry = { access : Vmm.Trace.access; df_leader : bool }

type t = { test_id : int; entries : entry array }

val of_accesses : test_id:int -> Vmm.Trace.access list -> t
(** Filter a raw trace down to shared accesses (kernel-space, non-stack)
    and compute df_leader flags: a read is a leader when a later read by
    a different instruction covers the same range with the same value and
    no write intervenes (section 4.3). *)

val of_shared : test_id:int -> Vmm.Trace.access list -> t
(** Fast-path builder for traces already filtered to shared accesses
    (e.g. by {!Sched.Exec.run_seq}): identical profiles to
    {!of_accesses} on the shared subset, without the per-write table
    copy in the double-fetch scan.  [of_accesses] is the oracle. *)

val length : t -> int

val num_writes : t -> int

val num_reads : t -> int

val num_df_leaders : t -> int
