(** Memory-access records produced by the hypervisor.

    The raw material of Snowboard's pipeline: the profiler collects them per
    sequential test, Algorithm 1 pairs them into PMCs, and Algorithm 2
    matches live accesses against PMC accesses during concurrent tests. *)

type kind = Read | Write

type access = {
  thread : int;  (** guest thread (vCPU) performing the access *)
  pc : int;  (** instruction address *)
  addr : int;  (** start of the accessed range *)
  size : int;  (** range length in bytes: 1, 2, 4 or 8 *)
  kind : kind;
  value : int;  (** value read or written, zero-extended *)
  atomic : bool;  (** marked access (READ_ONCE/WRITE_ONCE analogue) *)
  sp : int;  (** stack pointer at access time, for the stack filter *)
}

val is_shared : access -> bool
(** Snowboard's shared-access filter: kernel-space and outside the 8 KiB
    aligned stack derived from the live stack pointer. *)

val is_shared_at : addr:int -> sp:int -> bool
(** [is_shared] on raw fields, for consumers (the sink execution path)
    that filter before materialising an access record. *)

val overlaps : access -> access -> bool
(** Do the byte ranges of the two accesses intersect? *)

val project_value : access -> lo:int -> hi:int -> int
(** Value restricted to the byte range [\[lo, hi)], which must lie within
    the access.  Mirrors [project_value] of Algorithm 1. *)

val overlap_range : access -> access -> (int * int) option
(** The intersection of the two byte ranges, if non-empty. *)
