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

(** {1 The shared-access log of a concurrent run}

    The executor ({!Sched.Exec.run_multi}) appends each shared access of
    a concurrent run to a flat log kept per domain: parallel arrays in
    execution order, across all threads, so a run builds no record or
    list cell per access.  Entry [i] holds the fields of an {!access}
    plus the kernel function the access is attributed to.  The log is
    reused by the next run on the same domain, which bumps its
    generation; a {!view} remembers the generation it was taken at, and
    {!read_view} refuses a view a later run has overwritten. *)

type log = {
  mutable gen : int;  (** bumped each time a run starts refilling the log *)
  mutable len : int;  (** entries [0 .. len - 1] are the run's *)
  mutable l_thread : int array;
  mutable l_pc : int array;
  mutable l_addr : int array;
  mutable l_size : int array;
  mutable l_write : bool array;
  mutable l_atomic : bool array;
  mutable l_value : int array;
  mutable l_sp : int array;
  mutable l_ctx : string array;  (** attributed kernel function *)
}

val make_log : unit -> log
(** An empty log at generation 0. *)

val grow : log -> unit
(** Double the log's capacity, keeping its entries.  Writers call it
    when [len] reaches the capacity ([Array.length l_pc]). *)

val push : log -> access -> ctx:string -> unit
(** Append one access with its attributed function, growing as needed:
    for adapters and tests that build a log from records.  The
    executor appends inline instead. *)

val entry : log -> int -> access
(** Entry [i] as a record (the list view's adapters). *)

type view = private { v_log : log; v_gen : int }
(** A run's entries: the log as it stood when the run returned. *)

val view : log -> view
(** The log's current entries, valid until its generation changes. *)

val read_view : view -> log
(** The log behind a view, for reading entries [0 .. len - 1] by index.
    Raises [Invalid_argument] if a later run refilled the log since the
    view was taken: one int compare per call. *)
