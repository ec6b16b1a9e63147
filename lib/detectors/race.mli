(** Happens-before data-race detection over the serialized event stream
    (the role of the paper's stock detectors, DataCollider / SKI's
    runtime detector).

    Each of [nthreads] threads (two for a concurrent test, three for the
    section 6 chain extension) carries a full vector clock.  Each shared
    guest byte keeps its last write and, per thread, its last read, with
    the clock, marked flag, pc and attributed function of each, plus a
    release clock.  Synchronisation edges come from marked (atomic)
    store -> marked load pairs on the same cell, which covers spinlocks
    (CAS acquire / marked release store), RCU publish/subscribe and
    READ_ONCE/WRITE_ONCE pairs.  Conflicting accesses (overlap, at least
    one write) that are unordered and not both marked are data races -
    the kernel's KCSAN convention.

    Byte state is kept per 8-byte granule.  While a granule's eight
    bytes share one state, an aligned 8-byte access checks and records
    it once; any other access works byte by byte.  Either way the
    reports are those of a byte-by-byte check.

    The byte state lives in a table each domain lends to one detector at
    a time, so a detector must be finished with {!reports} before its
    table can serve the next one.  An unfinished detector costs only
    speed: the next {!create} builds a private table. *)

type report = {
  addr : int;  (** first racing byte *)
  write_pc : int;
  other_pc : int;
  other_kind : Vmm.Trace.kind;  (** the second access's kind *)
  write_ctx : string;  (** attributed kernel function of the write *)
  other_ctx : string;
}

type t

val create : ?nthreads:int -> unit -> t
(** Fresh detector state for one concurrent trial over threads
    [0 .. nthreads - 1] (default 2).  Raises [Invalid_argument] unless
    [1 <= nthreads <= 127]. *)

val on_shared :
  t ->
  thread:int ->
  pc:int ->
  addr:int ->
  size:int ->
  write:bool ->
  atomic:bool ->
  ctx:string ->
  unit
(** Feed one shared access by its fields, with its attributed function:
    the entry point for a run's {!Vmm.Trace.log}, whose entries are all
    shared, so nothing is filtered here.  {!Sched.Explore.check} feeds
    the whole log through it after the run.  Allocates nothing once the
    table holds the access's granules and the function is interned.
    Raises [Invalid_argument] once {!reports} has been called: the
    detector no longer owns its table. *)

val on_access : t -> Vmm.Trace.access -> ctx:string -> unit
(** {!on_shared} on a record, for list-shaped callers.  Non-shared
    accesses (stack, user space) are ignored.  Raises
    [Invalid_argument] once {!reports} has been called. *)

val reports : t -> report list
(** Reports in detection order, deduplicated by (write pc, other pc).
    The first call ends the detector's feed and hands its table back for
    reuse; later calls return the same list. *)

val num_reports : t -> int
