(** Crash-consistent storage primitives: the single gateway every
    on-disk artifact goes through.

    Two write disciplines are offered.  {!write_atomic} is for
    whole-document artifacts (summaries, provenance, metrics,
    flamegraphs, traces): it writes a unique pid-suffixed temp file,
    fsyncs the data, renames over the destination and fsyncs the
    containing directory, so a crash at any instant leaves either the
    old complete document or the new complete document — never a torn
    one.  {!chan} is for append/stream destinations (the checkpoint
    journal, the telemetry NDJSON stream): every {!chan_write} pushes
    the bytes and fsyncs, so a crash loses at most the write in flight.

    Failures are typed ({!err}: [Enospc]/[Eio]/[Other]) and retried a
    bounded, deterministic number of times ({!max_attempts});
    exhausting the retries records a degradation ({!degraded}) and
    returns [Error] instead of raising, so a long campaign keeps
    running and merely reports [degraded: storage] at exit.

    Every write site is named (a {e crashpoint}).  {!arm_crash} makes
    the k-th write at a site simulate a power loss: the write is torn
    in half (the first half of the bytes reach the file, nothing is
    fsynced or renamed) and the process is killed with
    {!crash_exit_code} without running [at_exit] hooks — exactly what
    the machine losing power mid-write would leave behind.  Tests use
    [mode:Raise] to get the torn write plus a {!Crash_simulated}
    exception instead of process death.

    The layer also owns the storage counters
    ([snowboard.storage/bytes_written], [fsyncs], [write_retries],
    [recovered_records], [dropped_tail_records]) surfaced through the
    ordinary metrics registry. *)

type err =
  | Enospc  (** no space left on device *)
  | Eio  (** I/O error reported by the OS *)
  | Other of string

val err_to_string : err -> string

val max_attempts : int
(** Bounded deterministic retry: each write is attempted at most this
    many times (no sleeps — determinism over politeness). *)

(** {1 Sites and crashpoints} *)

type crash_mode =
  | Kill  (** tear the write, then [Unix._exit crash_exit_code] *)
  | Raise  (** tear the write, then raise {!Crash_simulated} (tests) *)

exception Crash_simulated of string
(** Raised (in [Raise] mode) after the torn write; the payload names
    the site. *)

val crash_exit_code : int
(** Exit status of a simulated power loss (42), distinct from every
    campaign exit code. *)

val arm_crash : ?mode:crash_mode -> site:string -> k:int -> unit -> unit
(** Arm the crashpoint: the [k]-th (1-based) write attempt at [site]
    {e after arming} tears and crashes.  Site ["any"] matches the
    [k]-th durable write overall.  Only one plan is armed at a time. *)

val arm_crash_seeded : ?mode:crash_mode -> seed:int -> unit -> unit
(** A seeded plan: deterministically derives an ["any":k] crashpoint
    from [seed], for sweeping crash placements without naming sites. *)

val disarm_crash : unit -> unit

val parse_crash_spec : string -> (string * int, string) result
(** Parse a [--crash-at] argument ["site:k"] (or ["seed:N"], mapped by
    {!arm_crash_seeded}'s rule). *)

(** {1 Fault injection (tests)} *)

val set_fault_injector : (site:string -> attempt:int -> err option) option -> unit
(** When set, consulted before each write attempt; returning [Some e]
    makes that attempt fail with [e] without touching the disk. Lets
    tests exercise the ENOSPC/EIO retry and degradation paths
    deterministically. *)

(** {1 Degradation} *)

val degraded : unit -> (string * err) list
(** Writes that exhausted their retries, oldest first: (site, error).
    Non-empty means the campaign must exit 3 ([degraded: storage]). *)

val reset_degraded : unit -> unit

val note_recovered : records:int -> dropped:int -> unit
(** Bump the [recovered_records]/[dropped_tail_records] counters; the
    journal reader (Harness.Durable) reports its recovery through
    this. *)

(** {1 Atomic whole-document writes} *)

val write_atomic : site:string -> path:string -> string -> (unit, err) result
(** Unique temp + fsync file + rename + fsync dir.  On [Error] the
    destination is untouched (a stale temp may remain, as after a real
    crash; see {!sweep_stale_tmp}). *)

val sweep_stale_tmp : string -> int
(** Remove stale [path.*.tmp] files left next to [path] by crashed
    writers; returns how many were removed. *)

(** {1 Append/stream channels} *)

type chan

val open_chan : site:string -> ?append:bool -> string -> (chan, err) result
(** Open [path] for durable streaming writes ([append:false], the
    default, truncates). *)

val chan_write : chan -> string -> (unit, err) result
(** Write the bytes and fsync; the unit a crash can tear. *)

val close_chan : chan -> unit
