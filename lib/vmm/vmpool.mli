(** A warm pool of pre-booted execution resources (guest VMs in
    practice; the type is generic so tests can pool anything).

    Booting a guest — building the kernel image, running init,
    snapshotting — costs orders of magnitude more than executing one
    profiled test, which is why statically sharded parallel phases with
    a fresh VM per worker were a net slowdown: every worker domain paid
    a fresh boot per phase.  The pool amortizes that cost: a worker
    {!lease}s a machine, runs any number of tests against it (every run
    restores the boot snapshot first, so reuse is observationally
    invisible), and {!release}s it for the next phase or method.

    Leases carry {e worker affinity}.  A machine released by worker [w]
    remembers [w]; when [w] leases again it gets the same machine back
    and the dirty-page restore delta ({!Vm.restore}) is still valid —
    the cheap path.  A machine never changes hands between workers.

    Thread safety: all operations take the pool's mutex.  Booting
    happens {e outside} the lock on the leasing worker's own domain, so
    concurrent first-time leases boot in parallel rather than
    serialising behind the pool.

    Counters (registry: [snowboard.vmm/]): [vm_reuse_hits] (same-worker
    reuse) and [vm_reuse_misses] (fresh boots).  Their counts depend on
    how warm the pool already was, so they carry the ["~"-prefixed]
    unit convention that keeps them out of deterministic artifacts
    ({!Obs.Export.is_nondeterministic_unit}). *)

type 'v t

val create : boot:(unit -> 'v) -> ?on_release:('v -> unit) -> unit -> 'v t
(** A pool whose machines are built by [boot] (called lazily, on the
    leasing worker's domain, outside the pool lock).  [on_release]
    (default: no-op) runs on every machine as it is returned, before it
    rejoins the free list — the warm VM pool flushes pending per-machine
    metrics here so phase-boundary counter totals are independent of
    which machine ran which test. *)

val lease : 'v t -> worker:int -> 'v
(** Take a machine: the one this worker last released if still free
    (hit), else a fresh boot (miss).  A machine released by a
    {e different} worker is never taken — whether it would be free in
    time depends on OS scheduling, and boot counts (hence
    instruction-clock telemetry) must be a deterministic function of the
    workload alone.  Exceptions from [boot] propagate; the pool stays
    consistent. *)

val release : 'v t -> worker:int -> 'v -> unit
(** Return a machine, recording [worker]'s affinity for the next lease. *)

val booted : 'v t -> int
(** Machines ever booted by this pool. *)

val available : 'v t -> int
(** Machines currently free (not leased). *)
