(** The test execution framework (paper sections 4.1 and 4.4): runs
    sequential tests for profiling and fuzzing, and concurrent tests
    under a pluggable scheduling policy, all from the boot snapshot.

    Every runner but {!run_seq_step} executes the kernel's threaded code
    ([env.tcode]) through {!Vmm.Vm.run_tblock} or
    {!Vmm.Vm.run_tblock_conc}, writing events into a {!Vmm.Vm.sink}
    (one per domain, shared by every runner), and allocates nothing per
    instruction, memory-touching ones included; sequential runs retire
    plain instructions in blocks.  What a run does allocate is its
    product: one {!Vmm.Trace.access} record and list cell per access it
    reports (every access for [run_seq], the shared ones for the other
    runners), the final [List.rev], and the result record.
    {!run_seq_step} drives the list-returning {!Vmm.Vm.step}, the
    observational-equivalence oracle and benchmark baseline.

    The executor also maintains per-thread shadow call stacks and
    attributes every access to the innermost non-helper kernel function,
    which is how the race detector and the oracle name racing code. *)

val src : Logs.src
(** The [snowboard.sched] log source, shared by the execution and
    exploration layers. *)

val helper_functions : string list
(** Runtime helpers (memcpy, locks, allocator internals, ...) skipped by
    access attribution. *)

type attr
(** Cached access attribution for one kernel image: per-pc function name,
    is-helper bit and interned {!Obs.Profguest} function id, precomputed
    so attributing an access is two array reads instead of a name lookup
    plus a list scan. *)

val attr_of_image : Vmm.Asm.image -> attr

val attr_name : attr -> int -> string
(** Function containing [pc]; total like {!Vmm.Asm.func_name} — an
    out-of-range or padding pc yields [Vmm.Asm.unknown_name pc]. *)

val attr_is_helper : attr -> int -> bool
(** Is [pc] inside one of {!helper_functions}?  [false] out of range. *)

val attr_fid : attr -> int -> int
(** Profiler fid of the function containing [pc]; out-of-image pcs intern
    their unknown name on the fly (slow path). *)

type env = {
  kern : Kernel.t;
  vm : Vmm.Vm.t;
  snap : Vmm.Vm.snap;
  attr : attr;  (** attribution cache for [kern]'s image *)
  tcode : Vmm.Tcode.t;
      (** threaded-code form of [kern]'s image, decoded once by
          {!make_env} via {!Vmm.Tcode.of_image}; it lives and dies with
          the env *)
}

val make_env : Kernel.Config.t -> env
(** Build the kernel image, decode its threaded code, boot it on that
    code and snapshot the booted state. *)

val warm_pool : Kernel.Config.t -> env Vmm.Vmpool.t
(** The process-wide warm pool of booted environments for this kernel
    configuration (created on first use; subsequent calls return the
    same pool).  Both parallel phases lease their per-worker envs here,
    so boots amortize across batches, methods and campaigns.  Safe
    because every run restores [env.snap] first: a pooled env carries
    boot cost, never guest state.  Lease transfer between workers
    invalidates the dirty-page delta ({!Vmm.Vm.invalidate_delta}), so
    the new owner's first restore full-blits and re-arms. *)

val with_setup : env -> Fuzzer.Prog.t -> env
(** A derived environment whose snapshot is taken after running a setup
    program from the parent snapshot (section 4.1's "grow the number of
    initial kernel states").  Raises [Invalid_argument] if the setup
    program panics. *)

type observer = {
  on_access : Vmm.Trace.access -> ctx:string -> unit;
      (** called for every shared kernel access with its attributed
          function *)
  on_event : Obs.Event.kind -> tid:int -> unit;
      (** flight-recorder feed; only called while [Obs.Event.enabled ()]
          is true, so a custom sink never pays when recording is off *)
}

val null_observer : observer
(** Ignores everything. *)

val default_observer : observer
(** Routes executor events into the global flight recorder
    ({!Obs.Event.emit}).  Extend it with functional update —
    [{ default_observer with on_access = ... }] — to keep recording
    working under a detector. *)

type seq_result = {
  sq_accesses : Vmm.Trace.access list;  (** all traced accesses in order *)
  sq_console : string list;
  sq_panicked : bool;
  sq_retvals : int array;
  sq_steps : int;
  sq_edges : (int * int) list;  (** control-flow edges covered *)
}

val syscall_budget : int
(** Instruction budget per system call; exceeding it aborts the test. *)

val run_seq : env -> tid:int -> Fuzzer.Prog.t -> seq_result
(** Restore the snapshot and run the program to completion on one vCPU,
    in {!Vmm.Vm.run_tblock} blocks over [env.tcode].  The fuzzing path.
    Observationally identical to {!run_seq_step} (same accesses, console,
    retvals, step counts and coverage edges). *)

val run_seq_shared : env -> tid:int -> Fuzzer.Prog.t -> seq_result
(** {!run_seq}, but [sq_accesses] holds only the *shared* accesses
    (kernel-space, non-stack), filtered on the sink's raw fields before
    any record is allocated, and [sq_edges] is left empty (profiling
    consumes neither coverage nor private accesses).  Equals
    {!run_seq_step} with its [sq_accesses] filtered through
    {!Vmm.Trace.is_shared} and its [sq_edges] dropped; every other field
    is identical.  The profiling pipeline's fast path — feed the result
    to {!Core.Profile.of_shared}.  When {!Obs.Profguest} is enabled, the
    run's per-function instruction/shared counts are flushed into the
    profiler's [Profile] phase (exact: a block never crosses a function
    boundary). *)

val run_seq_step : env -> tid:int -> Fuzzer.Prog.t -> seq_result
(** [run_seq] one instruction per {!Vmm.Vm.step} call: the
    list-returning interpreter, kept as the observational-equivalence
    oracle and benchmark baseline.  The only caller of {!Vmm.Vm.step}. *)

val note_throughput : steps:int -> seconds:float -> unit
(** Record a measured interpreter throughput in the
    [snowboard.sched/steps_per_sec] gauge.  The executor owns the gauge
    but cannot measure wall time (no unix dependency); the bench calls
    this.  The gauge's rate unit keeps it out of deterministic
    artifacts. *)

type policy = {
  first : int;  (** thread scheduled first *)
  decide : int -> Vmm.Vm.sink -> bool;
      (** called after every instruction with the thread and the sink
          frame holding that instruction's events; [true] requests a
          switch to the next runnable thread *)
  event_only : bool;
      (** declares that [decide] inspects only sink-recorded events
          (accesses and the singleton fields — never [sk_steps]) and, on
          a sink holding no events, returns [false] without side effects
          or random draws.  {!run_multi} then batches runs of plain
          instructions through {!Vmm.Vm.run_tblock_conc} between
          decision points; the skipped consultations are reported
          through [on_plain].  Set [false] for policies that step-count
          (PCT's change points) or replay a per-instruction trace. *)
  on_plain : int -> unit;
      (** [on_plain k]: the executor retired [k] plain instructions for
          which [decide] was provably "no switch" and was not called.
          Recorders append [k] '0's so traces recorded under batching
          replay byte-identically on the per-step loop (and vice versa);
          everyone else passes [ignore]. *)
}

type conc_result = {
  cc_console : string list;
  cc_panicked : bool;
  cc_deadlocked : bool;
  cc_steps : int;
  cc_switches : int;  (** vCPU switches performed *)
  cc_accesses : Vmm.Trace.access list array;  (** shared accesses per thread *)
  cc_retvals : int array array;
}

val conc_budget : int
(** Global instruction budget for one concurrent trial. *)

val injected_timeout_horizon : int
(** The effective step budget an injected {!Fault.Timeout} clamps the
    watchdog to, so the trial reliably "livelocks" even without a
    configured budget. *)

val run_multi :
  env ->
  progs:Fuzzer.Prog.t array ->
  policy:policy ->
  ?observer:observer ->
  ?watchdog:int ->
  ?fault:Fault.verdict ->
  ?prof:Obs.Profguest.collector ->
  unit ->
  conc_result
(** Restore the snapshot and interleave one program per vCPU (up to
    [Vmm.Layout.max_threads]; the paper uses two, the section 6 extension
    three).  On a switch request the executor rotates round-robin to the
    next runnable thread.  A spinning thread (Pause) is forcibly
    descheduled (the is_live heuristic); a panic ends the trial.

    For policies declaring [event_only], runs of plain instructions are
    batched through {!Vmm.Vm.run_tblock_conc} between decision points:
    the block stops at every event-producing instruction, so
    [policy.decide] keeps its exact per-instruction cadence at events,
    abort thresholds (budget, watchdog, injected faults) are clamped
    into the block quantum so they fire at the per-step loop's exact
    step counts, and [policy.on_plain] reports the skipped
    provably-"no switch" consultations — schedules, replay traces and
    flight-recorder streams are byte-identical to per-step stepping.
    Other policies (PCT, {!Replay.replay}) are consulted after every
    instruction: they run one instruction per {!Vmm.Vm.run_tblock_conc}
    call at quantum 1.
    Either way the executor allocates nothing per step; per shared
    access it allocates the {!Vmm.Trace.access} record and list cell
    that [cc_accesses] and [observer.on_access] receive, and per trial
    the thread records, shadow stacks and result.  (The policy and
    recorder are the caller's: Snowboard's and the naive policy's
    [decide] allocate nothing, and {!Replay.record} appends a byte per
    decision to a growing buffer.)  The flight recorder's clock is
    installed only while {!Obs.Event.enabled}, so an unrecorded trial
    leaves no reference to [env] behind.

    [watchdog] is a per-trial step budget: exceeding it raises
    {!Fault.Watchdog_timeout} (unlike [conc_budget], which merely flags
    the trial as deadlocked).  [fault] (default [Fault.No_fault]) applies
    one drawn fault verdict: [Crash]/[Truncate] raise the matching
    exception at the drawn step, [Timeout] clamps the watchdog to
    {!injected_timeout_horizon}.  These exceptions escape to the caller;
    {!Snowboard_harness.Supervise} is the intended handler.

    [prof] (default inactive) is a guest-profiler collector; when active,
    every retired instruction and shared access is attributed to its
    enclosing function (one fid-array read and two int adds per step). *)

val run_conc :
  env ->
  writer:Fuzzer.Prog.t ->
  reader:Fuzzer.Prog.t ->
  policy:policy ->
  ?observer:observer ->
  ?watchdog:int ->
  ?fault:Fault.verdict ->
  ?prof:Obs.Profguest.collector ->
  unit ->
  conc_result
(** [run_multi] specialised to the paper's two-thread setting: the
    writer on vCPU 0, the reader on vCPU 1. *)
