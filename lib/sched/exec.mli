(** The test execution framework (paper sections 4.1 and 4.4): runs
    sequential tests for profiling and fuzzing, and concurrent tests
    under a pluggable scheduling policy, all from the boot snapshot.

    Two runners execute the kernel's threaded code ([env.tcode]):
    {!run_seq} through {!Vmm.Vm.run_tblock} and {!run_multi} through
    {!Vmm.Vm.run_tblock_conc}.  Both write events into a {!Vmm.Vm.sink}
    (one per domain, shared by every runner) and allocate nothing per
    instruction, memory-touching ones included; both retire
    instructions in blocks.  A concurrent block ends only where the
    executor or an event-only policy acts: a shared access, a pause, a
    return to user space, a halt, panic or fault, or a console line.
    What a run does allocate is its product: one {!Vmm.Trace.access}
    record and list cell per *shared* access, the final [List.rev], and
    the result record.  {!run_seq_step} drives the list-returning
    {!Vmm.Vm.step}, the observational-equivalence oracle and benchmark
    baseline.

    The executor also maintains per-thread shadow call stacks, replayed
    from each block's frame log, and attributes every access to the
    innermost non-helper kernel function, which is how the race detector
    and the oracle name racing code. *)

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

val lease_env : Kernel.Config.t -> worker:int -> env
(** The env worker [worker] last returned with {!release_env} for this
    kernel configuration, taken out so no one else can lease it; or, if
    there is none, a fresh {!make_env} booted on the calling domain.
    Both parallel phases lease their per-worker envs here, so boots
    amortize across batches, methods and campaigns.  A worker never
    gets an env another worker returned: whether one would be free in
    time depends on OS scheduling, and boot counts (hence
    instruction-clock telemetry) must depend on the workload alone.
    Safe because every run restores [env.snap] first: a kept env
    carries boot cost, never guest state. *)

val release_env : worker:int -> env -> unit
(** Flush the VM's pending counters ({!Vmm.Vm.flush_stats}) and keep
    [env] as worker [worker]'s env for its configuration, replacing any
    env kept there before. *)

type observer = {
  on_access : Vmm.Trace.access -> ctx:string -> unit;
      (** called for every shared kernel access with its attributed
          function *)
  on_event : Obs.Event.kind -> tid:int -> unit;
      (** flight-recorder feed; only called while [Obs.Event.enabled ()]
          is true, so a custom sink never pays when recording is off *)
}

val default_observer : observer
(** Routes executor events into the global flight recorder
    ({!Obs.Event.emit}) and ignores accesses.  The bug oracles attach
    through {!Explore.check}, which splices the race detector into this
    observer's [on_access]; a run that wants verdicts goes through
    [check] rather than wiring a detector itself. *)

type frames
(** A shadow call stack: the pcs of the kernel functions a vCPU has
    entered and not yet left, innermost last.  {!run_multi} keeps one
    per vCPU and domain, reused across trials, and attributes each
    shared access to the innermost non-helper frame. *)

val make_frames : unit -> frames

val frames_depth : frames -> int

val apply_frames : frames -> Vmm.Vm.sink -> unit
(** Replay a block's frame log ({!Vmm.Vm.sink}) onto the stack: each
    logged call pushes the pc it entered, each return pops.  Allocates
    nothing unless the stack outgrows its array. *)

type seq_result = {
  sq_accesses : Vmm.Trace.access list;  (** shared accesses, in order *)
  sq_console : string list;
  sq_panicked : bool;
  sq_retvals : int array;
  sq_steps : int;
  sq_edges : (int * int) list;  (** control-flow edges covered *)
}

val syscall_budget : int
(** Instruction budget per system call; exceeding it aborts the test. *)

val run_seq :
  ?prof:Obs.Profguest.collector -> env -> tid:int -> Fuzzer.Prog.t -> seq_result
(** Restore the snapshot and run the program to completion on one vCPU,
    in {!Vmm.Vm.run_tblock} blocks over [env.tcode]: the sequential
    runner for fuzzing, profiling ({!Core.Profile.of_shared}) and
    {!with_setup}.  Only shared accesses (kernel-space, non-stack)
    become records, filtered on the sink's raw fields.  Equals
    {!run_seq_step} with [sq_accesses] filtered through
    {!Vmm.Trace.is_shared}, final VM state included.

    [prof] (default inactive) is a caller-owned guest-profiler
    collector; when active, each block's instructions and shared
    accesses are charged to the function at its starting pc (exact: a
    block never crosses a function boundary).  The caller flushes it. *)

val run_seq_step : env -> tid:int -> Fuzzer.Prog.t -> seq_result
(** {!run_seq} one instruction per {!Vmm.Vm.step} call, returning every
    access: the list-returning interpreter, kept as the
    observational-equivalence oracle and benchmark baseline.  The only
    caller of {!Vmm.Vm.step}. *)

val with_setup : env -> Fuzzer.Prog.t -> env
(** A derived environment whose snapshot is taken after running a setup
    program on vCPU 0 with {!run_seq} from the parent snapshot (section
    4.1's "grow the number of initial kernel states").  Raises
    [Invalid_argument] if the setup program panics. *)

val note_throughput : steps:int -> seconds:float -> unit
(** Record a measured interpreter throughput in the
    [snowboard.sched/steps_per_sec] gauge.  The executor owns the gauge
    but cannot measure wall time (no unix dependency); the bench calls
    this.  The gauge's rate unit keeps it out of deterministic
    artifacts. *)

type policy = {
  first : int;  (** thread scheduled first *)
  decide : int -> Vmm.Vm.sink -> bool;
      (** called with the thread and the sink frame of the block that
          just ran; [true] requests a switch to the next runnable
          thread.  A per-step policy sees one instruction per call. *)
  event_only : bool;
      (** declares the event-only contract: [decide] reads only the
          sink's shared accesses ([sk_acc_shared]), never [sk_steps],
          non-shared accesses, or the call, return, lock and RCU fields;
          and on a sink with no shared access it returns [false] with no
          side effect and no random draw.  {!run_multi} then runs whole
          {!Vmm.Vm.run_tblock_conc} blocks, consults [decide] only on a
          block's last instruction (where any shared access sits), and
          reports the skipped consultations through [on_plain].  Set
          [false] for policies that step-count (PCT's change points) or
          replay a per-instruction trace. *)
  on_plain : int -> unit;
      (** [on_plain k]: the executor retired [k] instructions for which
          [decide] was provably "no switch" and was not called.
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

    For policies declaring [event_only], each {!Vmm.Vm.run_tblock_conc}
    block runs to the next decision point (a shared access, a pause, a
    return to user space, a halt, panic or fault, or a console line),
    crossing plain instructions, stack accesses, lock and RCU hypercalls
    and calls and returns; [policy.decide] is consulted on the block's
    last instruction, and [policy.on_plain] reports the skipped
    provably-"no switch" consultations.  Abort thresholds (budget,
    watchdog, injected faults) are clamped into the block quantum so
    they fire at the per-step loop's exact step counts.  Schedules,
    replay traces, flight-recorder streams, observer streams and
    profiler rows are byte-identical to per-step stepping (a panicking
    trial's trace stops at the last decision on an event-producing
    instruction, the panicking thread's final plain stretch unrecorded).
    Other policies (PCT, {!Replay.replay}) are consulted after every
    instruction: they run one instruction per {!Vmm.Vm.run_tblock_conc}
    call at quantum 1, on the same path.
    Either way the executor allocates nothing per step or switch; per
    shared access it allocates the {!Vmm.Trace.access} record and list
    cell that [cc_accesses] and [observer.on_access] receive, and per
    trial the thread records and result (the shadow stacks are
    per-domain and reused).  (The policy and recorder are the caller's:
    Snowboard's and the naive policy's [decide] allocate nothing, and
    {!Replay.record} appends a byte per decision to a growing buffer.)
    The flight recorder's clock is installed only while
    {!Obs.Event.enabled}, so an unrecorded trial leaves no reference to
    [env] behind.

    [watchdog] is a per-trial step budget: exceeding it raises
    {!Fault.Watchdog_timeout} (unlike [conc_budget], which merely flags
    the trial as deadlocked).  [fault] (default [Fault.No_fault]) applies
    one drawn fault verdict: [Crash]/[Truncate] raise the matching
    exception at the drawn step, [Timeout] clamps the watchdog to
    {!injected_timeout_horizon}.  These exceptions escape to the caller;
    {!Snowboard_harness.Supervise} is the intended handler.

    [prof] (default inactive) is a guest-profiler collector; when active,
    every retired instruction and shared access is attributed to its
    enclosing function: each stretch of a block between frame-log
    entries is charged to the function at its first pc, and the block's
    shared accesses to its last stretch, which sums to exactly the
    per-step charges. *)

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
