(** The guest machine (hypervisor side).

    Runs one vCPU at a time and reports every event its instructions
    produce, so that schedulers can interleave the threads under test at
    instruction granularity and detectors observe every kernel memory
    access — the two capabilities Snowboard requires from its customized
    hypervisor.  There are two interpreters with the same semantics:
    {!step} executes exactly one instruction and returns its events as a
    list (the oracle), and {!run_tblock}/{!run_tblock_conc} execute
    pre-decoded threaded code into a caller-owned {!sink}, up to a
    quantum of instructions per call (exactly one at quantum 1).  Every
    production path runs on the latter. *)

type mode = Kernel | User | Dead

type event =
  | Eaccess of Trace.access
  | Econsole of string
  | Epanic of string
  | Elock of [ `Acq | `Rel ] * int  (** lock annotation with lock address *)
  | Ercu of [ `Lock | `Unlock ]
  | Eret_to_user  (** the current system call returned to user space *)
  | Epause  (** spin-wait hint executed; a liveness signal *)
  | Ehalt
  | Efault of int  (** data fault at the given address *)
  | Ecall of int  (** entered the function at this program address *)
  | Ereturn  (** returned from the current function *)

type t

type snap
(** A checkpoint of all guest-visible state (memories, vCPUs, console). *)

val create : Asm.image -> t

val snapshot : t -> snap

val restore : t -> snap -> unit
(** Restoring does not clear host-side statistics (coverage, step count).

    Guest memory is dirty-page tracked: when the VM is still
    delta-tracked against [snap] (i.e. [snap] was the last snapshot
    taken or restored on this VM), only the pages written since are
    copied back; any other pairing falls back to a full blit.  The
    [snowboard.vmm/pages_restored] / [pages_total] counters record the
    saving. *)

val restore_full : t -> snap -> unit
(** Unconditional full-copy restore (the pre-dirty-tracking behaviour);
    the benchmark baseline and the test oracle for restore
    equivalence. *)

val page_size : int
(** Dirty-tracking page granularity in bytes. *)

val num_pages : int
(** Total tracked pages (kernel + all user segments). *)

val dirty_page_count : t -> int
(** Pages written since the VM last synchronized with a snapshot. *)

val flush_stats : t -> unit
(** Forward this machine's pending instruction/access/event counts to
    the global metrics registry.  Happens automatically at snapshot and
    restore boundaries; a worker's VM also flushes when the worker
    returns it ({!Sched.Exec.release_env}), so phase-boundary telemetry
    totals never depend on which machine still holds the unflushed tail
    of its last run, which is an accident of the claim order. *)

val fingerprint : t -> string
(** Hex digest of all guest-visible state (exactly what a snapshot
    copies): memories, vCPU registers/pc/mode, console, panic flag.
    Registers and console lines are serialised with unambiguous
    separators, so distinct states never digest identically. *)

val start_call : t -> int -> int -> int list -> unit
(** [start_call t tid entry args] prepares vCPU [tid] to execute kernel
    code at [entry] with up to six arguments in r0-r5; the kernel stack is
    reset and a sentinel return address is pushed so the final [Ret]
    surfaces as [Eret_to_user]. *)

val step : t -> int -> event list
(** Execute exactly one instruction on the given vCPU.  Raises
    [Invalid_argument] if the vCPU is not in kernel mode.

    This list-returning interpreter is the observational-equivalence
    oracle for the threaded-code interpreter below ({!run_tblock},
    {!run_tblock_conc}), which allocates nothing per instruction (the
    same role {!restore_full} plays for the dirty-page restore).  No
    production path calls it; [Sched.Exec.run_seq_step] drives it for
    the tests and the bench. *)

(** {2 Event sink}

    [step] heap-allocates an event list (plus a [Trace.access] record per
    memory instruction) for every instruction retired.  The sink is a
    caller-owned mutable frame the interpreter writes into instead: an
    executor keeps one per domain and reads fields straight out of it.
    With the sink, the threaded-code interpreter allocates nothing per
    instruction, memory accesses included; only console and panic
    lines, faults and a coverage edge that grows the edge set allocate.
    An instruction produces at most two memory accesses (Cas/Faa: read
    then write) and at most one control event of each kind, so the fixed
    frame below represents any event list [step] can return.  The access
    arrays are larger than one instruction needs so that a block can
    batch the accesses of several instructions into one frame.

    Each recorded access carries its shared flag, {!Trace.is_shared_at}
    on the recorded addr and sp (so Pop, which records the popped sp,
    keeps that quirk), computed once by the interpreter; consumers read
    [sk_acc_shared] instead of re-classifying.

    A block of either mode can run past calls and returns to kernel
    code.  Each one goes into the frame log, in execution order:
    [sk_fr_push.(i)] tells a call from a return, [sk_fr_pc.(i)] is the
    pc execution continued at (the callee's entry, or the return
    address), and [sk_fr_steps.(i)] counts the instructions the block
    had retired up to and including it.  Each access records in
    [sk_acc_frames] how many entries the log held when it was made, so
    a consumer can tell which function between two entries made it (a
    call's own stack write comes before the call's entry, a return's
    stack read before the return's).  The executor replays the log onto
    its shadow call stacks and charges its guest profiler from it.

    The singleton fields ([sk_call] to [sk_rcu]) describe the block's
    last instruction when the block retired one instruction, or when the
    field belongs to an instruction that ends every block (return to
    user, pause, halt, panic, fault, console line).  A block that ran
    past calls, returns, lock or RCU hypercalls keeps the last value of
    each of [sk_call], [sk_return], [sk_lock]/[sk_lock_acq] and
    [sk_rcu]; so {!sink_events} reproduces [step]'s list only for a
    one-instruction block. *)

type sink = {
  mutable sk_steps : int;  (** instructions retired into this sink *)
  mutable sk_n_acc : int;  (** memory accesses recorded *)
  sk_acc_pc : int array;
  sk_acc_addr : int array;
  sk_acc_size : int array;
  sk_acc_write : bool array;
  sk_acc_value : int array;
  sk_acc_atomic : bool array;
  sk_acc_sp : int array;
  sk_acc_shared : bool array;
      (** {!Trace.is_shared_at} on the recorded addr and sp *)
  sk_acc_frames : int array;
      (** frame-log entries recorded before this access *)
  mutable sk_any_shared : bool;  (** some recorded access is shared *)
  mutable sk_n_frames : int;  (** frame-log entries recorded *)
  sk_fr_push : bool array;  (** a call (true) or a return *)
  sk_fr_pc : int array;  (** the pc execution continued at *)
  sk_fr_steps : int array;
      (** instructions retired up to and including the call or return *)
  mutable sk_call : int;  (** entered the function at this pc, or -1 *)
  mutable sk_return : bool;  (** returned from the current function *)
  mutable sk_ret_to_user : bool;
  mutable sk_pause : bool;
  mutable sk_halt : bool;
  mutable sk_panic : bool;
  mutable sk_has_fault : bool;
  mutable sk_fault_addr : int;
  mutable sk_has_console : bool;
  mutable sk_console : string;
      (** console line, also the panic line; meaningful only while
          [sk_has_console] holds ({!sink_clear} leaves it stale) *)
  mutable sk_lock : int;  (** lock address, or -1 *)
  mutable sk_lock_acq : bool;  (** acquire (true) or release *)
  mutable sk_rcu : [ `No | `Lock | `Unlock ];
}

type stop_reason =
  | Rnone  (** the block stopped at no decision point *)
  | Revent
      (** the vCPU is still runnable, and a concurrent block stopped at a
          decision point: its last instruction made a shared access,
          paused or printed a console line.  (A sequential block returns
          it whenever it recorded any event; the sequential runner does
          not tell it from [Rnone].) *)
  | Rret_to_user  (** the current system call returned to user space *)
  | Rdead  (** halt, panic or fault: the vCPU left kernel mode *)

val sink_capacity : int
(** Capacity of the sink's access arrays: more than one instruction's
    worth, so a block can batch accesses across instructions. *)

val make_sink : unit -> sink

val sink_clear : sink -> unit

val sink_access : sink -> thread:int -> int -> Trace.access
(** Materialise access [i] of the sink as a record (slow path: result
    lists, tests).  Raises [Invalid_argument] if [i >= sk_n_acc]. *)

val sink_push_access : sink -> Trace.access -> unit
(** Append an access to the sink, setting its shared flag, its frame
    count and [sk_any_shared] as the interpreter would, for exercising
    sink consumers (policies, observers) without running guest code. *)

val sink_events : sink -> thread:int -> event list
(** The legacy event list for this sink, in the exact order {!step} would
    have returned it for a one-instruction block; the bridge tests and
    slow consumers use it to compare the two interpreters. *)

val run_tblock : t -> Tcode.t -> tid:int -> quantum:int -> sink -> stop_reason
(** Clear the sink and execute up to [quantum] instructions of the
    pre-decoded threaded-code form: one dense-int dispatch per
    instruction (operand variants folded into the opcode, operands in
    flat arrays), with peephole superops retiring the common
    load+branch / bin+store / bin+branch pairs and runs of plain
    instructions in one dispatch.  Plain instructions (the ones {!step}
    returns no events for: Li/Mov/Bin/Br/Jmp) run in a tight loop,
    memory accesses from loads, stores, atomics, calls and returns
    accumulate in the sink as they come, calls and returns to kernel
    code go into the frame log, and lock and RCU hypercalls run past.
    The block stops after the first instruction that the sequential
    runner acts on: a return to user space, a halt, panic or fault, a
    console line or a pause.  It also stops when the quantum expires,
    or when the access arrays or the frame log have no room for another
    instruction.  Coverage edges are recorded at every control transfer,
    in execution order.  The sink's accesses are in execution order
    across the whole block, each with its frame count; the sink section
    above says which singleton fields belong to the final instruction.
    [sk_steps] counts everything retired, so block execution is
    invisible to instruction budgets.

    Observationally identical to [sk_steps] calls of {!step} — same
    guest state transitions, accesses, step/access accounting, coverage
    edges and fault handling; the qcheck equivalence properties enforce
    it.  Raises [Invalid_argument] if [tc] was decoded from a different
    image than this VM runs (threaded code is keyed on image identity;
    rebuild via {!Tcode.of_image}). *)

val run_tblock_conc :
  t -> Tcode.t -> tid:int -> quantum:int -> sink -> stop_reason
(** {!run_tblock} for the concurrent executor, with one more stop: the
    block ends after the first instruction that the executor or an
    event-only policy acts on — a shared access, a pause, a return to
    user space, a halt, panic or fault, or a console line — and returns
    [Revent] (or [Rret_to_user]/[Rdead]) there.  Like a sequential
    block, it runs past instructions whose accesses are all non-shared
    (stack traffic), lock and RCU hypercalls, and calls and returns to
    kernel code, logging the latter in the frame log.  So any shared
    access in the sink belongs to the block's last instruction, after
    every logged call and return.  The block also ends, with [Rnone], when the quantum
    expires, or when the access arrays or the frame log have no room
    for another instruction.

    Concurrent blocks record no coverage edges: only the sequential
    runner reads coverage, and it resets it first.  At [quantum = 1] it
    retires exactly one instruction ([sk_steps = 1], at most one frame
    entry) and the sink materialises ({!sink_events}) to the list
    {!step} returns: the per-step cadence PCT and per-step replays
    need. *)

exception Fault of int
(** A guest data fault at the given address: the NULL guard page, or any
    range not inside the kernel segment or the thread's user segment.
    The interpreters turn it into an oops; {!peek} and {!poke} raise it. *)

val peek : t -> int -> int -> int -> int
(** [peek t tid addr size] reads guest memory without tracing (host use).
    Goes through the same memory arm as every interpreter, and allocates
    nothing. *)

val poke : t -> int -> int -> int -> int -> unit
(** [poke t tid addr size v] writes guest memory without tracing, marking
    the written pages dirty.  Allocates nothing. *)

val console_lines : t -> string list
(** Console output, oldest first. *)

val panicked : t -> bool

val cpu_mode : t -> int -> mode

val cpu_pc : t -> int -> int

val reg : t -> int -> Isa.reg -> int

val set_reg : t -> int -> Isa.reg -> int -> unit

val coverage_size : t -> int
(** Number of distinct control-flow edges observed since the last reset. *)

val coverage_edges : t -> (int * int) list
(** The distinct [(from_pc, to_pc)] edges observed since the last reset,
    in the order they were first recorded. *)

val record_edge : t -> int -> int -> unit
(** [record_edge t from_pc to_pc] records a control-flow edge: the one
    recording path, for the threaded-code interpreter and {!step} alike.
    Both pcs must fit in 24 bits (the packing width of a coverage key);
    an edge with an out-of-range side is dropped rather than recorded
    under an aliased key.  Allocates nothing unless the edge is new and
    the VM's edge set must grow (it starts with room for 768 edges). *)

val edge_pc_max : int
(** The largest pc representable in a coverage-edge key (24 bits). *)

val reset_coverage : t -> unit
(** Empty the coverage, allocating nothing: a generation bump, with the
    edge set's slots zeroed once every 16,383 resets. *)

(** A set of control-flow edges, packed [(from_pc lsl 24) lor to_pc]
    into one int each: the table the VM records coverage into, which
    the fuzzer's corpus also keeps its coverage union in. *)
module Edge_set : sig
  type t

  val create : unit -> t

  val length : t -> int

  val mem : t -> int * int -> bool
  (** Raises [Invalid_argument] on an edge with a pc outside
      [[0, edge_pc_max]], which the packing could not tell from another
      edge. *)

  val add : t -> int * int -> bool
  (** Add an edge; true if it was not yet a member.  Raises like {!mem}. *)
end

val steps : t -> int
(** Total instructions executed since creation. *)

val events_sunk : t -> int
(** Total events written into caller-owned sinks since creation (the
    sink-path counterpart of the event lists [step] would have built). *)

val add_console : t -> string -> unit
(** Append a console line directly (host-side; tests use this to build
    specific console states). *)

val image : t -> Asm.image
