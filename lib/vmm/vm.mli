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

val invalidate_delta : t -> unit
(** Drop the current dirty-page delta (the tracking flag is untouched):
    the next [restore] performs a full blit and re-arms against its
    snapshot.  {!Vmpool} calls this on lease transfer, where the new
    owner's snapshot is not the one the memory is tracked against. *)

val flush_stats : t -> unit
(** Forward this machine's pending instruction/access/event counts to
    the global metrics registry.  Happens automatically at snapshot and
    restore boundaries; the warm pool also flushes on release
    ({!Sched.Exec.warm_pool}'s [on_release]) so phase-boundary telemetry
    totals never depend on which machine still holds the unflushed tail
    of its last run — an accident of the steal schedule. *)

val set_dirty_tracking : t -> bool -> unit
(** Enable/disable dirty-page tracking on this VM (new VMs start
    tracked).  Either transition invalidates the current delta, so the
    next [restore] performs a full blit. *)

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
    lines, faults and a coverage edge's first recording allocate.
    An instruction produces at most two memory accesses (Cas/Faa: read
    then write) and at most one control event of each kind, so the fixed
    frame below represents any event list [step] can return.  The access
    arrays are larger than one instruction needs so that {!run_tblock}
    can batch consecutive loads and stores into one frame. *)

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
  mutable sk_call : int;  (** entered the function at this pc, or -1 *)
  mutable sk_return : bool;  (** returned from the current function *)
  mutable sk_ret_to_user : bool;
  mutable sk_pause : bool;
  mutable sk_halt : bool;
  mutable sk_panic : bool;
  mutable sk_has_fault : bool;
  mutable sk_fault_addr : int;
  mutable sk_has_console : bool;
  mutable sk_console : string;  (** console line; also the panic line *)
  mutable sk_lock : int;  (** lock address, or -1 *)
  mutable sk_lock_acq : bool;  (** acquire (true) or release *)
  mutable sk_rcu : [ `No | `Lock | `Unlock ];
}

type stop_reason =
  | Rnone  (** only plain instructions retired; nothing trace-relevant *)
  | Revent  (** trace-relevant events in the sink; vCPU still runnable *)
  | Rret_to_user  (** the current system call returned to user space *)
  | Rdead  (** halt, panic or fault: the vCPU left kernel mode *)

val sink_capacity : int
(** Capacity of the sink's access arrays: more than one instruction's
    worth, so {!run_tblock} can batch accesses across consecutive loads
    and stores. *)

val make_sink : unit -> sink

val sink_clear : sink -> unit

val sink_access : sink -> thread:int -> int -> Trace.access
(** Materialise access [i] of the sink as a record (slow path: result
    lists, tests).  Raises [Invalid_argument] if [i >= sk_n_acc]. *)

val sink_push_access : sink -> Trace.access -> unit
(** Append a access to the sink, for exercising sink consumers (policies,
    observers) without running guest code. *)

val sink_events : sink -> thread:int -> event list
(** The legacy event list for this sink, in the exact order {!step} would
    have returned it; the bridge tests and slow consumers use to compare
    the two interpreters. *)

val run_tblock : t -> Tcode.t -> tid:int -> quantum:int -> sink -> stop_reason
(** Clear the sink and execute up to [quantum] instructions of the
    pre-decoded threaded-code form: one dense-int dispatch per
    instruction (operand variants folded into the opcode, operands in
    flat arrays), with peephole superops retiring the common
    load+branch / bin+store / bin+branch pairs and runs of plain
    instructions in one dispatch.  Plain instructions (the ones {!step}
    returns no events for: Li/Mov/Bin/Br/Jmp) run in a tight loop,
    memory accesses from loads, stores and atomics accumulate in the
    sink as they come, and the block stops at the first instruction that
    produced any other event (call, return, lock, console line, pause,
    or leaving kernel mode) or when the access arrays are nearly full.
    The sink's accesses are in execution order across the whole block;
    the singleton event fields always belong to the final instruction.
    [sk_steps] counts everything retired, so block execution is
    invisible to instruction budgets.  Returns [Rnone] when the quantum
    expired on plain instructions only.

    Observationally identical to [sk_steps] calls of {!step} — same
    guest state transitions, accesses, step/access accounting, coverage
    edges and fault handling; the qcheck equivalence properties enforce
    it.  Raises [Invalid_argument] if [tc] was decoded from a different
    image than this VM runs (threaded code is keyed on image identity;
    rebuild via {!Tcode.of_image}). *)

val run_tblock_conc :
  t -> Tcode.t -> tid:int -> quantum:int -> sink -> stop_reason
(** {!run_tblock} for the concurrent executor: the block additionally
    stops at {e every} event-producing instruction (including loads and
    stores) instead of batching accesses, so a scheduler draining the
    sink after each call sees every event-producing instruction on its
    own — only runs of plain instructions are batched between decision
    points.  At [quantum = 1] it retires exactly one instruction
    ([sk_steps = 1]) and the sink materialises ({!sink_events}) to the
    list {!step} returns: the per-step cadence PCT and replay playback
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
    sorted lexicographically. *)

val record_edge : t -> int -> int -> unit
(** [record_edge t from_pc to_pc] records a control-flow edge.  Both pcs
    must fit in 24 bits (the packing width of a coverage key); an edge
    with an out-of-range side is dropped rather than recorded under an
    aliased key. *)

val edge_pc_max : int
(** The largest pc representable in a coverage-edge key (24 bits). *)

val record_edge_fast : t -> int -> int -> unit
(** {!record_edge} through a per-VM direct-mapped cache: a hit proves the
    edge entered the coverage table after the last {!reset_coverage} and
    skips the table lookup.  Same observable effect as {!record_edge}
    (same edges, same bounds checks); the threaded-code interpreter uses
    this, the oracle {!step} keeps the uncached path. *)

val reset_coverage : t -> unit

val steps : t -> int
(** Total instructions executed since creation. *)

val events_sunk : t -> int
(** Total events written into caller-owned sinks since creation (the
    sink-path counterpart of the event lists [step] would have built). *)

val add_console : t -> string -> unit
(** Append a console line directly (host-side; tests use this to build
    specific console states). *)

val image : t -> Asm.image
