(* The test execution framework (paper sections 4.1 and 4.4).

   Runs sequential tests (fuzzing, profiling) and concurrent tests under
   a pluggable scheduling policy.  Every trial starts from the boot
   snapshot; only one vCPU executes at a time; the policy is consulted
   after every instruction it could act on, and a thread that spins
   (Pause) is forcibly descheduled - the is_live heuristic of
   Algorithm 2.

   [run_seq] and [run_multi] execute the kernel's threaded code
   ([env.tcode]) through [Vm.run_tblock] and [Vm.run_tblock_conc],
   writing events into a [Vm.sink] (one per domain, see [sink_key])
   instead of returning lists, and allocate nothing per instruction,
   loads and stores included.  Both retire instructions in blocks that
   surface only where the runner acts (the SKI/QEMU-style batched guest
   execution the paper's scale depends on, section 4.4), running past
   calls and returns (each block's frame log feeds the shadow stacks
   and the guest profiler) and lock and RCU hypercalls.  Sequential
   blocks end at a return to user space, a halt, panic or fault, a
   console line or a pause.  What a run allocates is what it reports:
   with [~accesses:true] (profiling), a Trace.access record and a list
   cell per shared access and the final [List.rev]; always the result
   record (and, above this module, the policy's recorder buffer).  A
   fuzzing run builds no access record at all, and neither does a
   concurrent one: it appends its shared accesses to a per-domain log
   ([conc_key]) that its result views.
   Concurrent blocks end only where the executor or an event-only
   policy acts (Algorithm 2 reschedules only at shared accesses): a
   shared access, a pause, a return to user space, a halt, panic or
   fault, or a console line.  The consultations skipped in between
   could only have answered "no switch", so every schedule and
   flight-recorder stream is byte-identical to consulting the policy
   after every instruction.  [run_seq_step] drives the
   list-returning [Vm.step]: the observational-equivalence oracle and
   benchmark baseline.

   The concurrent executor also maintains a per-thread shadow call
   stack, replayed from each block's frame log of calls and returns.
   Each access is attributed to the innermost non-helper kernel
   function, which is what the race detector and the oracle use to name
   racing code (the stand-in for the paper's post-mortem analysis
   tools). *)

module Vm = Vmm.Vm
module Asm = Vmm.Asm
module Trace = Vmm.Trace
module Isa = Vmm.Isa
module Tcode = Vmm.Tcode

let src = Logs.Src.create "snowboard.sched" ~doc:"Test execution and scheduling"

module Log = (val Logs.src_log src : Logs.LOG)

(* Registry handles.  The executor's inner loops never touch these; all
   observations happen once per run (run boundaries), so disabled
   collection adds no measurable cost to the hot loops. *)
let m_seq_runs = Obs.Metrics.counter "snowboard.sched/seq_runs"
let m_conc_runs = Obs.Metrics.counter "snowboard.sched/conc_runs"
let m_preemptions = Obs.Metrics.counter "snowboard.sched/preemptions_injected"
let m_schedule_points = Obs.Metrics.counter "snowboard.sched/schedule_points"
let m_deadlocks = Obs.Metrics.counter "snowboard.sched/deadlocks"
let m_watchdogs = Obs.Metrics.counter "snowboard.sched/watchdog_timeouts"
let m_faults = Obs.Metrics.counter "snowboard.sched/faults_injected"

let h_seq_steps =
  Obs.Metrics.histogram ~unit_:"instr" "snowboard.vmm/seq_run_steps"

let h_conc_steps =
  Obs.Metrics.histogram ~unit_:"instr" "snowboard.vmm/conc_run_steps"

(* Mean instructions per execution block, observed once per block-based
   sequential run (never per block: the histogram takes the registry
   mutex, which worker domains must not contend on per guest event). *)
let h_block_len =
  Obs.Metrics.histogram ~unit_:"instr" "snowboard.sched/block_len"

(* Interpreter throughput as last measured by the bench.  The gauge's
   rate unit marks it wall-clock-derived, so deterministic artifacts
   exclude it (like every "us" metric). *)
let g_steps_per_sec =
  Obs.Metrics.gauge ~unit_:"instr/s" "snowboard.sched/steps_per_sec"

(* A deterministic bench rep can finish in under a clock tick, making
   [seconds] zero (or, on a stepped clock, even negative); the quotient
   would be [infinity] and [int_of_float infinity] is undefined.  Guard
   both operands and cap the rate so the gauge always holds a finite,
   representable value. *)
let note_throughput ~steps ~seconds =
  if steps > 0 && seconds > 0. then begin
    let rate = float_of_int steps /. seconds in
    if Float.is_finite rate then
      Obs.Metrics.set g_steps_per_sec (int_of_float (Float.min rate 1e18))
  end

(* Runtime helpers whose frames are skipped when attributing accesses. *)
let helper_functions =
  [
    "spin_lock"; "spin_unlock"; "rcu_read_lock"; "rcu_read_unlock"; "memcpy";
    "kmalloc"; "kfree"; "size_class"; "bh_lock_sock"; "bh_unlock_sock";
    "fd_install"; "fd_lookup"; "fd_clear"; "file_create"; "ext4_inode_addr";
    "ext4_compute_csum"; "syscall_entry";
  ]

(* Cached access attribution: one name, one is-helper bit and one interned
   profiler function id per pc, computed once per image, so attributing a
   shared access is two array reads instead of an [Asm.func_name] lookup
   plus an O(|helpers|) [List.mem] over strings. *)
type attr = { a_names : string array; a_helper : bool array; a_fid : int array }

let attr_of_image (image : Asm.image) =
  let names =
    Array.init
      (Array.length image.Asm.func_of_pc)
      (fun pc -> Asm.func_name image pc)
  in
  {
    a_names = names;
    a_helper = Array.map (fun n -> List.mem n helper_functions) names;
    a_fid = Array.map Obs.Profguest.intern names;
  }

let attr_name a pc =
  if pc >= 0 && pc < Array.length a.a_names then a.a_names.(pc)
  else Asm.unknown_name pc

let attr_is_helper a pc =
  pc >= 0 && pc < Array.length a.a_helper && a.a_helper.(pc)

(* Profiler fid of the pc a vCPU is about to execute; out-of-image pcs
   intern their stable unknown name (slow path, never hit in practice). *)
let attr_fid a pc =
  if pc >= 0 && pc < Array.length a.a_fid then a.a_fid.(pc)
  else Obs.Profguest.intern (Asm.unknown_name pc)

type env = {
  kern : Kernel.t;
  vm : Vm.t;
  snap : Vm.snap;
  attr : attr;
  tcode : Tcode.t;  (* threaded-code form of the kernel image *)
}

let make_env cfg =
  let kern = Kernel.build cfg in
  let tcode = Tcode.of_image kern.Kernel.image in
  let vm, snap = Kernel.boot kern tcode in
  { kern; vm; snap; attr = attr_of_image kern.Kernel.image; tcode }

(* The sink every runner below executes into: one per domain, reused
   across runs instead of a fresh [Vm.make_sink] (seven access arrays
   plus the record, ~254 words) per run.  Runners never nest on one
   domain, and every interpreter entry point clears the sink before
   writing to it, so a run aborted mid-way (watchdog, injected crash)
   leaves nothing the next run can observe. *)
let sink_key = Domain.DLS.new_key Vm.make_sink

(* The env each worker last returned, per kernel configuration: at most
   one per (configuration, worker index).  Every run restores
   [env.snap] before touching the guest, so a kept env carries no state
   between leases; what it does carry is the boot cost, which the
   parallel phases thereby pay once per worker index for the whole
   process instead of once per batch.  Config keys are plain bool
   records, so structural equality is the identity we want. *)
let kept : (Kernel.Config.t * int, env) Hashtbl.t = Hashtbl.create 8
let kept_lock = Mutex.create ()

let lease_env cfg ~worker =
  let key = (cfg, worker) in
  let found =
    Mutex.protect kept_lock (fun () ->
        let e = Hashtbl.find_opt kept key in
        Hashtbl.remove kept key;
        e)
  in
  (* boot outside the lock, on the leasing worker's domain *)
  match found with Some e -> e | None -> make_env cfg

let release_env ~worker env =
  (* flush the counter tail of the VM's last run now, so a phase
     boundary sees the same totals whatever the queue assigned to each
     worker *)
  Vm.flush_stats env.vm;
  Mutex.protect kept_lock (fun () ->
      Hashtbl.replace kept (env.kern.Kernel.config, worker) env)

type observer = {
  on_access : Trace.access -> ctx:string -> unit;
      (* [run_conc] only, after the run: each shared access, in order *)
  on_event : Obs.Event.kind -> tid:int -> unit;
      (* flight-recorder feed; only called while [Obs.Event.enabled ()] *)
}

(* The default observer routes executor events into the global flight
   recorder and ignores accesses. *)
let default_observer =
  {
    on_access = (fun _ ~ctx:_ -> ());
    on_event = (fun k ~tid -> Obs.Event.emit ~tid k);
  }

(* Shadow call stacks and access attribution.  One int array per vCPU,
   innermost frame last, kept per domain (see [conc_key]) and reused
   across trials, so a call pushes without allocating. *)
type frames = { mutable fs : int array; mutable depth : int }

let push_frame f pc =
  let d = f.depth in
  if d = Array.length f.fs then begin
    let bigger = Array.make (2 * d) 0 in
    Array.blit f.fs 0 bigger 0 d;
    f.fs <- bigger
  end;
  f.fs.(d) <- pc;
  f.depth <- d + 1

let pop_frame f = if f.depth > 0 then f.depth <- f.depth - 1

let make_frames () = { fs = Array.make 64 0; depth = 0 }
let frames_depth f = f.depth

(* What the concurrent runner keeps per domain and reuses across trials:
   one shadow stack per vCPU, and the log its runs append their shared
   accesses to, so recording an access writes its fields into arrays
   instead of allocating a record and a list cell.  A run bumps the
   log's generation before its first append, which retires the views
   earlier results hold. *)
type conc_state = { shadow : frames array; log : Trace.log }

let conc_key =
  Domain.DLS.new_key (fun () ->
      {
        shadow = Array.init Vmm.Layout.max_threads (fun _ -> make_frames ());
        log = Trace.make_log ();
      })

(* Replay a block's frame log onto a shadow stack, in execution order. *)
let apply_frames f (sink : Vm.sink) =
  for e = 0 to sink.Vm.sk_n_frames - 1 do
    if sink.Vm.sk_fr_push.(e) then push_frame f sink.Vm.sk_fr_pc.(e)
    else pop_frame f
  done

(* The guest profiler's charges for one block that started at a pc of
   function [fid]: each stretch up to a frame-log entry goes to the
   function at the stretch's first pc, and the rest of the block to the
   function the last entry continued in, each with the shared accesses
   made in it (an access's [sk_acc_frames] names its stretch).  Per
   instruction, these are exactly the per-step charges. *)
let charge_block prof attr (sink : Vm.sink) ~fid =
  let n = sink.Vm.sk_n_frames in
  let fid = ref fid and charged = ref 0 and k = ref 0 in
  for e = 0 to n do
    (* stretch [e] ends at entry [e], the last one at the block's end *)
    let upto = if e < n then sink.Vm.sk_fr_steps.(e) else sink.Vm.sk_steps in
    let shared = ref 0 in
    while !k < sink.Vm.sk_n_acc && sink.Vm.sk_acc_frames.(!k) <= e do
      if sink.Vm.sk_acc_shared.(!k) then incr shared;
      incr k
    done;
    if upto > !charged || !shared > 0 then
      Obs.Profguest.collect prof ~fid:!fid ~steps:(upto - !charged)
        ~shared:!shared;
    charged := upto;
    if e < n then fid := attr_fid attr sink.Vm.sk_fr_pc.(e)
  done

(* The innermost non-helper frame below index [i], else [pc]'s own
   function. *)
let rec attribute_from attr frames pc i =
  if i < 0 then attr_name attr pc
  else
    let f = frames.fs.(i) in
    if attr_is_helper attr f then attribute_from attr frames pc (i - 1)
    else attr_name attr f

let attribute attr frames pc =
  if not (attr_is_helper attr pc) then attr_name attr pc
  else attribute_from attr frames pc (frames.depth - 1)

(* Install a program's user-space buffers and return an argument resolver.
   Buffer j of call i lives at [Prog.buf_addr i + 16j]. *)
let install_buffers vm tid (prog : Fuzzer.Prog.t) =
  List.iteri
    (fun i (c : Fuzzer.Prog.call) ->
      List.iteri
        (fun j arg ->
          match arg with
          | Fuzzer.Prog.Buf s ->
              let base = Fuzzer.Prog.buf_addr i + (16 * j) in
              String.iteri
                (fun k ch -> Vm.poke vm tid (base + k) 1 (Char.code ch))
                s
          | _ -> ())
        c.args)
    prog

let resolve_arg (retvals : int array) i j = function
  | Fuzzer.Prog.Const v -> v
  | Fuzzer.Prog.Res k -> if k >= 0 && k < i then retvals.(k) else -1
  | Fuzzer.Prog.Buf _ -> Fuzzer.Prog.buf_addr i + (16 * j)

let start_syscall env tid (retvals : int array) i (c : Fuzzer.Prog.call) =
  let args = List.mapi (fun j a -> resolve_arg retvals i j a) c.args in
  Vm.start_call env.vm tid env.kern.Kernel.syscall_entry args;
  Vm.set_reg env.vm tid Isa.r12 c.nr

(* ------------------------------------------------------------------ *)
(* Sequential execution: fuzzing, profiling, derived initial states.   *)

type seq_result = {
  sq_accesses : Trace.access list;  (* shared accesses, in order *)
  sq_console : string list;
  sq_panicked : bool;
  sq_retvals : int array;
  sq_steps : int;
  sq_edges : (int * int) list;  (* distinct edges, in first-seen order *)
}

let syscall_budget = 100_000

let seq_prologue env ~tid prog =
  Vm.restore env.vm env.snap;
  Vm.reset_coverage env.vm;
  install_buffers env.vm tid prog;
  Array.make (List.length prog) (-1)

let seq_epilogue env ~steps ~accesses ~retvals =
  Obs.Metrics.incr m_seq_runs;
  Obs.Metrics.observe h_seq_steps steps;
  {
    sq_accesses = List.rev accesses;
    sq_console = Vm.console_lines env.vm;
    sq_panicked = Vm.panicked env.vm;
    sq_retvals = retvals;
    sq_steps = steps;
    sq_edges = Vm.coverage_edges env.vm;
  }

(* The sequential runner: threaded-code block execution.  Each
   [run_tblock] runs until an instruction this loop acts on (a return to
   user space, a halt, panic or fault, a console line or a pause),
   crossing loads and stores, calls and returns, and lock and RCU
   hypercalls, or until its access arrays or frame log fill; the
   per-syscall budget is enforced through the block quantum and
   [sk_steps], so instruction counts (and thus budget aborts) are
   exactly those of [run_seq_step].  With [accesses], the shared
   accesses, as the VM flagged them in the sink, become records;
   without, a run allocates nothing per access, which is all fuzzing
   needs (it reads only coverage). *)
let run_seq ?(prof = Obs.Profguest.null_collector) ?(accesses = false) env
    ~tid (prog : Fuzzer.Prog.t) =
  let retvals = seq_prologue env ~tid prog in
  let records = ref [] in
  let steps = ref 0 in
  let blocks = ref 0 in
  let sink = Domain.DLS.get sink_key in
  (* Guest profiler: a block can cross calls and returns, so its charges
     follow its frame log ([charge_block]), from the function at its
     starting pc. *)
  let prof_on = Obs.Profguest.active prof in
  (try
     List.iteri
       (fun i c ->
         if Vm.panicked env.vm then raise Exit;
         start_syscall env tid retvals i c;
         let budget = ref syscall_budget in
         let finished = ref false in
         while not !finished do
           if !budget <= 0 then raise Exit;
           let bfid = if prof_on then attr_fid env.attr (Vm.cpu_pc env.vm tid) else -1 in
           let reason =
             Vm.run_tblock env.vm env.tcode ~tid ~quantum:!budget sink
           in
           budget := !budget - sink.Vm.sk_steps;
           steps := !steps + sink.Vm.sk_steps;
           incr blocks;
           if accesses && sink.Vm.sk_any_shared then
             for k = 0 to sink.Vm.sk_n_acc - 1 do
               if sink.Vm.sk_acc_shared.(k) then
                 records := Vm.sink_access sink ~thread:tid k :: !records
             done;
           if prof_on then charge_block prof env.attr sink ~fid:bfid;
           match reason with
           | Vm.Rret_to_user ->
               retvals.(i) <- Vm.reg env.vm tid Isa.r0;
               finished := true
           | Vm.Rdead -> finished := true
           | Vm.Rnone | Vm.Revent -> ()
         done)
       prog
   with Exit -> ());
  if !blocks > 0 then Obs.Metrics.observe h_block_len (!steps / !blocks);
  seq_epilogue env ~steps:!steps ~accesses:!records ~retvals

(* Section 4.1: "Snowboard can grow the number of initial kernel states
   it utilizes to increase diversity."  [with_setup] derives a new
   environment whose snapshot is taken after running a setup program on
   vCPU 0 from the parent snapshot - e.g. a state with a tunnel already
   registered or the filesystem already dirtied.  The setup must be clean
   (no panic); the guest console is part of the snapshot and stays
   empty.  Only the final state matters, so the run keeps no access
   records. *)
let with_setup env (setup : Fuzzer.Prog.t) =
  if (run_seq env ~tid:0 setup).sq_panicked then
    invalid_arg "exec: setup program panicked";
  { env with snap = Vm.snapshot env.vm }

(* The list-returning path over [Vm.step], verbatim and returning every
   access: the observational-equivalence oracle for [run_seq] and the
   benchmark baseline.  The only caller of [Vm.step]. *)
let run_seq_step env ~tid (prog : Fuzzer.Prog.t) =
  let retvals = seq_prologue env ~tid prog in
  let accesses = ref [] in
  let steps = ref 0 in
  (try
     List.iteri
       (fun i c ->
         if Vm.panicked env.vm then raise Exit;
         start_syscall env tid retvals i c;
         let budget = ref syscall_budget in
         let finished = ref false in
         while not !finished do
           if !budget <= 0 then raise Exit;
           decr budget;
           incr steps;
           let evs = Vm.step env.vm tid in
           List.iter
             (fun ev ->
               match ev with
               | Vm.Eaccess a -> accesses := a :: !accesses
               | Vm.Eret_to_user ->
                   retvals.(i) <- Vm.reg env.vm tid Isa.r0;
                   finished := true
               | Vm.Epanic _ | Vm.Ehalt -> finished := true
               | _ -> ())
             evs
         done)
       prog
   with Exit -> ());
  seq_epilogue env ~steps:!steps ~accesses:!accesses ~retvals

(* ------------------------------------------------------------------ *)
(* Concurrent execution under a scheduling policy.                     *)

type policy = {
  first : int;  (* thread scheduled first *)
  decide : int -> Vm.sink -> bool;  (* switch after this instruction? *)
  event_only : bool;
      (* consult [decide] only where a concurrent block ends, so
         [run_multi] runs whole [Vm.run_tblock_conc] blocks between
         decision points.  A deciding policy declares it only if, on a
         sink with no shared access, it returns false with no side
         effect and no draw; a replayer declares its trace's cadence. *)
}

type conc_result = {
  cc_console : string list;
  cc_panicked : bool;
  cc_deadlocked : bool;
  cc_steps : int;
  cc_switches : int;  (* vCPU switches performed (SKI does many more) *)
  cc_log : Trace.view;  (* shared accesses, in execution order *)
  cc_accesses : Trace.access list array;
      (* per thread, [run_conc]'s list view of [cc_log]; [run_multi]
         leaves every list empty *)
  cc_retvals : int array array;
}

type thread_run = {
  prog : Fuzzer.Prog.call array;
  retvals : int array;
  mutable next_call : int;
  mutable started : bool;  (* has the first syscall been dispatched? *)
  mutable done_ : bool;
  frames : frames;
}

let conc_budget = 400_000
let pause_limit = 4_096

(* An injected [Fault.Timeout] models a livelocked trial: the effective
   watchdog is clamped to this horizon so the trial reliably exceeds it,
   even when the caller configured no step budget of its own. *)
let injected_timeout_horizon = 192

(* Append shared access [k] of [sink], made by thread [tid] and
   attributed to [ctx].  Here rather than in [Trace], so the per-access
   path makes no call across modules (libraries build with -opaque). *)
let log_append (lg : Trace.log) (sink : Vm.sink) k ~tid ~ctx =
  if lg.Trace.len = Array.length lg.Trace.l_pc then Trace.grow lg;
  let i = lg.Trace.len in
  lg.Trace.l_thread.(i) <- tid;
  lg.Trace.l_pc.(i) <- sink.Vm.sk_acc_pc.(k);
  lg.Trace.l_addr.(i) <- sink.Vm.sk_acc_addr.(k);
  lg.Trace.l_size.(i) <- sink.Vm.sk_acc_size.(k);
  lg.Trace.l_write.(i) <- sink.Vm.sk_acc_write.(k);
  lg.Trace.l_atomic.(i) <- sink.Vm.sk_acc_atomic.(k);
  lg.Trace.l_value.(i) <- sink.Vm.sk_acc_value.(k);
  lg.Trace.l_sp.(i) <- sink.Vm.sk_acc_sp.(k);
  lg.Trace.l_ctx.(i) <- ctx;
  lg.Trace.len <- i + 1

(* Generalised executor: interleave [progs.(i)] on vCPU i (the paper uses
   two threads; the section 6 extension uses three).  Exactly one vCPU
   runs at a time; on a switch request the executor rotates round-robin
   to the next runnable thread.

   Policies that declare [event_only] get block-batched stepping: one
   [Vm.run_tblock_conc] block runs until the first instruction that the
   executor or such a policy acts on (a shared access, a pause, a return
   to user space, a halt, panic or fault, or a console line), crossing
   plain instructions, stack-only accesses, lock and RCU hypercalls, and
   calls and returns to kernel code.  [decide] is consulted on that last
   instruction only: each instruction it ran past saw no shared access,
   so by the [event_only] contract a per-step consultation there would
   have returned "no switch" without a side effect, and the schedule is
   the per-step one.  Policies that step-count ([event_only = false],
   e.g. PCT's change points, or the replayer of a per-step trace) run
   one instruction per [Vm.run_tblock_conc] call (quantum 1), on the
   same path.  Either way nothing is allocated per step or per access:
   each *shared* access goes into the domain's log ([log_append]), which
   the result's [cc_log] views. *)
let run_multi env ~(progs : Fuzzer.Prog.t array) ~(policy : policy)
    ?(observer = default_observer) ?watchdog ?(fault = Fault.No_fault)
    ?(prof = Obs.Profguest.null_collector) () =
  let n = Array.length progs in
  let prof_on = Obs.Profguest.active prof in
  (* an injected timeout becomes an (aggressively clamped) watchdog, so
     the supervision path is exercised exactly as a runaway trial would *)
  let watchdog =
    match fault with
    | Fault.Timeout ->
        Some
          (match watchdog with
          | Some w -> min w injected_timeout_horizon
          | None -> injected_timeout_horizon)
    | _ -> watchdog
  in
  if n < 1 || n > Vmm.Layout.max_threads then
    invalid_arg "exec: unsupported thread count";
  (* virtual clock for the flight recorder: guest instructions retired,
     monotonic across runs and a pure function of the seed.  Installed
     only while recording, so an unrecorded trial neither allocates the
     closure nor leaves the process-global clock holding its env; it is
     not reset afterwards, because [Explore.run]'s miss diagnostics
     stamp their event after the run returns. *)
  if Obs.Event.enabled () then
    Obs.Event.set_clock (Some (fun () -> Vm.steps env.vm));
  let ev_on () = Obs.Event.enabled () in
  let emit tid kind = observer.on_event kind ~tid in
  Vm.restore env.vm env.snap;
  Array.iteri (fun tid prog -> install_buffers env.vm tid prog) progs;
  let { shadow; log = lg } = Domain.DLS.get conc_key in
  let mk tid prog =
    let frames = shadow.(tid) in
    frames.depth <- 0;
    {
      prog = Array.of_list prog;
      retvals = Array.make (List.length prog) (-1);
      next_call = 0;
      started = false;
      done_ = false;
      frames;
    }
  in
  let threads = Array.mapi mk progs in
  lg.Trace.gen <- lg.Trace.gen + 1;
  lg.Trace.len <- 0;
  let sink = Domain.DLS.get sink_key in
  let steps = ref 0 in
  let switches = ref 0 in
  let sched_points = ref 0 in  (* switch requests issued by the policy *)
  let deadlocked = ref false in
  let pause_streak = ref 0 in
  let runnable tid =
    let th = threads.(tid) in
    (not th.done_)
    &&
    match Vm.cpu_mode env.vm tid with
    | Vm.Kernel -> true
    | Vm.User -> th.next_call < Array.length th.prog
    | Vm.Dead -> (not th.started) && Array.length th.prog > 0
  in
  (* the next runnable thread after [tid], or -1; a loop, since a local
     recursive function would be a closure allocated per call *)
  let next_runnable tid =
    let found = ref (-1) and k = ref 1 in
    while !found < 0 && !k <= n do
      let cand = (tid + !k) mod n in
      if runnable cand then found := cand;
      incr k
    done;
    !found
  in
  let current = ref (if policy.first >= 0 && policy.first < n then policy.first else 0) in
  if ev_on () then
    emit Obs.Event.sched_tid
      (Obs.Event.Trial_begin { threads = n; first = !current });
  let fault_fire kind detail =
    Obs.Metrics.incr m_faults;
    if ev_on () then
      emit Obs.Event.sched_tid (Obs.Event.Fault { kind; detail })
  in
  (* these raises deliberately escape the [with Exit] below: a fault or
     watchdog abort is the supervisor's problem, not a trial verdict *)
  let check_abort () =
    (match fault with
    | Fault.Crash at when !steps >= at ->
        let msg = Printf.sprintf "injected at step %d" !steps in
        fault_fire "crash" msg;
        raise (Fault.Injected_crash msg)
    | Fault.Truncate at when !steps >= at ->
        let msg = Printf.sprintf "injected at step %d" !steps in
        fault_fire "truncate" msg;
        raise (Fault.Trace_truncated msg)
    | _ -> ());
    match watchdog with
    | Some w when !steps >= w ->
        Obs.Metrics.incr m_watchdogs;
        if ev_on () then
          emit Obs.Event.sched_tid
            (Obs.Event.Fault
               {
                 kind = "watchdog";
                 detail = Printf.sprintf "step budget %d exhausted" w;
               });
        raise (Fault.Watchdog_timeout !steps)
    | _ -> ()
  in
  (try
     while true do
       if !steps > conc_budget then begin
         deadlocked := true;
         raise Exit
       end;
       check_abort ();
       (* pick a runnable thread, preferring the current one *)
       if not (runnable !current) then begin
         let t = next_runnable !current in
         if t < 0 then raise Exit;
         if ev_on () then
           emit Obs.Event.sched_tid
             (Obs.Event.Switch { from_ = !current; to_ = t; reason = "blocked" });
         current := t
       end;
       let tid = !current in
       let th = threads.(tid) in
       (* start the next system call if the thread is between calls;
          starting one consumes no guest step and enters kernel mode *)
       let in_kernel =
         match Vm.cpu_mode env.vm tid with
         | Vm.Kernel -> true
         | Vm.User ->
             let i = th.next_call in
             start_syscall env tid th.retvals i th.prog.(i);
             if ev_on () then
               emit tid
                 (Obs.Event.Syscall_enter { index = i; nr = th.prog.(i).Fuzzer.Prog.nr });
             th.frames.depth <- 0;
             true
         | Vm.Dead when not th.started ->
             th.started <- true;
             start_syscall env tid th.retvals 0 th.prog.(0);
             if ev_on () then
               emit tid
                 (Obs.Event.Syscall_enter { index = 0; nr = th.prog.(0).Fuzzer.Prog.nr });
             th.frames.depth <- 0;
             true
         | Vm.Dead -> false
       in
       if in_kernel then begin
         let batch = policy.event_only in
         let bfid =
           if prof_on then attr_fid env.attr (Vm.cpu_pc env.vm tid) else -1
         in
         (* Per-step policies get one instruction per call: at quantum 1
            [Vm.run_tblock_conc] retires exactly one (a superop only its
            first half).  Event-only policies get whole blocks.  The
            quantum is clamped so no abort threshold can be crossed
            mid-block: the budget, watchdog and injected-fault checks at
            the loop top fire at exactly the step counts the per-step
            loop would have seen.  ([check_abort] already ran, so every
            bound is strictly ahead and the quantum is >= 1.) *)
         let q =
           if not batch then 1
           else
             let q = conc_budget + 1 - !steps in
             let q =
               match watchdog with Some w -> min q (w - !steps) | None -> q
             in
             match fault with
             | Fault.Crash at | Fault.Truncate at -> min q (at - !steps)
             | _ -> q
         in
         let reason = Vm.run_tblock_conc env.vm env.tcode ~tid ~quantum:q sink in
         steps := !steps + sink.Vm.sk_steps;
         (* The frame log first, then the shared accesses: a shared
            access can only sit in the block's last instruction, after
            every logged call and return, and a call's or return's own
            stack access is never shared.  So each shared access is
            attributed with exactly the frames [Vm.step]'s event order
            gives it. *)
         let fr = th.frames in
         apply_frames fr sink;
         if sink.Vm.sk_any_shared then
           for k = 0 to sink.Vm.sk_n_acc - 1 do
             if sink.Vm.sk_acc_shared.(k) then begin
               let ctx = attribute env.attr fr sink.Vm.sk_acc_pc.(k) in
               log_append lg sink k ~tid ~ctx;
               if ev_on () then
                 emit tid
                   (Obs.Event.Access
                      {
                        pc = sink.Vm.sk_acc_pc.(k);
                        addr = sink.Vm.sk_acc_addr.(k);
                        size = sink.Vm.sk_acc_size.(k);
                        write = sink.Vm.sk_acc_write.(k);
                        value = sink.Vm.sk_acc_value.(k);
                        ctx;
                      })
             end
           done;
         if prof_on then charge_block prof env.attr sink ~fid:bfid;
         (match reason with
         | Vm.Rret_to_user ->
             th.retvals.(th.next_call) <- Vm.reg env.vm tid Isa.r0;
             if ev_on () then
               emit tid
                 (Obs.Event.Syscall_exit
                    { index = th.next_call; ret = th.retvals.(th.next_call) });
             th.next_call <- th.next_call + 1;
             if th.next_call >= Array.length th.prog then th.done_ <- true
         | Vm.Rdead -> if th.started then th.done_ <- true
         | Vm.Rnone | Vm.Revent -> ());
         if Vm.panicked env.vm then raise Exit;
         (* each instruction before the block's decision point is one a
            per-step iteration would have found plain, resetting the
            pause streak *)
         let decision = match reason with Vm.Rnone -> false | _ -> true in
         if sink.Vm.sk_steps > (if decision then 1 else 0) then
           pause_streak := 0;
         if (not batch) || decision then begin
         let want = policy.decide tid sink in
         if want then begin
           incr sched_points;
           if ev_on () then emit tid (Obs.Event.Sched_point { tid })
         end;
         if sink.Vm.sk_pause then begin
           (* the is_live heuristic: a spinning thread must yield *)
           let t = next_runnable tid in
           if t >= 0 then begin
             pause_streak := 0;
             incr switches;
             if ev_on () then
               emit Obs.Event.sched_tid
                 (Obs.Event.Switch { from_ = tid; to_ = t; reason = "pause" });
             current := t
           end
           else begin
             incr pause_streak;
             if !pause_streak > pause_limit then begin
               deadlocked := true;
               raise Exit
             end
           end
         end
         else begin
           pause_streak := 0;
           if want then begin
             let t = next_runnable tid in
             if t >= 0 then begin
               incr switches;
               if ev_on () then
                 emit Obs.Event.sched_tid
                   (Obs.Event.Switch { from_ = tid; to_ = t; reason = "policy" });
               current := t
             end
           end
         end
         end
       end
     done
   with Exit -> ());
  if ev_on () then
    emit Obs.Event.sched_tid
      (Obs.Event.Trial_end
         {
           verdict =
             (if Vm.panicked env.vm then "panic"
              else if !deadlocked then "deadlock"
              else "ok");
         });
  Obs.Metrics.incr m_conc_runs;
  Obs.Metrics.add m_preemptions !switches;
  Obs.Metrics.add m_schedule_points !sched_points;
  if !deadlocked then Obs.Metrics.incr m_deadlocks;
  Obs.Metrics.observe h_conc_steps !steps;
  if !deadlocked then
    Log.debug (fun m ->
        m "concurrent run hit the budget or deadlocked after %d steps, %d switches"
          !steps !switches);
  {
    cc_console = Vm.console_lines env.vm;
    cc_panicked = Vm.panicked env.vm;
    cc_deadlocked = !deadlocked;
    cc_steps = !steps;
    cc_switches = !switches;
    cc_log = Trace.view lg;
    cc_accesses = Array.make n [];
    cc_retvals = Array.map (fun th -> th.retvals) threads;
  }

(* The list-shaped interface over [run_multi]: the per-thread lists and
   the [observer.on_access] stream, both derived from the log after the
   run, in its order. *)
let run_conc env ~(writer : Fuzzer.Prog.t) ~(reader : Fuzzer.Prog.t)
    ~(policy : policy) ?(observer = default_observer) ?watchdog
    ?(fault = Fault.No_fault) ?prof () =
  let r =
    run_multi env ~progs:[| writer; reader |] ~policy ~observer ?watchdog
      ~fault ?prof ()
  in
  let lg = Trace.read_view r.cc_log in
  let records = Array.init lg.Trace.len (Trace.entry lg) in
  Array.iteri
    (fun i a -> observer.on_access a ~ctx:lg.Trace.l_ctx.(i))
    records;
  let lists = Array.make 2 [] in
  for i = lg.Trace.len - 1 downto 0 do
    let t = lg.Trace.l_thread.(i) in
    lists.(t) <- records.(i) :: lists.(t)
  done;
  { r with cc_accesses = lists }
