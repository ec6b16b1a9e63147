(* Tests for the zero-allocation execution core: the threaded-code
   interpreter against the [Vm.step] oracle (whole runs, with the fast
   profile builder against the oracle builder, also on the profiling
   path with an active collector, and lockstep, one instruction at a
   time), the record-free sequential runner against the recording one,
   batched concurrent trials against per-step ones, the guest
   profiler's per-function rows against a golden digest, the edge
   cache, and the fingerprint/edge-key regressions. *)

module Vm = Vmm.Vm
module Asm = Vmm.Asm
module Isa = Vmm.Isa
module Trace = Vmm.Trace
module P = Fuzzer.Prog
module Exec = Sched.Exec
module Policies = Sched.Policies
module Replay = Sched.Replay

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let env = lazy (Exec.make_env Kernel.Config.v5_12_rc3)

(* ---------------- threaded run_seq vs the Vm.step oracle ------------ *)

(* [run_seq] (threaded-code blocks, shared accesses only) must produce
   the result record of [run_seq_step] with its every-access list
   filtered through [Trace.is_shared], edges included, AND leave the VM
   in the identical state (fingerprint covers all guest-visible state);
   the fast profile builder on its result must equal the oracle builder
   on the oracle's.  Random programs reach faults, console output, locks
   and budget aborts. *)
let prop_run_seq_equivalent =
  QCheck.Test.make ~name:"threaded run_seq matches Vm.step" ~count:60
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let env = Lazy.force env in
      let prog = Fuzzer.Gen.generate (Random.State.make [| seed |]) in
      let r_step = Exec.run_seq_step env ~tid:0 prog in
      let fp_step = Vm.fingerprint env.Exec.vm in
      let r = Exec.run_seq ~accesses:true env ~tid:0 prog in
      let filtered =
        {
          r_step with
          Exec.sq_accesses = List.filter Trace.is_shared r_step.Exec.sq_accesses;
        }
      in
      filtered = r
      && fp_step = Vm.fingerprint env.Exec.vm
      && Core.Profile.of_shared ~test_id:7 r.Exec.sq_accesses
         = Core.Profile.of_accesses ~test_id:7 r_step.Exec.sq_accesses)

(* The profiling path as [Pipeline.profile_corpus] runs it: [run_seq]
   with an active guest-profiler collector.  Collecting must not change
   the result, the fast profile builder on it must equal the oracle
   builder on [run_seq_step]'s, and the collector must attribute every
   retired instruction and every shared access. *)
let prop_shared_profile_equivalent =
  QCheck.Test.make
    ~name:"shared runner + fast profile builder match the legacy pair"
    ~count:60
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let env = Lazy.force env in
      let prog = Fuzzer.Gen.generate (Random.State.make [| seed |]) in
      let r_step = Exec.run_seq_step env ~tid:0 prog in
      Obs.Profguest.set_enabled true;
      let prof = Obs.Profguest.collector () in
      let r =
        Fun.protect
          ~finally:(fun () -> Obs.Profguest.set_enabled false)
          (fun () -> Exec.run_seq ~prof ~accesses:true env ~tid:0 prog)
      in
      let rows = Obs.Profguest.drain prof in
      let instr = List.fold_left (fun a (_, n, _) -> a + n) 0 rows in
      let shared = List.fold_left (fun a (_, _, s) -> a + s) 0 rows in
      r = Exec.run_seq ~accesses:true env ~tid:0 prog
      && r.Exec.sq_accesses = List.filter Trace.is_shared r_step.Exec.sq_accesses
      && Core.Profile.of_shared ~test_id:7 r.Exec.sq_accesses
         = Core.Profile.of_accesses ~test_id:7 r_step.Exec.sq_accesses
      && instr = r.Exec.sq_steps
      && shared = List.length r.Exec.sq_accesses)

(* The record-free path, as fuzzing and [with_setup] run it: without
   [~accesses:true], [run_seq] must return the recording run's steps,
   edges, return values, console and panic flag with no access record,
   and leave the VM in the same state; with the guest profiler on, it
   must charge the same rows. *)
let prop_record_free_equivalent =
  QCheck.Test.make ~name:"record-free run_seq matches the recording one"
    ~count:60
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let env = Lazy.force env in
      let prog = Fuzzer.Gen.generate (Random.State.make [| seed |]) in
      let profiled ~accesses =
        Obs.Profguest.set_enabled true;
        let prof = Obs.Profguest.collector () in
        Fun.protect
          ~finally:(fun () -> Obs.Profguest.set_enabled false)
          (fun () -> ignore (Exec.run_seq ~prof ~accesses env ~tid:0 prog));
        Obs.Profguest.drain prof
      in
      let r_rec = Exec.run_seq ~accesses:true env ~tid:0 prog in
      let fp_rec = Vm.fingerprint env.Exec.vm in
      let r = Exec.run_seq env ~tid:0 prog in
      r = { r_rec with Exec.sq_accesses = [] }
      && Vm.fingerprint env.Exec.vm = fp_rec
      && profiled ~accesses:false = profiled ~accesses:true)

(* Lockstep: stepping one VM with [Vm.step] and its twin with
   [Vm.run_tblock_conc] at quantum 1 (the executor's per-step cadence for
   PCT and per-step replays), every call must retire exactly one
   instruction whose sunk events materialise to [Vm.step]'s list, with
   the VM's shared flags and frame log matching them, and the twins
   must end in the same state.  Each case opens a descriptor
   (fd 0, the first free slot), then makes system calls, biased towards
   getsockname and ioctl, which write and read through a pointer
   argument.  Arguments are descriptors, commands and pointers into the
   NULL guard, the kernel, user space and nowhere, so a good share of
   cases die in the fault arms. *)
let twins =
  lazy
    ( Exec.make_env Kernel.Config.v5_12_rc3,
      Exec.make_env Kernel.Config.v5_12_rc3 )

let gen_arg =
  QCheck.Gen.(
    frequency
      [
        (3, int_range (-2) 11);
        (2, int_range 0 0xfff);
        (2, int_range 0 (Vmm.Layout.kmem_size + 64));
        (2, map (fun o -> Vmm.Layout.user_base + o) (int_range 0 4096));
        (1, int);
      ])

let gen_syscalls =
  let open Kernel.Abi in
  QCheck.Gen.(
    let opener =
      frequency
        [
          ( 3,
            map
              (fun af -> (sys_socket, [ af; 0 ]))
              (oneofl
                 [ af_packet; af_packet; af_inet; af_inet6; px_proto_ol2tp ])
          );
          ( 1,
            map (fun p -> (sys_open, [ p; 0 ])) (int_range 0 (num_paths - 1))
          );
          (1, return (sys_pipe, []));
        ]
    in
    let call =
      map3
        (fun nr fd args -> (nr, fd :: args))
        (frequency
           [
             (2, return sys_getsockname);
             (2, return sys_ioctl);
             (4, int_range 0 (num_syscalls + 1));
           ])
        (frequency [ (4, return 0); (1, int_range (-1) 3) ])
        (list_size (int_range 1 3) gen_arg)
    in
    map2 (fun o l -> o :: l) opener (list_size (int_range 1 4) call))

(* Every recorded access carries [Trace.is_shared_at] on its recorded
   fields, and the block's shared bit is their disjunction. *)
let check_sink_flags nr (sink : Vm.sink) =
  let any = ref false in
  for k = 0 to sink.Vm.sk_n_acc - 1 do
    let sh =
      Trace.is_shared_at ~addr:sink.Vm.sk_acc_addr.(k) ~sp:sink.Vm.sk_acc_sp.(k)
    in
    if sink.Vm.sk_acc_shared.(k) <> sh then
      QCheck.Test.fail_reportf "syscall %d: access %d shared flag %b, expected %b"
        nr k sink.Vm.sk_acc_shared.(k) sh;
    if sh then any := true
  done;
  if sink.Vm.sk_any_shared <> !any then
    QCheck.Test.fail_reportf "syscall %d: block shared bit %b, expected %b" nr
      sink.Vm.sk_any_shared !any

(* A one-instruction block logs exactly its own call or return to kernel
   code: the entry the executor's shadow stack replays in place of
   [Ecall]/[Ereturn]. *)
let check_frame_log nr (sink : Vm.sink) pc_after =
  let expected =
    if sink.Vm.sk_call >= 0 then [ (true, sink.Vm.sk_call, 1) ]
    else if sink.Vm.sk_return then [ (false, pc_after, 1) ]
    else []
  in
  let logged =
    List.init sink.Vm.sk_n_frames (fun e ->
        (sink.Vm.sk_fr_push.(e), sink.Vm.sk_fr_pc.(e), sink.Vm.sk_fr_steps.(e)))
  in
  if logged <> expected then
    QCheck.Test.fail_reportf "syscall %d: frame log differs at pc %d" nr pc_after

let prop_lockstep_events =
  QCheck.Test.make ~name:"lockstep event lists" ~count:80
    (QCheck.make ~print:QCheck.Print.(list (pair int (list int))) gen_syscalls)
    (fun calls ->
      let e1, e2 = Lazy.force twins in
      let v1 = e1.Exec.vm and v2 = e2.Exec.vm in
      let sink = Vm.make_sink () in
      Vm.restore v1 e1.Exec.snap;
      Vm.restore v2 e2.Exec.snap;
      List.iter
        (fun (nr, args) ->
          if not (Vm.panicked v1) then begin
            let start env =
              Vm.start_call env.Exec.vm 0 env.Exec.kern.Kernel.syscall_entry
                args;
              Vm.set_reg env.Exec.vm 0 Isa.r12 nr
            in
            start e1;
            start e2;
            let budget = ref 20_000 in
            while Vm.cpu_mode v1 0 = Vm.Kernel && !budget > 0 do
              decr budget;
              let evs = Vm.step v1 0 in
              ignore
                (Vm.run_tblock_conc v2 e2.Exec.tcode ~tid:0 ~quantum:1 sink);
              if sink.Vm.sk_steps <> 1 then
                QCheck.Test.fail_reportf "syscall %d: %d instructions retired"
                  nr sink.Vm.sk_steps;
              if Vm.sink_events sink ~thread:0 <> evs then
                QCheck.Test.fail_reportf "syscall %d: events differ at pc %d"
                  nr (Vm.cpu_pc v1 0);
              check_sink_flags nr sink;
              check_frame_log nr sink (Vm.cpu_pc v2 0)
            done
          end)
        calls;
      Vm.fingerprint v1 = Vm.fingerprint v2)

(* ---------------- fingerprint separator regressions ----------------- *)

let tiny_vm () =
  let a = Asm.create () in
  Asm.func a "f" (fun () -> Asm.emit a Isa.Ret);
  Vm.create (Asm.link a)

let test_fingerprint_regs_unambiguous () =
  (* r0=1,r1=23 vs r0=12,r1=3: same digit stream, different states *)
  let v1 = tiny_vm () and v2 = tiny_vm () in
  checkb "identical fresh VMs" true (Vm.fingerprint v1 = Vm.fingerprint v2);
  Vm.set_reg v1 0 Isa.r0 1;
  Vm.set_reg v1 0 Isa.r1 23;
  Vm.set_reg v2 0 Isa.r0 12;
  Vm.set_reg v2 0 Isa.r1 3;
  checkb "register boundaries are delimited" false
    (Vm.fingerprint v1 = Vm.fingerprint v2)

let test_fingerprint_console_unambiguous () =
  (* ["ab"] vs ["a"; "b"]: same bytes, different line structure *)
  let v1 = tiny_vm () and v2 = tiny_vm () in
  Vm.add_console v1 "ab";
  Vm.add_console v2 "a";
  Vm.add_console v2 "b";
  checkb "console lines are length-prefixed" false
    (Vm.fingerprint v1 = Vm.fingerprint v2)

(* ---------------- edge keys and the edge set ------------------------ *)

let test_edge_key_boundaries () =
  let vm = tiny_vm () in
  Vm.reset_coverage vm;
  (* the extreme in-range edge survives the key packing intact *)
  Vm.record_edge vm Vm.edge_pc_max Vm.edge_pc_max;
  checkb "max edge roundtrips" true
    (Vm.coverage_edges vm = [ (Vm.edge_pc_max, Vm.edge_pc_max) ]);
  (* out-of-range on either side is dropped, not aliased *)
  Vm.record_edge vm (Vm.edge_pc_max + 1) 5;
  Vm.record_edge vm 5 (Vm.edge_pc_max + 1);
  Vm.record_edge vm (-1) 5;
  Vm.record_edge vm 5 (-1);
  checki "out-of-range edges dropped" 1 (Vm.coverage_size vm)

let test_edge_cache_reset () =
  (* a recorded edge must not survive reset_coverage: the generation
     bump frees its slot, and re-recording must find it absent again *)
  let vm = tiny_vm () in
  Vm.reset_coverage vm;
  Vm.record_edge vm 3 4;
  Vm.record_edge vm 3 4;
  checki "one edge, once" 1 (Vm.coverage_size vm);
  Vm.reset_coverage vm;
  checki "reset clears coverage" 0 (Vm.coverage_size vm);
  Vm.record_edge vm 3 4;
  checki "re-recorded after reset" 1 (Vm.coverage_size vm);
  checkb "and extractable" true (Vm.coverage_edges vm = [ (3, 4) ])

let test_edges_first_seen () =
  (* the edges come back in the order they were first recorded, a
     repeat keeping its first place *)
  let vm = tiny_vm () in
  Vm.reset_coverage vm;
  Vm.record_edge vm 9 1;
  Vm.record_edge vm 2 8;
  Vm.record_edge vm 9 1;
  Vm.record_edge vm 2 3;
  Vm.record_edge vm 1 1;
  checkb "first-seen order" true
    (Vm.coverage_edges vm = [ (9, 1); (2, 8); (2, 3); (1, 1) ])

(* ---------------- sink frame plumbing ------------------------------- *)

let test_sink_access_capacity () =
  let s = Vm.make_sink () in
  let a =
    {
      Trace.thread = 0;
      pc = 1;
      addr = 0x100;
      size = 8;
      kind = Trace.Read;
      value = 0;
      atomic = false;
      sp = Vmm.Layout.stack_top 0 - 32;
    }
  in
  for i = 1 to Vm.sink_capacity do
    Vm.sink_push_access s a;
    checki "accesses accumulate" i s.Vm.sk_n_acc
  done;
  Alcotest.check_raises "overflow rejected"
    (Invalid_argument "vm: sink access overflow") (fun () ->
      Vm.sink_push_access s a);
  Vm.sink_clear s;
  checki "clear empties the frame" 0 s.Vm.sk_n_acc

let test_events_sunk_counter () =
  let env = Lazy.force env in
  let before = Vm.events_sunk env.Exec.vm in
  let prog = [ { P.nr = Kernel.Abi.sys_socket; args = [ P.Const 1; P.Const 0 ] } ] in
  ignore (Exec.run_seq env ~tid:0 prog);
  checkb "sink executions count sunk events" true
    (Vm.events_sunk env.Exec.vm > before)

(* ---------------- threaded code: decode, cache, quantum ------------- *)

let test_threaded_decode () =
  let env = Lazy.force env in
  let tc = env.Exec.tcode in
  checkb "threaded code covers the image" true (Vmm.Tcode.length tc > 0);
  checkb "the kernel image has fusable pairs" true
    (Vmm.Tcode.fused_pairs tc > 0);
  checkb "decoded from the env's own image" true
    (Vmm.Tcode.same_image tc env.Exec.kern.Kernel.image)

let test_stale_tcode_rejected () =
  (* two builds of the same config are distinct images; applying one
     image's threaded code to the other must fail loudly, not execute
     the wrong program *)
  let e1 = Exec.make_env Kernel.Config.v5_12_rc3 in
  let e2 = Exec.make_env Kernel.Config.v5_12_rc3 in
  checkb "fresh builds are distinct images" false
    (Vmm.Tcode.same_image e1.Exec.tcode e2.Exec.kern.Kernel.image);
  let sink = Vm.make_sink () in
  Vm.restore e2.Exec.vm e2.Exec.snap;
  Alcotest.check_raises "stale threaded code rejected"
    (Invalid_argument
       "vm: stale threaded code: decoded from a different image (rebuild \
        via Tcode.of_image)") (fun () ->
      ignore (Vm.run_tblock e2.Exec.vm e1.Exec.tcode ~tid:0 ~quantum:8 sink))

(* [run_tblock] respects the quantum exactly: quantum 1 is
   per-instruction stepping (fused pairs retire one half per step), and
   the instruction count is identical either way. *)
let test_threaded_quantum () =
  let env = Lazy.force env in
  let start () =
    Vm.restore env.Exec.vm env.Exec.snap;
    Vm.start_call env.Exec.vm 0 env.Exec.kern.Kernel.syscall_entry [ 1; 0 ];
    Vm.set_reg env.Exec.vm 0 Isa.r12 Kernel.Abi.sys_open
  in
  let sink = Vm.make_sink () in
  start ();
  let steps = ref 0 in
  while Vm.cpu_mode env.Exec.vm 0 = Vm.Kernel && !steps < 100_000 do
    ignore (Vm.run_tblock env.Exec.vm env.Exec.tcode ~tid:0 ~quantum:1 sink);
    checki "quantum 1 retires exactly one instruction" 1 sink.Vm.sk_steps;
    incr steps
  done;
  start ();
  let total = ref 0 in
  while Vm.cpu_mode env.Exec.vm 0 = Vm.Kernel && !total < 100_000 do
    ignore (Vm.run_tblock env.Exec.vm env.Exec.tcode ~tid:0 ~quantum:7 sink);
    checkb "quantum bounds the block" true (sink.Vm.sk_steps <= 7);
    total := !total + sink.Vm.sk_steps
  done;
  checki "same instruction count either way" !steps !total

(* ---------------- block-batched concurrent execution ---------------- *)

let outcome = Testutil.Conc_outcome.outcome

(* Everything one concurrent trial emits. *)
type emitted = {
  res : Exec.conc_result;
  events : Obs.Event.t list;  (* flight record, rebased on its first clock *)
  seen : int;
  observed : (Trace.access * string) list;  (* the observer's stream *)
  rows : (string * int * int) list;  (* drained guest-profiler rows *)
}

(* One trial of scenario [s] under [policy], observed and profiled. *)
let emit_trial env ~(s : Harness.Scenarios.scenario) policy =
  let observed = ref [] in
  let observer =
    {
      Exec.default_observer with
      Exec.on_access = (fun a ~ctx -> observed := (a, ctx) :: !observed);
    }
  in
  let prof = Obs.Profguest.collector () in
  Obs.Event.reset ();
  let res =
    Exec.run_conc env ~writer:s.Harness.Scenarios.writer
      ~reader:s.Harness.Scenarios.reader ~policy ~observer ~prof ()
  in
  (* [Vm.steps] accumulates across trials on the same VM, so absolute
     virtual clocks carry a per-trial baseline *)
  let events =
    match Obs.Event.events () with
    | [] -> []
    | e0 :: _ as evs ->
        List.map
          (fun (e : Obs.Event.t) ->
            { e with Obs.Event.vclock = e.Obs.Event.vclock - e0.Obs.Event.vclock })
          evs
  in
  {
    res;
    events;
    seen = Obs.Event.seen ();
    observed = List.rev !observed;
    rows = Obs.Profguest.drain prof;
  }

(* A recorded trial. *)
type recorded = {
  out : emitted;
  trace : Replay.trace;
  consulted : int;  (* the executor's [decide] calls *)
  at_ends : string;
      (* the decisions made on instructions that end a concurrent
         block, in order *)
}

(* Does the sink's last instruction end a concurrent block?  A shared
   access, a pause, a return to user space, a halt, a panic or fault, or
   a console line: the instructions {!Vm.run_tblock_conc} stops after. *)
let ends_block (sk : Vm.sink) =
  sk.Vm.sk_any_shared || sk.Vm.sk_pause || sk.Vm.sk_ret_to_user
  || sk.Vm.sk_halt || sk.Vm.sk_panic || sk.Vm.sk_has_fault
  || sk.Vm.sk_has_console

(* [trials] seeded snowboard trials of scenario [s] that share one policy
   state, as [Explore.run]'s do (so later trials run with learned
   flags), recorded, observed and profiled; batched (the policy's
   [event_only] intact) or per step (forced off). *)
let conc_batch_trials env ~(s : Harness.Scenarios.scenario) ~hint ~seed
    ~trials ~batch =
  let st = Policies.snowboard_state hint in
  List.init trials (fun i ->
      let inner = Policies.snowboard (Random.State.make [| seed + i |]) st in
      let inner =
        { inner with Exec.event_only = inner.Exec.event_only && batch }
      in
      let rec_ = Replay.record inner in
      let consulted = ref 0 and at_ends = Buffer.create 128 in
      let policy =
        {
          rec_.Replay.policy with
          Exec.decide =
            (fun tid sk ->
              incr consulted;
              let d = rec_.Replay.policy.Exec.decide tid sk in
              if ends_block sk then Buffer.add_char at_ends (if d then '1' else '0');
              d);
        }
      in
      let out = emit_trial env ~s policy in
      {
        out;
        trace = rec_.Replay.finish ();
        consulted = !consulted;
        at_ends = Buffer.contents at_ends;
      })

(* The batched and per-step runs of [trials] trials must emit the same
   results, flight records, observer streams and profiler rows.  Each
   trace holds one decision per consultation at its run's cadence; the
   batched run is consulted only where a concurrent block ends, and its
   trace equals the per-step trace's decisions there.  Returns the
   number of panicking trials. *)
let check_batch_identical env ~(s : Harness.Scenarios.scenario) ~hint ~seed
    ~trials =
  let run batch = conc_batch_trials env ~s ~hint ~seed ~trials ~batch in
  List.fold_left
    (fun panics (i, (b, p)) ->
      let fail what =
        QCheck.Test.fail_reportf "issue %d, seed %d, trial %d: %s"
          s.Harness.Scenarios.issue seed i what
      in
      if outcome b.out.res <> outcome p.out.res then fail "results differ";
      if Replay.length b.trace <> b.consulted
         || Replay.length p.trace <> p.consulted
      then fail "a trace length is not the trial's policy consultations";
      if (not b.trace.Replay.t_event_only) || p.trace.Replay.t_event_only then
        fail "a trace does not record its cadence";
      if b.at_ends <> b.trace.Replay.t_decisions then
        fail "the batched run consulted the policy inside a block";
      if
        b.trace.Replay.t_first <> p.trace.Replay.t_first
        || b.trace.Replay.t_decisions <> p.at_ends
      then
        fail
          (Printf.sprintf "traces differ: %s vs %s at block ends"
             (Replay.to_string b.trace) p.at_ends);
      if b.out.events <> p.out.events || b.out.seen <> p.out.seen then
        fail "flight records differ";
      if b.out.observed <> p.out.observed then fail "observer streams differ";
      if b.out.rows <> p.out.rows then fail "profiler rows differ";
      if b.out.rows = [] then fail "the profiler recorded nothing";
      if p.out.res.Exec.cc_panicked then panics + 1 else panics)
    0
    (List.mapi (fun i bp -> (i, bp)) (List.combine (run true) (run false)))

let with_recording f =
  Obs.Event.configure ~capacity:65536 ~enabled:true ();
  Obs.Profguest.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Obs.Profguest.set_enabled false;
      Obs.Event.configure ~enabled:false ())
    f

let scenario_hints =
  lazy
    (let env = Lazy.force env in
     List.map
       (fun s ->
         (s, snd (Harness.Scenarios.identify env (Harness.Scenarios.progs s))))
       Harness.Scenarios.all)

(* Run every scenario batched and per step, with the flight recorder and
   the guest profiler on: every trial must emit the same result, trace,
   flight record, observer stream and profiler rows. *)
let prop_conc_batch ~hinted =
  QCheck.Test.make
    ~name:
      (if hinted then "conc batching byte-identical (hinted)"
       else "conc batching byte-identical")
    ~count:3
    QCheck.(int_range 1 100_000)
    (fun seed ->
      let env = Lazy.force env in
      with_recording (fun () ->
          List.iter
            (fun ((s : Harness.Scenarios.scenario), hints) ->
              let hint =
                match hints with
                | _ :: _ when hinted ->
                    Some (List.nth hints (seed mod List.length hints))
                | _ -> None
              in
              ignore (check_batch_identical env ~s ~hint ~seed ~trials:3))
            (Lazy.force scenario_hints);
          true))

(* The same check on trials that panic after the final block ran past
   calls and stack accesses: issue #12's use-after-free under its first
   hint on the all-buggy kernel. *)
let test_conc_batch_panics () =
  let env = Exec.make_env Kernel.Config.all_buggy in
  let s = Option.get (Harness.Scenarios.find 12) in
  let hint =
    List.hd (snd (Harness.Scenarios.identify env (Harness.Scenarios.progs s)))
  in
  let panics =
    with_recording (fun () ->
        check_batch_identical env ~s ~hint:(Some hint) ~seed:0 ~trials:6)
  in
  checkb "some trials panicked" true (panics > 0)

(* The executor's part of a flight record: the policy's own hint
   events dropped, and with them the emission-order stamps. *)
let executor_events evs =
  List.filter_map
    (fun (e : Obs.Event.t) ->
      match e.Obs.Event.kind with
      | Obs.Event.Hint_hit _ | Obs.Event.Hint_window _ -> None
      | k -> Some (e.Obs.Event.vclock, e.Obs.Event.tid, k))
    evs

(* A trace recorded under batching replays at its own cadence, in whole
   blocks, to the recorded outcome and flight record; so does a
   per-step one, an instruction at a time.  The hinted trial switches,
   so a replay at the wrong cadence would apply its switches at other
   instructions. *)
let test_conc_batch_trace_replays () =
  let env = Lazy.force env in
  let s, hints = List.nth (Lazy.force scenario_hints) 11 (* #12 l2tp *) in
  with_recording (fun () ->
      List.iter
        (fun batch ->
          match
            conc_batch_trials env ~s ~hint:(Some (List.hd hints)) ~seed:5
              ~trials:1 ~batch
          with
          | [ b ] -> (
              match Replay.of_string (Replay.to_string b.trace) with
              | None -> Alcotest.fail "recorded trace does not parse"
              | Some trace ->
                  let r = emit_trial env ~s (Replay.replay trace) in
                  let what = if batch then "batched" else "per-step" in
                  checkb (what ^ " trace switches") true
                    (Replay.num_switches trace > 0);
                  checkb (what ^ " trace replays to the outcome") true
                    (outcome b.out.res = outcome r.res);
                  checkb (what ^ " trace replays the flight record") true
                    (executor_events b.out.events = executor_events r.events))
          | _ -> Alcotest.fail "one trial expected")
        [ true; false ])

(* ---------------- guest profiler rows, pinned ----------------------- *)

(* MD5 of the guest profiler's merged per-function rows (name, then the
   profile and explore phases' instructions and shared accesses) after a
   small fixed campaign: [Pipeline.prepare] profiles a seed-3 fuzz
   corpus through [run_seq], and two methods' explore trials run
   through [run_multi].  The properties above check only the rows'
   totals; this pins which function each instruction and shared access
   is charged to.  Computed at both worker counts on the commit before
   sequential blocks crossed calls and returns. *)
let golden_rows = "619a95857a6cc58465729d52fd160aa4"

let profiler_rows_digest ~jobs =
  let module P = Harness.Pipeline in
  Obs.Profguest.reset ();
  Obs.Profguest.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Obs.Profguest.set_enabled false;
      Obs.Profguest.reset ())
    (fun () ->
      let p =
        P.prepare
          { P.default with P.seed = 3; fuzz_iters = 150; trials_per_test = 4; jobs }
      in
      List.iter
        (fun m -> ignore (P.run_method p m ~budget:6))
        [ Core.Select.Strategy Core.Cluster.S_INS_PAIR; Core.Select.Random_pairing ];
      let b = Buffer.create 4096 in
      List.iter
        (fun (r : Obs.Profguest.row) ->
          Printf.bprintf b "%s %d %d %d %d\n" r.Obs.Profguest.r_name
            r.Obs.Profguest.r_profile_instr r.Obs.Profguest.r_profile_shared
            r.Obs.Profguest.r_explore_instr r.Obs.Profguest.r_explore_shared)
        (Obs.Profguest.rows ());
      Digest.to_hex (Digest.string (Buffer.contents b)))

let test_profiler_rows_golden () =
  List.iter
    (fun jobs ->
      Alcotest.(check string)
        (Printf.sprintf "profiler rows at jobs=%d equal the pinned ones" jobs)
        golden_rows (profiler_rows_digest ~jobs))
    [ 1; 2 ]

(* ---------------- edge set generation wrap -------------------------- *)

let test_edge_cache_generation_wrap () =
  (* the generation stamp wraps long before 0x8000 resets; the wrap
     zeroes the table outright, so a pre-wrap slot can never pass for a
     post-wrap member and swallow a fresh edge *)
  let vm = tiny_vm () in
  Vm.reset_coverage vm;
  Vm.record_edge vm 3 4;
  for _ = 1 to 0x8000 do
    Vm.reset_coverage vm
  done;
  checki "wrap leaves coverage empty" 0 (Vm.coverage_size vm);
  Vm.record_edge vm 3 4;
  checki "edge re-recorded across the wrap" 1 (Vm.coverage_size vm);
  checkb "and extractable" true (Vm.coverage_edges vm = [ (3, 4) ])

(* ---------------- throughput gauge guard ---------------------------- *)

let test_note_throughput_guard () =
  let g = Obs.Metrics.gauge ~unit_:"instr/s" "snowboard.sched/steps_per_sec" in
  Obs.Metrics.set g 0;
  Exec.note_throughput ~steps:1000 ~seconds:0.;
  checki "zero elapsed leaves the gauge alone" 0 (Obs.Metrics.gauge_value g);
  Exec.note_throughput ~steps:1000 ~seconds:(-1.);
  checki "negative elapsed leaves the gauge alone" 0 (Obs.Metrics.gauge_value g);
  Exec.note_throughput ~steps:0 ~seconds:1.;
  checki "zero steps leaves the gauge alone" 0 (Obs.Metrics.gauge_value g);
  Exec.note_throughput ~steps:max_int ~seconds:1e-300;
  checkb "tiny elapsed still yields a representable rate" true
    (Obs.Metrics.gauge_value g >= 0);
  Exec.note_throughput ~steps:1_000_000 ~seconds:0.5;
  checki "a sane rate is recorded" 2_000_000 (Obs.Metrics.gauge_value g)

let qtests =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_run_seq_equivalent;
      prop_shared_profile_equivalent;
      prop_record_free_equivalent;
      prop_lockstep_events;
      prop_conc_batch ~hinted:false;
      prop_conc_batch ~hinted:true;
    ]

let tests =
  [
    Alcotest.test_case "fingerprint regs" `Quick test_fingerprint_regs_unambiguous;
    Alcotest.test_case "fingerprint console" `Quick
      test_fingerprint_console_unambiguous;
    Alcotest.test_case "edge key boundaries" `Quick test_edge_key_boundaries;
    Alcotest.test_case "edge cache reset" `Quick test_edge_cache_reset;
    Alcotest.test_case "edges in first-seen order" `Quick test_edges_first_seen;
    Alcotest.test_case "sink capacity" `Quick test_sink_access_capacity;
    Alcotest.test_case "events sunk counter" `Quick test_events_sunk_counter;
    Alcotest.test_case "threaded decode + cache" `Quick test_threaded_decode;
    Alcotest.test_case "stale threaded code" `Quick test_stale_tcode_rejected;
    Alcotest.test_case "threaded quantum" `Quick test_threaded_quantum;
    Alcotest.test_case "conc batching on panicking trials" `Quick
      test_conc_batch_panics;
    Alcotest.test_case "batch-recorded trace replays" `Quick
      test_conc_batch_trace_replays;
    Alcotest.test_case "edge cache generation wrap" `Quick
      test_edge_cache_generation_wrap;
    Alcotest.test_case "throughput gauge guard" `Quick
      test_note_throughput_guard;
    Alcotest.test_case "profiler rows golden" `Quick test_profiler_rows_golden;
  ]

let () = Alcotest.run "exec" [ ("sink+block", qtests @ tests) ]
