(* Tests for the zero-allocation execution core: the threaded-code
   interpreter against the [Vm.step] oracle (whole runs and lockstep,
   one instruction at a time), the shared-only profiling runner and fast
   profile builder against the legacy pair, the edge cache, and the
   fingerprint/edge-key regressions. *)

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

(* [run_seq] (threaded-code blocks) must produce the identical result
   record AND leave the VM in the identical state (fingerprint covers
   all guest-visible state) as [run_seq_step].  Random programs reach
   faults, console output, locks and budget aborts. *)
let prop_run_seq_equivalent =
  QCheck.Test.make ~name:"threaded run_seq matches Vm.step" ~count:60
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let env = Lazy.force env in
      let prog = Fuzzer.Gen.generate (Random.State.make [| seed |]) in
      let r_step = Exec.run_seq_step env ~tid:0 prog in
      let fp_step = Vm.fingerprint env.Exec.vm in
      let r = Exec.run_seq env ~tid:0 prog in
      r_step = r && fp_step = Vm.fingerprint env.Exec.vm)

(* The shared-only runner must equal the oracle with its access list
   filtered (and no edges); the fast profile builder must equal the
   oracle builder on the result. *)
let prop_shared_profile_equivalent =
  QCheck.Test.make
    ~name:"shared runner + fast profile builder match the legacy pair"
    ~count:60
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let env = Lazy.force env in
      let prog = Fuzzer.Gen.generate (Random.State.make [| seed |]) in
      let r_step = Exec.run_seq_step env ~tid:0 prog in
      let r_shared = Exec.run_seq_shared env ~tid:0 prog in
      let p_oracle = Core.Profile.of_accesses ~test_id:7 r_step.Exec.sq_accesses in
      let p_fast = Core.Profile.of_shared ~test_id:7 r_shared.Exec.sq_accesses in
      r_shared.Exec.sq_accesses
      = List.filter Trace.is_shared r_step.Exec.sq_accesses
      && r_shared.Exec.sq_edges = []
      && r_shared.Exec.sq_console = r_step.Exec.sq_console
      && r_shared.Exec.sq_panicked = r_step.Exec.sq_panicked
      && r_shared.Exec.sq_retvals = r_step.Exec.sq_retvals
      && r_shared.Exec.sq_steps = r_step.Exec.sq_steps
      && p_oracle = p_fast)

(* Lockstep: stepping one VM with [Vm.step] and its twin with
   [Vm.run_tblock_conc] at quantum 1 (the executor's per-step cadence for
   PCT and replay playback), every call must retire exactly one
   instruction whose sunk events materialise to [Vm.step]'s list, and
   the twins must end in the same state.  Each case opens a descriptor
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
                  nr (Vm.cpu_pc v1 0)
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

(* ---------------- edge keys and the edge cache ---------------------- *)

let test_edge_key_boundaries () =
  List.iter
    (fun record ->
      let vm = tiny_vm () in
      Vm.reset_coverage vm;
      (* the extreme in-range edge survives the key packing intact *)
      record vm Vm.edge_pc_max Vm.edge_pc_max;
      checkb "max edge roundtrips" true
        (Vm.coverage_edges vm = [ (Vm.edge_pc_max, Vm.edge_pc_max) ]);
      (* out-of-range on either side is dropped, not aliased *)
      record vm (Vm.edge_pc_max + 1) 5;
      record vm 5 (Vm.edge_pc_max + 1);
      record vm (-1) 5;
      record vm 5 (-1);
      checki "out-of-range edges dropped" 1 (Vm.coverage_size vm))
    [ Vm.record_edge; Vm.record_edge_fast ]

let test_edge_cache_reset () =
  (* a cached edge must not survive reset_coverage: if a stale cache hit
     skipped the table insert, the edge would be lost after a reset *)
  let vm = tiny_vm () in
  Vm.reset_coverage vm;
  Vm.record_edge_fast vm 3 4;
  Vm.record_edge_fast vm 3 4;
  checki "one edge, once" 1 (Vm.coverage_size vm);
  Vm.reset_coverage vm;
  checki "reset clears coverage" 0 (Vm.coverage_size vm);
  Vm.record_edge_fast vm 3 4;
  checki "re-recorded after reset" 1 (Vm.coverage_size vm);
  checkb "and extractable" true (Vm.coverage_edges vm = [ (3, 4) ])

let test_edges_sorted_and_mixed () =
  (* both extraction sources (insertion log / table fold) must agree,
     and the list is sorted *)
  let vm = tiny_vm () in
  Vm.reset_coverage vm;
  Vm.record_edge_fast vm 9 1;
  Vm.record_edge_fast vm 2 8;
  Vm.record_edge_fast vm 2 3;
  checkb "log path sorted" true (Vm.coverage_edges vm = [ (2, 3); (2, 8); (9, 1) ]);
  (* a legacy insert invalidates the log; the fold path must return the
     same sorted list *)
  Vm.record_edge vm 1 1;
  checkb "fold path sorted" true
    (Vm.coverage_edges vm = [ (1, 1); (2, 3); (2, 8); (9, 1) ])

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

(* Run the same seeded snowboard trial twice on the same env: once
   batched (the policy's [event_only] declaration intact), once with it
   forced off (per-step loop).  Everything observable — the result
   record, the recorded decision trace and the flight-recorder stream —
   must be byte-identical. *)
let conc_batch_run env ~(s : Harness.Scenarios.scenario) ~hint ~seed ~batch =
  let rng = Random.State.make [| seed |] in
  let st = Policies.snowboard_state hint in
  let inner = Policies.snowboard rng st in
  let inner = { inner with Exec.event_only = inner.Exec.event_only && batch } in
  let rec_ = Replay.record inner in
  Obs.Event.reset ();
  let res =
    Exec.run_conc env ~writer:s.Harness.Scenarios.writer
      ~reader:s.Harness.Scenarios.reader ~policy:rec_.Replay.policy ()
  in
  (* [Vm.steps] accumulates across trials on the same VM, so absolute
     virtual clocks carry a per-trial baseline; rebase on the trial's
     first event to compare the streams themselves *)
  let evs =
    match Obs.Event.events () with
    | [] -> []
    | e0 :: _ as evs ->
        List.map
          (fun (e : Obs.Event.t) ->
            { e with Obs.Event.vclock = e.Obs.Event.vclock - e0.Obs.Event.vclock })
          evs
  in
  let seen = Obs.Event.seen () in
  (res, Replay.to_string (rec_.Replay.finish ()), evs, seen)

let test_conc_batch_identical () =
  let env = Lazy.force env in
  Obs.Event.configure ~capacity:4096 ~deterministic:true ~enabled:true ();
  let scenarios =
    [ List.nth Harness.Scenarios.all 11 (* #12 l2tp *);
      List.nth Harness.Scenarios.all 0 (* #1 rhashtable *) ]
  in
  List.iter
    (fun s ->
      for seed = 1 to 3 do
        let r_b, t_b, e_b, n_b = conc_batch_run env ~s ~hint:None ~seed ~batch:true in
        let r_p, t_p, e_p, n_p =
          conc_batch_run env ~s ~hint:None ~seed ~batch:false
        in
        checkb "batched result = per-step result" true (r_b = r_p);
        Alcotest.(check string) "batched trace = per-step trace" t_p t_b;
        checkb "batched flight record = per-step flight record" true (e_b = e_p);
        checki "same events seen" n_p n_b
      done)
    scenarios;
  Obs.Event.configure ~enabled:false ()

let test_conc_batch_identical_hinted () =
  (* same, under a PMC hint: the hint-window machinery (flags, windows,
     hit/miss classification) runs at events only, so batching must not
     perturb it either *)
  let env = Lazy.force env in
  let s = List.nth Harness.Scenarios.all 0 (* #1 rhashtable *) in
  let _, hints = Harness.Scenarios.identify env s in
  checkb "scenario yields hints" true (hints <> []);
  let hint = Some (List.hd hints) in
  Obs.Event.configure ~capacity:4096 ~deterministic:true ~enabled:true ();
  for seed = 1 to 3 do
    let r_b, t_b, e_b, n_b = conc_batch_run env ~s ~hint ~seed ~batch:true in
    let r_p, t_p, e_p, n_p = conc_batch_run env ~s ~hint ~seed ~batch:false in
    checkb "hinted: batched result = per-step result" true (r_b = r_p);
    Alcotest.(check string) "hinted: batched trace = per-step trace" t_p t_b;
    checkb "hinted: same flight record" true (e_b = e_p);
    checki "hinted: same events seen" n_p n_b
  done;
  Obs.Event.configure ~enabled:false ()

(* A trace recorded under batching replays on the per-step loop (and
   vice versa): the '0's [on_plain] appends stand in exactly for the
   skipped consultations. *)
let test_conc_batch_trace_replays () =
  let env = Lazy.force env in
  let s = List.nth Harness.Scenarios.all 11 (* #12 l2tp *) in
  let r_b, t_b, _, _ = conc_batch_run env ~s ~hint:None ~seed:5 ~batch:true in
  match Replay.of_string t_b with
  | None -> Alcotest.fail "recorded trace does not parse"
  | Some trace ->
      let r_r =
        Exec.run_conc env ~writer:s.Harness.Scenarios.writer
          ~reader:s.Harness.Scenarios.reader ~policy:(Replay.replay trace) ()
      in
      checkb "batch-recorded trace replays per-step" true (r_b = r_r)

(* ---------------- edge cache generation wrap ------------------------ *)

let test_edge_cache_generation_wrap () =
  (* the 15-bit generation tag wraps after 0x7fff resets; the wrap clears
     the cache outright, so a pre-wrap entry can never validate against a
     post-wrap generation and swallow a fresh edge *)
  let vm = tiny_vm () in
  Vm.reset_coverage vm;
  Vm.record_edge_fast vm 3 4;
  for _ = 1 to 0x8000 do
    Vm.reset_coverage vm
  done;
  checki "wrap leaves coverage empty" 0 (Vm.coverage_size vm);
  Vm.record_edge_fast vm 3 4;
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
      prop_lockstep_events;
    ]

let tests =
  [
    Alcotest.test_case "fingerprint regs" `Quick test_fingerprint_regs_unambiguous;
    Alcotest.test_case "fingerprint console" `Quick
      test_fingerprint_console_unambiguous;
    Alcotest.test_case "edge key boundaries" `Quick test_edge_key_boundaries;
    Alcotest.test_case "edge cache reset" `Quick test_edge_cache_reset;
    Alcotest.test_case "edges sorted, log and fold" `Quick
      test_edges_sorted_and_mixed;
    Alcotest.test_case "sink capacity" `Quick test_sink_access_capacity;
    Alcotest.test_case "events sunk counter" `Quick test_events_sunk_counter;
    Alcotest.test_case "threaded decode + cache" `Quick test_threaded_decode;
    Alcotest.test_case "stale threaded code" `Quick test_stale_tcode_rejected;
    Alcotest.test_case "threaded quantum" `Quick test_threaded_quantum;
    Alcotest.test_case "conc batching byte-identical" `Quick
      test_conc_batch_identical;
    Alcotest.test_case "conc batching byte-identical (hinted)" `Quick
      test_conc_batch_identical_hinted;
    Alcotest.test_case "batch-recorded trace replays" `Quick
      test_conc_batch_trace_replays;
    Alcotest.test_case "edge cache generation wrap" `Quick
      test_edge_cache_generation_wrap;
    Alcotest.test_case "throughput gauge guard" `Quick
      test_note_throughput_guard;
  ]

let () = Alcotest.run "exec" [ ("sink+block", qtests @ tests) ]
