(* Allocation on the guest-access path, pinned.

   The zero-allocation cases count [Gc.minor_words] across a call, net of
   the count across an empty call (the measurement's own cost), after
   one warm-up call that takes the first-touch costs: dirty pages, the
   coverage table and edge cache, buffer growth, learned flags.  Each
   must come to exactly 0 words.  What a trial still allocates sits
   above these layers: one [Trace.access] record and list cell per
   shared access, the final [List.rev], the replay recorder's buffer and
   the result records.

   The other cases cover what sharing and not retaining made possible:
   the per-domain sink (trials back to back, and after aborted trials,
   match) and the environments a run leaves behind (freed once
   dropped). *)

module Vm = Vmm.Vm
module Trace = Vmm.Trace
module Layout = Vmm.Layout
module Isa = Vmm.Isa
module Exec = Sched.Exec
module Policies = Sched.Policies
module Replay = Sched.Replay
module Fault = Sched.Fault

let checkb = Alcotest.(check bool)

let measure f =
  let before = Gc.minor_words () in
  f ();
  Gc.minor_words () -. before

(* Words [f ()] allocates, net of the measurement itself. *)
let words f =
  let empty = measure (fun () -> ()) in
  measure f -. empty

let check_zero name f =
  f ();
  Alcotest.(check (float 0.)) name 0. (words f)

let env = lazy (Exec.make_env Kernel.Config.v5_12_rc3)

(* ---------------- memory arms ---------------- *)

let tiny_vm () =
  let a = Vmm.Asm.create () in
  Vmm.Asm.func a "f" (fun () -> Vmm.Asm.emit a Isa.Ret);
  Vm.create (Vmm.Asm.link a)

let test_peek_poke () =
  let vm = tiny_vm () in
  let sum = ref 0 in
  let k = Layout.kheap_base and u = Layout.user_base + 64 in
  check_zero "kernel peek/poke" (fun () ->
      for i = 0 to 63 do
        Vm.poke vm 0 (k + (8 * i)) 8 i;
        Vm.poke vm 1 (k + 1024 + i) 1 i;
        sum := !sum + Vm.peek vm 2 (k + (8 * i)) 8 + Vm.peek vm 3 (k + i) 2
      done);
  check_zero "user peek/poke" (fun () ->
      for i = 0 to 63 do
        Vm.poke vm 0 (u + (4 * i)) 4 i;
        Vm.poke vm 3 (u + (2 * i)) 2 i;
        sum := !sum + Vm.peek vm 0 (u + (4 * i)) 4 + Vm.peek vm 3 (u + i) 1
      done);
  checkb "peeks saw the pokes" true (!sum > 0)

(* One socket() system call of the booted kernel, from its entry to the
   return to user space, through [run]. *)
let syscall_args = [ Kernel.Abi.af_inet; 0 ]

let syscall_words name run =
  let e = Lazy.force env in
  let start () =
    Vm.restore e.Exec.vm e.Exec.snap;
    Vm.start_call e.Exec.vm 0 e.Exec.kern.Kernel.syscall_entry syscall_args;
    Vm.set_reg e.Exec.vm 0 Isa.r12 Kernel.Abi.sys_socket
  in
  let pass () =
    let r = ref (run e) in
    while !r <> Vm.Rret_to_user && !r <> Vm.Rdead do
      r := run e
    done
  in
  start ();
  pass ();
  start ();
  let w = words pass in
  checkb (name ^ ": the call returned to user space") true
    (Vm.cpu_mode e.Exec.vm 0 = Vm.User && not (Vm.panicked e.Exec.vm));
  Alcotest.(check (float 0.)) name 0. w

let test_syscall_passes () =
  let sink = Vm.make_sink () in
  syscall_words "run_tblock_conc" (fun e ->
      Vm.run_tblock_conc e.Exec.vm e.Exec.tcode ~tid:0 ~quantum:1000 sink);
  syscall_words "run_tblock" (fun e ->
      Vm.run_tblock e.Exec.vm e.Exec.tcode ~tid:0 ~quantum:1000 sink);
  syscall_words "run_tblock_conc, quantum 1" (fun e ->
      Vm.run_tblock_conc e.Exec.vm e.Exec.tcode ~tid:0 ~quantum:1 sink)

let test_is_shared_at () =
  let sps = [| Layout.stack_top 0 - 8; Layout.stack_top 3 - 64; -8; max_int |] in
  let addrs =
    [| Layout.kdata_base; Layout.stack_top 0 - 16; Layout.user_base; -1; max_int |]
  in
  let n = ref 0 in
  check_zero "Trace.is_shared_at" (fun () ->
      for i = 0 to Array.length sps - 1 do
        for j = 0 to Array.length addrs - 1 do
          if Trace.is_shared_at ~addr:addrs.(j) ~sp:sps.(i) then incr n
        done
      done);
  checkb "some accesses were shared" true (!n > 0)

(* ---------------- policies and the recorder ---------------- *)

let sp = Layout.stack_top 0 - 32

let acc ~pc ~addr kind =
  { Trace.thread = 0; pc; addr; size = 8; kind; value = 1; atomic = false; sp }

(* A flag candidate, the hinted write, a stack access (filtered), the
   hinted read and an unrelated shared read. *)
let busy_sink () =
  let s = Vm.make_sink () in
  List.iter (Vm.sink_push_access s)
    [
      acc ~pc:7 ~addr:0x2500 Trace.Read;
      acc ~pc:10 ~addr:0x2100 Trace.Write;
      acc ~pc:5 ~addr:(sp + 8) Trace.Write;
      acc ~pc:20 ~addr:0x2100 Trace.Read;
      acc ~pc:30 ~addr:0x2600 Trace.Read;
    ];
  s

let hint =
  Core.Pmc.make
    ~write:{ Core.Pmc.ins = 10; addr = 0x2100; size = 8; value = 1 }
    ~read:{ Core.Pmc.ins = 20; addr = 0x2100; size = 8; value = 0 }
    ~df_leader:false

let test_snowboard_decide () =
  let sink = busy_sink () in
  let st = Policies.snowboard_state (Some hint) in
  let p = Policies.snowboard (Random.State.make [| 3 |]) st in
  check_zero "snowboard decide, hinted, flags learned" (fun () ->
      for _ = 1 to 50 do
        ignore (p.Exec.decide 0 sink);
        ignore (p.Exec.decide 1 sink)
      done);
  checkb "flags were learned" true (Hashtbl.length st.Policies.flags > 0);
  checkb "flag windows were entered" true (st.Policies.windows_seen > 0);
  let bare = Policies.snowboard_state None in
  let p = Policies.snowboard (Random.State.make [| 3 |]) bare in
  check_zero "snowboard decide, no hint" (fun () ->
      for _ = 1 to 50 do
        ignore (p.Exec.decide 0 sink)
      done);
  checkb "the last shared access is remembered" true
    (bare.Policies.last_access.(0)
    = Policies.signature (acc ~pc:30 ~addr:0x2600 Trace.Read));
  let p = Policies.naive (Random.State.make [| 3 |]) ~period:3 in
  check_zero "naive decide" (fun () ->
      for _ = 1 to 50 do
        ignore (p.Exec.decide 0 sink)
      done)

let test_replay_record () =
  let sink = busy_sink () in
  let r = Replay.record (Policies.naive (Random.State.make [| 1 |]) ~period:3) in
  (* grow the buffer past everything measured below *)
  r.Replay.policy.Exec.on_plain 5000;
  check_zero "Replay.record decide/on_plain" (fun () ->
      for _ = 1 to 100 do
        ignore (r.Replay.policy.Exec.decide 0 sink);
        r.Replay.policy.Exec.on_plain 3
      done);
  let t = r.Replay.finish () in
  checkb "every decision was recorded" true (Replay.length t = 5000 + 800);
  checkb "the trace round-trips" true
    (Replay.of_string (Replay.to_string t) = Some t)

(* ---------------- one sink per domain ---------------- *)

let buggy_env = lazy (Exec.make_env Kernel.Config.all_buggy)

let scenario =
  lazy
    (match Harness.Scenarios.find 13 with
    | Some s -> s
    | None -> Alcotest.fail "scenario 13 missing")

(* A recorded trial: its full result and its replay string. *)
let trial ?watchdog ?fault () =
  let e = Lazy.force buggy_env and s = Lazy.force scenario in
  let r = Replay.record (Policies.naive (Random.State.make [| 5 |]) ~period:4) in
  let res =
    Exec.run_conc e ~writer:s.Harness.Scenarios.writer
      ~reader:s.Harness.Scenarios.reader ~policy:r.Replay.policy ?watchdog
      ?fault ()
  in
  (res, Replay.to_string (r.Replay.finish ()))

let seq () =
  let e = Lazy.force buggy_env and s = Lazy.force scenario in
  Exec.run_seq e ~tid:0 s.Harness.Scenarios.writer

let test_shared_sink () =
  let first = trial () and first_seq = seq () in
  checkb "two back-to-back trials match" true (trial () = first);
  (match trial ~watchdog:40 () with
  | exception Fault.Watchdog_timeout _ -> ()
  | _ -> Alcotest.fail "the watchdog must abort the trial");
  checkb "a trial after a watchdog abort matches" true (trial () = first);
  checkb "a sequential run after a watchdog abort matches" true
    (seq () = first_seq);
  (match trial ~fault:(Fault.Crash 60) () with
  | exception Fault.Injected_crash _ -> ()
  | _ -> Alcotest.fail "the injected crash must abort the trial");
  checkb "a trial after an injected crash matches" true (trial () = first);
  checkb "a sequential run after an injected crash matches" true
    (seq () = first_seq)

(* ---------------- nothing retained past its owner ---------------- *)

let live_words () =
  Gc.full_major ();
  (Gc.quick_stat ()).Gc.live_words

(* Each env decodes its own threaded code; dropping the env frees it. *)
let test_make_env_freed () =
  let start = live_words () in
  for _ = 1 to 50 do
    ignore (Sys.opaque_identity (Exec.make_env Kernel.Config.v5_12_rc3))
  done;
  let grown = live_words () - start in
  let mib = 1024 * 1024 / (Sys.word_size / 8) in
  checkb
    (Printf.sprintf "live heap after 50 dropped envs: +%d words (<= %d)" grown
       mib)
    true (grown <= mib)

(* With recording off, the flight recorder's clock must not keep the
   last run's env (VM, snapshot, image, code) alive. *)
let test_unrecorded_run_not_retained () =
  checkb "recording is off" false (Obs.Event.enabled ());
  let w = Weak.create 1 in
  let run () =
    let e = Exec.make_env Kernel.Config.v5_12_rc3 in
    Weak.set w 0 (Some e.Exec.vm);
    let s = Lazy.force scenario in
    ignore
      (Exec.run_conc e ~writer:s.Harness.Scenarios.writer
         ~reader:s.Harness.Scenarios.reader
         ~policy:(Policies.naive (Random.State.make [| 1 |]) ~period:4)
         ())
  in
  run ();
  Gc.full_major ();
  checkb "the finished run's VM was collected" true (Weak.get w 0 = None)

let () =
  Alcotest.run "alloc"
    [
      ( "zero allocation",
        [
          Alcotest.test_case "peek and poke" `Quick test_peek_poke;
          Alcotest.test_case "one syscall per interpreter" `Quick
            test_syscall_passes;
          Alcotest.test_case "is_shared_at" `Quick test_is_shared_at;
          Alcotest.test_case "policy decide" `Quick test_snowboard_decide;
          Alcotest.test_case "replay recorder" `Quick test_replay_record;
        ] );
      ( "per-domain sink",
        [ Alcotest.test_case "trials after aborts match" `Quick test_shared_sink ]
      );
      ( "retention",
        [
          Alcotest.test_case "dropped envs are freed" `Quick test_make_env_freed;
          Alcotest.test_case "unrecorded runs are not retained" `Quick
            test_unrecorded_run_not_retained;
        ] );
    ]
