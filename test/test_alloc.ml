(* Allocation on the guest-access path, pinned.

   The zero-allocation cases count the words a call allocates on either
   heap ([Gc.minor_words], plus the blocks too large for the minor heap,
   which go straight to the major one), net of the count across an
   empty call (the measurement's own cost), after
   one warm-up call that takes the first-touch costs: dirty pages, the
   coverage table and edge cache, buffer growth, learned flags.  Each
   must come to exactly 0 words.  What a trial still allocates sits
   above these layers: one [Trace.access] record and list cell per
   shared access, the final [List.rev], the replay recorder's buffer and
   the result records.  A private (stack) access costs a sequential run
   nothing at all.  The two analyses after a trial are pinned the same
   way: the race detector allocates nothing per access once warm, and
   the incidental-PMC search allocates only the list it returns.

   The other cases cover what sharing and not retaining made possible:
   the per-domain sink (trials back to back, and after aborted trials,
   match), the per-domain race table (an aborted checked trial hands it
   back) and the environments a run leaves behind (freed once
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

let direct_major_words () =
  let _, promoted, major = Gc.counters () in
  major -. promoted

let measure f =
  let major = direct_major_words () in
  let minor = Gc.minor_words () in
  f ();
  Gc.minor_words () -. minor +. (direct_major_words () -. major)

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

(* Syscall 99 is out of range: [syscall_entry] returns -EINVAL after one
   private stack read (its [ret]) and no shared access.  A run of k such
   calls reports no access, and each extra call costs only its share of
   the program's bookkeeping (retval slot, arguments, closures) - a boxed
   access would add 15 words: the 9-word record, its list cell and its
   [List.rev] cell. *)
let test_private_accesses_free () =
  let e = Lazy.force env in
  let cost k =
    let prog = List.init k (fun _ -> { Fuzzer.Prog.nr = 99; args = [] }) in
    let r = Exec.run_seq e ~tid:0 prog in
    checkb "no access reported" true (r.Exec.sq_accesses = []);
    checkb "every call returned -EINVAL" true
      (Array.for_all (( = ) Kernel.Abi.einval) r.Exec.sq_retvals);
    words (fun () -> ignore (Exec.run_seq e ~tid:0 prog))
  in
  let w1 = cost 1 and w8 = cost 8 in
  let per_call = (w8 -. w1) /. 7. in
  checkb
    (Printf.sprintf "%.1f words per extra call (< 25)" per_call)
    true (per_call < 25.)

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

(* Learned flags and a second PMC under test, then accesses at pcs none
   of them watch: [decide] skips both lookups and allocates nothing. *)
let test_snowboard_decide_unwatched () =
  let st = Policies.snowboard_state (Some hint) in
  let p = Policies.snowboard (Random.State.make [| 3 |]) st in
  ignore (p.Exec.decide 0 (busy_sink ()));
  Policies.add_pmc st
    (Core.Pmc.make
       ~write:{ Core.Pmc.ins = 40; addr = 0x2700; size = 8; value = 1 }
       ~read:{ Core.Pmc.ins = 41; addr = 0x2700; size = 8; value = 0 }
       ~df_leader:false);
  checkb "flags were learned" true (Hashtbl.length st.Policies.flags > 0);
  let sink = Vm.make_sink () in
  List.iter (Vm.sink_push_access sink)
    [
      acc ~pc:31 ~addr:0x2100 Trace.Write;
      acc ~pc:32 ~addr:0x2500 Trace.Read;
      acc ~pc:400 ~addr:0x2700 Trace.Read;
      acc ~pc:(-1) ~addr:0x2700 Trace.Write;
    ];
  let windows = st.Policies.windows_seen in
  check_zero "snowboard decide, hinted, flags learned, unwatched pcs"
    (fun () ->
      for _ = 1 to 50 do
        ignore (p.Exec.decide 0 sink);
        ignore (p.Exec.decide 1 sink)
      done);
  checkb "no window entered" true (st.Policies.windows_seen = windows)

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

(* ---------------- the executor's per-block work ---------------- *)

(* A frame log of calls and returns, balanced so the shadow stack comes
   back to its depth: replaying it pushes and pops in place. *)
let test_apply_frames () =
  let sink = Vm.make_sink () in
  List.iteri
    (fun e (push, pc) ->
      sink.Vm.sk_fr_push.(e) <- push;
      sink.Vm.sk_fr_pc.(e) <- pc;
      sink.Vm.sk_fr_steps.(e) <- 3 * (e + 1))
    [ (true, 10); (true, 20); (false, 15); (true, 30); (false, 25); (false, 5) ];
  sink.Vm.sk_n_frames <- 6;
  let f = Exec.make_frames () in
  Exec.apply_frames f sink;
  checkb "a balanced log leaves the depth" true (Exec.frames_depth f = 0);
  check_zero "Exec.apply_frames, calls and returns" (fun () ->
      for _ = 1 to 100 do
        Exec.apply_frames f sink
      done)

(* Two threads making out-of-range system calls (one private stack read
   each, nothing shared) run identically however they interleave, so a
   trial that switches at every return to user space and one that never
   switches must allocate the same: a switch costs nothing. *)
let test_policy_switch () =
  let e = Lazy.force env in
  let prog = List.init 12 (fun _ -> { Fuzzer.Prog.nr = 99; args = [] }) in
  let progs = [| prog; prog |] in
  let policy decide =
    { Exec.first = 0; decide; event_only = false; on_plain = ignore }
  in
  let switching = policy (fun _ s -> s.Vm.sk_ret_to_user)
  and never = policy (fun _ _ -> false) in
  let trial policy = Exec.run_multi e ~progs ~policy () in
  checkb "the switching trial switches" true
    ((trial switching).Exec.cc_switches >= 20);
  checkb "the other does not" true ((trial never).Exec.cc_switches <= 1);
  let w_switching = words (fun () -> ignore (trial switching))
  and w_never = words (fun () -> ignore (trial never)) in
  Alcotest.(check (float 0.)) "run_multi, a policy switch" 0.
    (w_switching -. w_never)

(* ---------------- the trial analyses ---------------- *)

module Race = Detectors.Race

let shared tid ~pc ~addr ~size kind =
  {
    Trace.thread = tid;
    pc;
    addr;
    size;
    kind;
    value = 1;
    atomic = false;
    sp = Layout.stack_top tid - 32;
  }

let marked a = { a with Trace.atomic = true }

(* Two threads on fresh granules with aligned 8-byte accesses only (the
   whole-granule path), and on others with narrow and unaligned ones
   (byte by byte); some marked, so both clock edges run. *)
let whole_granules =
  [
    shared 0 ~pc:1 ~addr:0x2100 ~size:8 Trace.Write;
    shared 1 ~pc:2 ~addr:0x2100 ~size:8 Trace.Read;
    marked (shared 0 ~pc:3 ~addr:0x2108 ~size:8 Trace.Write);
    marked (shared 1 ~pc:4 ~addr:0x2108 ~size:8 Trace.Read);
    shared 1 ~pc:5 ~addr:0x2110 ~size:8 Trace.Write;
  ]

let bytewise =
  [
    shared 0 ~pc:6 ~addr:0x2203 ~size:4 Trace.Write;
    shared 1 ~pc:7 ~addr:0x2206 ~size:4 Trace.Read;
    marked (shared 0 ~pc:8 ~addr:0x220c ~size:8 Trace.Write);
    marked (shared 1 ~pc:9 ~addr:0x2210 ~size:2 Trace.Read);
    shared 1 ~pc:10 ~addr:0x2201 ~size:1 Trace.Write;
  ]

let rec feed d = function
  | [] -> ()
  | a :: rest ->
      Race.on_access d a ~ctx:"f";
      feed d rest

(* The first pass claims the granules, interns the function and makes
   every report; the second adds none and must allocate nothing. *)
let test_race_on_access () =
  let d = Race.create () in
  List.iter
    (fun (name, stream) ->
      feed d stream;
      let made = Race.num_reports d in
      Alcotest.(check (float 0.)) name 0. (words (fun () -> feed d stream));
      Alcotest.(check int)
        (name ^ ": no report added")
        made (Race.num_reports d))
    [
      ("Race.on_access, whole granules", whole_granules);
      ("Race.on_access, byte by byte", bytewise);
    ];
  checkb "the streams raced" true (Race.num_reports d >= 2);
  ignore (Race.reports d)

let never _ = false

(* Every value written at pc 10 differs from every value read at pc 20,
   so each (write, read) pair of values is a PMC, all in one slice. *)
let test_find_incidental () =
  let access ~pc kind value =
    { (shared 0 ~pc ~addr:0x2100 ~size:8 kind) with Trace.value }
  in
  let writer = List.init 6 (fun v -> access ~pc:10 Trace.Write (v + 1))
  and reader = List.init 4 (fun v -> access ~pc:20 Trace.Read (100 + v)) in
  let ident =
    Core.Identify.run
      [
        Core.Profile.of_accesses ~test_id:0 writer;
        Core.Profile.of_accesses ~test_id:1 reader;
      ]
  in
  (* unfiltered, as a thread's accesses come: each list mixes kinds *)
  let writes = List.hd writer :: reader and reads = List.hd reader :: writer in
  let found = ref [] in
  let search () =
    found := Core.Identify.find_incidental ident ~writes ~reads ~exclude:never
  in
  search ();
  let n = List.length !found in
  Alcotest.(check int) "every PMC found" 24 n;
  Alcotest.(check (float 0.))
    "Identify.find_incidental: 3 words per PMC found" (3. *. float n)
    (words search)

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

(* A checked trial the watchdog aborts still hands the domain's race
   table back, so the next detector reuses it instead of building a
   table (about 11.6k words for two threads). *)
let test_race_table_after_abort () =
  let e = Lazy.force buggy_env and s = Lazy.force scenario in
  let check ?watchdog () =
    Sched.Explore.check e
      ~progs:[| s.Harness.Scenarios.writer; s.Harness.Scenarios.reader |]
      ~policy:(Policies.naive (Random.State.make [| 5 |]) ~period:4)
      ?watchdog ()
  in
  let detector () = ignore (Race.reports (Race.create ())) in
  ignore (check ());
  let reused = words detector in
  (match check ~watchdog:40 () with
  | exception Fault.Watchdog_timeout _ -> ()
  | _ -> Alcotest.fail "the watchdog must abort the trial");
  Alcotest.(check (float 0.))
    "a detector after an aborted check builds no table" reused
    (words detector)

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
          Alcotest.test_case "private accesses in run_seq" `Quick
            test_private_accesses_free;
          Alcotest.test_case "policy decide" `Quick test_snowboard_decide;
          Alcotest.test_case "policy decide, unwatched pcs" `Quick
            test_snowboard_decide_unwatched;
          Alcotest.test_case "frame log replay" `Quick test_apply_frames;
          Alcotest.test_case "policy switch" `Quick test_policy_switch;
          Alcotest.test_case "replay recorder" `Quick test_replay_record;
          Alcotest.test_case "race detector per access" `Quick
            test_race_on_access;
          Alcotest.test_case "incidental search" `Quick test_find_incidental;
        ] );
      ( "per-domain sink",
        [
          Alcotest.test_case "trials after aborts match" `Quick test_shared_sink;
          Alcotest.test_case "race table after an aborted check" `Quick
            test_race_table_after_abort;
        ] );
      ( "retention",
        [
          Alcotest.test_case "dropped envs are freed" `Quick test_make_env_freed;
          Alcotest.test_case "unrecorded runs are not retained" `Quick
            test_unrecorded_run_not_retained;
        ] );
    ]
