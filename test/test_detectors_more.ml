(* Additional detector and scheduler edge cases: atomic RMW semantics in
   the happens-before analysis, a genuine ABBA deadlock driven at the VM
   level, explore's target filtering, and diagnosis helpers. *)

module Isa = Vmm.Isa
module Asm = Vmm.Asm
module Vm = Vmm.Vm
module Layout = Vmm.Layout
module Trace = Vmm.Trace
module Race = Detectors.Race
open Vmm.Isa

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let sp_of t = Layout.stack_top t - 64

let acc ~t ?(pc = 0) ~kind ?(atomic = false) ~addr ?(size = 8) ~value () =
  { Trace.thread = t; pc; addr; size; kind; value; atomic; sp = sp_of t }

let feed d l = List.iter (fun a -> Race.on_access d a ~ctx:"f") l

let x = 0x200

(* a full atomic RMW (Faa/Cas) as the VM emits it: marked read + write *)
let rmw t pc v =
  [
    acc ~t ~pc ~kind:Trace.Read ~atomic:true ~addr:x ~value:v ();
    acc ~t ~pc ~kind:Trace.Write ~atomic:true ~addr:x ~value:(v + 1) ();
  ]

let test_rmw_vs_rmw_clean () =
  let d = Race.create () in
  feed d (rmw 0 1 0);
  feed d (rmw 1 2 1);
  feed d (rmw 0 1 2);
  checki "atomic counters never race" 0 (Race.num_reports d)

let test_rmw_vs_plain_races () =
  let d = Race.create () in
  feed d (rmw 0 1 0);
  feed d [ acc ~t:1 ~pc:2 ~kind:Trace.Read ~addr:x ~value:1 () ];
  (* the plain read conflicts with the marked RMW write... but the RMW
     read ACQUIRES nothing here since thread 1 never released: check the
     opposite order too *)
  let d2 = Race.create () in
  feed d2 [ acc ~t:1 ~pc:2 ~kind:Trace.Write ~addr:x ~value:1 () ];
  feed d2 (rmw 0 1 1);
  checkb "plain write vs marked RMW flagged" true (Race.num_reports d2 >= 1);
  ignore d

let test_rmw_read_does_not_order_plain () =
  (* a marked RMW on a DIFFERENT cell creates no order for cell x *)
  let other = 0x300 in
  let d = Race.create () in
  feed d [ acc ~t:0 ~pc:1 ~kind:Trace.Write ~addr:x ~value:1 () ];
  feed d
    [
      acc ~t:0 ~pc:5 ~kind:Trace.Write ~atomic:true ~addr:other ~value:1 ();
      (* thread 1 acquires the OTHER cell: that DOES order the earlier
         write; so use a third cell it never acquired *)
      acc ~t:1 ~pc:7 ~kind:Trace.Read ~addr:x ~value:1 ();
    ];
  checki "no acquire means race" 1 (Race.num_reports d)

let test_acquire_transitivity () =
  (* t0 writes x, releases on L; t1 acquires L, writes y; t2 never
     syncs and reads y: only the t1/t2 pair races *)
  let l = 0x400 and y = 0x500 in
  let d = Race.create ~nthreads:3 () in
  feed d [ acc ~t:0 ~pc:1 ~kind:Trace.Write ~addr:x ~value:1 () ];
  feed d [ acc ~t:0 ~pc:2 ~kind:Trace.Write ~atomic:true ~addr:l ~value:0 () ];
  feed d [ acc ~t:1 ~pc:3 ~kind:Trace.Read ~atomic:true ~addr:l ~value:0 () ];
  feed d [ acc ~t:1 ~pc:4 ~kind:Trace.Read ~addr:x ~value:1 () ] (* ordered *);
  feed d [ acc ~t:1 ~pc:5 ~kind:Trace.Write ~addr:y ~value:2 () ];
  feed d [ acc ~t:2 ~pc:6 ~kind:Trace.Read ~addr:y ~value:2 () ] (* races *);
  checki "exactly the unsynchronised pair" 1 (Race.num_reports d);
  match Race.reports d with
  | [ r ] ->
      checki "write pc" 5 r.Race.write_pc;
      checki "read pc" 6 r.Race.other_pc
  | _ -> Alcotest.fail "expected one report"

(* ------------------------------------------------------------------ *)
(* ABBA deadlock, driven at the VM level                               *)

let test_abba_deadlock_observable () =
  let a = Asm.create () in
  let la = Asm.global a "lock_a" 8 and lb = Asm.global a "lock_b" 8 in
  let _ = Kernel.Kbase.install a false in
  let emit_order name l1 l2 =
    Kernel.Dsl.func a name (fun () ->
        Kernel.Dsl.li a r0 l1;
        Kernel.Dsl.call a "spin_lock";
        Kernel.Dsl.li a r0 l2;
        Kernel.Dsl.call a "spin_lock";
        Kernel.Dsl.li a r0 l2;
        Kernel.Dsl.call a "spin_unlock";
        Kernel.Dsl.li a r0 l1;
        Kernel.Dsl.call a "spin_unlock";
        Kernel.Dsl.ret a)
  in
  emit_order "take_ab" la lb;
  emit_order "take_ba" lb la;
  let image = Asm.link a in
  let vm = Vm.create image in
  Vm.start_call vm 0 (Asm.entry image "take_ab") [];
  Vm.start_call vm 1 (Asm.entry image "take_ba") [];
  (* drive each thread one instruction at a time; after each has taken
     its first lock, both end up spinning (emitting Pause periodically) *)
  let pauses = [| 0; 0 |] in
  for _ = 1 to 2_000 do
    for t = 0 to 1 do
      if Vm.cpu_mode vm t = Vm.Kernel then begin
        let evs = Vm.step vm t in
        if List.exists (function Vm.Epause -> true | _ -> false) evs then
          pauses.(t) <- pauses.(t) + 1
      end
    done
  done;
  checkb "both threads spin forever (ABBA deadlock)" true
    (pauses.(0) > 100 && pauses.(1) > 100);
  checkb "neither returned" true
    (Vm.cpu_mode vm 0 = Vm.Kernel && Vm.cpu_mode vm 1 = Vm.Kernel)

(* ------------------------------------------------------------------ *)
(* explore target filtering and misc                                   *)

let test_explore_target_issue () =
  (* with a target, explore ignores other findings: the slab race (#13)
     fires early but must not stop the search for #12 *)
  let env = Sched.Exec.make_env Kernel.Config.all_buggy in
  let s = match Harness.Scenarios.find 12 with Some s -> s | None -> assert false in
  let _, hints =
    Harness.Scenarios.identify env (Harness.Scenarios.progs s)
  in
  let res =
    Sched.Explore.run env ~ident:None ~writer:s.Harness.Scenarios.writer
      ~reader:s.Harness.Scenarios.reader
      ~hint:(List.nth_opt hints 0)
      ~kind:Sched.Explore.Snowboard ~trials:64 ~seed:42 ~stop_on_bug:true
      ~target_issue:(Some 12) ()
  in
  match res.Sched.Explore.first_bug with
  | Some n ->
      checkb "the target trial actually contains #12" true
        (List.mem 12 (List.nth res.Sched.Explore.trials (n - 1)).Sched.Explore.issues)
  | None -> checkb "acceptable: target not found this seed" true true

let test_kind_names () =
  checkb "names" true
    (Sched.Explore.kind_name Sched.Explore.Snowboard = "snowboard"
    && Sched.Explore.kind_name Sched.Explore.Ski = "ski"
    && Sched.Explore.kind_name (Sched.Explore.Naive 8) = "naive/8"
    && Sched.Explore.kind_name (Sched.Explore.Pct 3) = "pct/3")

let test_issue_extensions () =
  checkb "#18 findable" true (Detectors.Issues.find 18 <> None);
  checkb "#18 not in Table 2" true
    (not (List.exists (fun m -> m.Detectors.Issues.id = 18) Detectors.Issues.all));
  checkb "#99 unknown" true (Detectors.Issues.find 99 = None)

let test_chain_select_deterministic () =
  let env = Sched.Exec.make_env Kernel.Config.all_buggy in
  let relay op = { Fuzzer.Prog.nr = Kernel.Abi.sys_relay; args = [ Fuzzer.Prog.Const op ] } in
  let profiles =
    List.mapi
      (fun i p ->
        Core.Profile.of_accesses ~test_id:i
          (Sched.Exec.run_seq ~accesses:true env ~tid:0 p).Sched.Exec.sq_accesses)
      [ [ relay 1 ]; [ relay 2 ]; [ relay 3 ] ]
  in
  let ident = Core.Identify.run profiles in
  let chains = Core.Chain.find ident in
  let sel seed = Core.Chain.select (Random.State.make [| seed |]) chains in
  checkb "same seed same selection" true (sel 5 = sel 5)

(* ------------------------------------------------------------------ *)
(* CHESS-style bounded enumeration                                     *)

let test_enumerate_finds_bug_exhaustively () =
  let env = Sched.Exec.make_env Kernel.Config.all_buggy in
  let s = Option.get (Harness.Scenarios.find 16) in
  let r =
    Sched.Enumerate.run env ~writer:s.Harness.Scenarios.writer
      ~reader:s.Harness.Scenarios.reader ~preemption_bound:1
      ~max_executions:50_000 ()
  in
  checkb "bound exhausted" true r.Sched.Enumerate.exhausted;
  checkb "finds #16" true (List.mem 16 r.Sched.Enumerate.issues);
  checkb "execution count matches the space" true
    (* two starting threads x (1 + decision points) schedules, roughly *)
    (r.Sched.Enumerate.executions > r.Sched.Enumerate.decision_points);
  checkb "decision points discovered" true (r.Sched.Enumerate.decision_points > 10)

let test_enumerate_verifies_fixed_kernel () =
  (* the CHESS guarantee: within the preemption bound, the patched kernel
     provably produces no findings *)
  let env = Sched.Exec.make_env Kernel.Config.all_fixed in
  let s = Option.get (Harness.Scenarios.find 16) in
  let r =
    Sched.Enumerate.run env ~writer:s.Harness.Scenarios.writer
      ~reader:s.Harness.Scenarios.reader ~preemption_bound:2
      ~max_executions:100_000 ()
  in
  checkb "space exhausted" true r.Sched.Enumerate.exhausted;
  checkb "provably silent within bound 2" true (r.Sched.Enumerate.issues = []);
  checkb "nontrivial space" true (r.Sched.Enumerate.executions > 500)

let test_enumerate_budget_cap () =
  let env = Sched.Exec.make_env Kernel.Config.all_buggy in
  let s = Option.get (Harness.Scenarios.find 16) in
  let r =
    Sched.Enumerate.run env ~writer:s.Harness.Scenarios.writer
      ~reader:s.Harness.Scenarios.reader ~preemption_bound:3
      ~max_executions:50 ()
  in
  checkb "cap respected" true (r.Sched.Enumerate.executions <= 50);
  checkb "reported as not exhausted" false r.Sched.Enumerate.exhausted

let test_enumerate_negative_bound () =
  (* a negative bound admits no schedule at all, so it must not read as
     a verified-silent space *)
  let env = Sched.Exec.make_env Kernel.Config.all_fixed in
  let s = Option.get (Harness.Scenarios.find 13) in
  Alcotest.check_raises "negative bound rejected"
    (Invalid_argument "Enumerate.run: negative preemption bound") (fun () ->
      ignore
        (Sched.Enumerate.run env ~writer:s.Harness.Scenarios.writer
           ~reader:s.Harness.Scenarios.reader ~preemption_bound:(-1) ()))

let tests =
  [
    Alcotest.test_case "enumerate finds exhaustively" `Quick
      test_enumerate_finds_bug_exhaustively;
    Alcotest.test_case "enumerate verifies fixed kernel" `Slow
      test_enumerate_verifies_fixed_kernel;
    Alcotest.test_case "enumerate budget cap" `Quick test_enumerate_budget_cap;
    Alcotest.test_case "enumerate negative bound" `Quick
      test_enumerate_negative_bound;
    Alcotest.test_case "RMW vs RMW clean" `Quick test_rmw_vs_rmw_clean;
    Alcotest.test_case "RMW vs plain races" `Quick test_rmw_vs_plain_races;
    Alcotest.test_case "unrelated acquire does not order" `Quick
      test_rmw_read_does_not_order_plain;
    Alcotest.test_case "acquire transitivity (3 threads)" `Quick
      test_acquire_transitivity;
    Alcotest.test_case "ABBA deadlock observable" `Quick
      test_abba_deadlock_observable;
    Alcotest.test_case "explore target issue" `Quick test_explore_target_issue;
    Alcotest.test_case "kind names" `Quick test_kind_names;
    Alcotest.test_case "issue extensions" `Quick test_issue_extensions;
    Alcotest.test_case "chain select deterministic" `Quick
      test_chain_select_deterministic;
  ]

let () = Alcotest.run "detectors-more" [ ("hb+deadlock", tests) ]
