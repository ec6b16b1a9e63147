(* Tests for the execution framework: sequential/concurrent executors,
   scheduling policies (Algorithm 2 mechanics), liveness handling and
   replay determinism. *)

module Abi = Kernel.Abi
module P = Fuzzer.Prog
module Exec = Sched.Exec
module Explore = Sched.Explore
module Policies = Sched.Policies
module Trace = Vmm.Trace

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let c nr args = { P.nr; args }
let k v = P.Const v

let env = lazy (Exec.make_env Kernel.Config.all_buggy)

let sock_prog = [ c Abi.sys_socket [ k Abi.af_inet; k 0 ] ]

let msg_prog = [ c Abi.sys_msgget [ k 1 ]; c Abi.sys_msgget [ k 2 ] ]

(* a one-access sink frame, for driving policies without guest code *)
let sink_of_access a =
  let s = Vmm.Vm.make_sink () in
  Vmm.Vm.sink_push_access s a;
  s

(* returns true even on event-free sinks: not batchable *)
let always_switch : Exec.policy =
  {
    Exec.first = 0;
    decide = (fun _ _ -> true);
    event_only = false;
    on_plain = ignore;
  }

let never_switch : Exec.policy =
  {
    Exec.first = 0;
    decide = (fun _ _ -> false);
    event_only = true;
    on_plain = ignore;
  }

let test_conc_completes_both () =
  let e = Lazy.force env in
  let res = Exec.run_conc e ~writer:sock_prog ~reader:msg_prog ~policy:never_switch () in
  checkb "no deadlock" false res.Exec.cc_deadlocked;
  checki "writer fd" 0 res.Exec.cc_retvals.(0).(0);
  checki "reader first id" 100 res.Exec.cc_retvals.(1).(0);
  checki "reader second id" 101 res.Exec.cc_retvals.(1).(1)

let test_conc_interleaves () =
  let e = Lazy.force env in
  let res =
    Exec.run_conc e ~writer:msg_prog ~reader:msg_prog ~policy:always_switch ()
  in
  checkb "no deadlock under max preemption" false res.Exec.cc_deadlocked;
  checkb "both made progress" true
    (res.Exec.cc_accesses.(0) <> [] && res.Exec.cc_accesses.(1) <> []);
  (* msq ids are globally unique even under full interleaving *)
  let ids =
    List.concat_map Array.to_list (Array.to_list res.Exec.cc_retvals)
    |> List.sort compare
  in
  checkb "ids unique" true (List.sort_uniq compare ids = ids)

let test_spinlock_contention_progresses () =
  (* both threads hammer the ext4 lock: the pause-based liveness switch
     must let them alternate rather than deadlock *)
  let e = Lazy.force env in
  let prog =
    [
      c Abi.sys_open [ k 1; k 0 ];
      c Abi.sys_read [ P.Res 0; k 8 ];
      c Abi.sys_write [ P.Res 0; k 8 ];
      c Abi.sys_read [ P.Res 0; k 8 ];
    ]
  in
  let res = Exec.run_conc e ~writer:prog ~reader:prog ~policy:always_switch () in
  checkb "completes" false res.Exec.cc_deadlocked;
  checki "writer all ok" 0 res.Exec.cc_retvals.(0).(3);
  checki "reader all ok" 0 res.Exec.cc_retvals.(1).(3)

let test_observer_sees_shared_only () =
  let e = Lazy.force env in
  let seen = ref [] in
  let observer =
    {
      Exec.default_observer with
      Exec.on_access = (fun a ~ctx -> seen := (a, ctx) :: !seen);
    }
  in
  let res =
    Exec.run_conc e ~writer:sock_prog ~reader:sock_prog ~policy:never_switch
      ~observer ()
  in
  checkb "observer saw accesses" true (!seen <> []);
  checkb "all shared" true (List.for_all (fun (a, _) -> Trace.is_shared a) !seen);
  checkb "contexts attributed" true
    (List.exists (fun (_, ctx) -> ctx = "cache_alloc_refill") !seen);
  checkb "helpers not used as context" true
    (List.for_all (fun (_, ctx) -> ctx <> "memcpy" && ctx <> "spin_lock") !seen);
  ignore res

let test_replay_determinism () =
  (* same seed -> identical trial outcomes, including accesses *)
  let e = Lazy.force env in
  let s = List.nth Harness.Scenarios.all 11 (* #12, l2tp *) in
  let run () =
    let rng = Random.State.make [| 5 |] in
    let st = Policies.snowboard_state None in
    let policy = Policies.snowboard rng st in
    Exec.run_conc e ~writer:s.Harness.Scenarios.writer
      ~reader:s.Harness.Scenarios.reader ~policy ()
  in
  let r1 = run () and r2 = run () in
  checkb "same steps" true (r1.Exec.cc_steps = r2.Exec.cc_steps);
  checkb "same accesses" true (r1.Exec.cc_accesses = r2.Exec.cc_accesses);
  checkb "same console" true (r1.Exec.cc_console = r2.Exec.cc_console)

let test_snowboard_policy_switch_points () =
  (* the snowboard policy requests switches only at PMC or flagged
     accesses *)
  let mk_access ?(pc = 10) ?(addr = 0x100) kind =
    {
      Trace.thread = 0;
      pc;
      addr;
      size = 8;
      kind;
      value = 1;
      atomic = false;
      sp = Vmm.Layout.stack_top 0 - 32;
    }
  in
  let pmc =
    Core.Pmc.make
      ~write:{ Core.Pmc.ins = 10; addr = 0x100; size = 8; value = 1 }
      ~read:{ Core.Pmc.ins = 20; addr = 0x100; size = 8; value = 0 }
      ~df_leader:false
  in
  let st = Policies.snowboard_state (Some pmc) in
  let rng = Random.State.make [| 3 |] in
  let policy = Policies.snowboard rng st in
  (* a non-PMC access never triggers a switch request *)
  let wants = ref false in
  for _ = 1 to 50 do
    if policy.Exec.decide 0 (sink_of_access (mk_access ~pc:99 ~addr:0x900 Trace.Read))
    then wants := true
  done;
  checkb "non-PMC access never switches" false !wants;
  (* a matching PMC write eventually triggers a switch *)
  let wants = ref false in
  for _ = 1 to 50 do
    if policy.Exec.decide 0 (sink_of_access (mk_access Trace.Write)) then
      wants := true
  done;
  checkb "PMC access switches eventually" true !wants

let test_snowboard_flags_learned () =
  let pmc =
    Core.Pmc.make
      ~write:{ Core.Pmc.ins = 10; addr = 0x100; size = 8; value = 1 }
      ~read:{ Core.Pmc.ins = 20; addr = 0x100; size = 8; value = 0 }
      ~df_leader:false
  in
  let st = Policies.snowboard_state (Some pmc) in
  let rng = Random.State.make [| 3 |] in
  let policy = Policies.snowboard rng st in
  let acc ~pc ~addr kind =
    {
      Trace.thread = 0;
      pc;
      addr;
      size = 8;
      kind;
      value = 1;
      atomic = false;
      sp = Vmm.Layout.stack_top 0 - 32;
    }
  in
  (* precede the PMC access with a distinctive access: it becomes a flag *)
  ignore (policy.Exec.decide 0 (sink_of_access (acc ~pc:7 ~addr:0x500 Trace.Read)));
  ignore (policy.Exec.decide 0 (sink_of_access (acc ~pc:10 ~addr:0x100 Trace.Write)));
  checki "flag recorded" 1 (Hashtbl.length st.Policies.flags);
  checkb "flag is the preceding access" true
    (Hashtbl.mem st.Policies.flags
       (Policies.signature (acc ~pc:7 ~addr:0x500 Trace.Read)))

let test_explore_trial_count () =
  let e = Lazy.force env in
  let res =
    Explore.run e ~ident:None ~writer:sock_prog ~reader:sock_prog ~hint:None
      ~kind:(Explore.Naive 4) ~trials:5 ~seed:1 ~stop_on_bug:false ()
  in
  checki "all trials run" 5 (List.length res.Explore.trials);
  let res2 =
    Explore.run e ~ident:None ~writer:sock_prog ~reader:sock_prog ~hint:None
      ~kind:(Explore.Naive 2) ~trials:50 ~seed:1 ~stop_on_bug:true ()
  in
  (* #13 fires quickly under naive preemption; stop_on_bug halts there *)
  checkb "stops at first bug" true
    (match res2.Explore.first_bug with
    | Some n -> List.length res2.Explore.trials = n
    | None -> List.length res2.Explore.trials = 50)

let test_ski_policy_instruction_triggered () =
  (* SKI yields at the PMC's instructions regardless of the memory
     target, and nowhere else (section 5.4) *)
  let pmc =
    Core.Pmc.make
      ~write:{ Core.Pmc.ins = 10; addr = 0x100; size = 8; value = 1 }
      ~read:{ Core.Pmc.ins = 20; addr = 0x100; size = 8; value = 0 }
      ~df_leader:false
  in
  let rng = Random.State.make [| 3 |] in
  let policy = Policies.ski rng (Some pmc) in
  let acc ~pc ~addr =
    {
      Trace.thread = 0;
      pc;
      addr;
      size = 8;
      kind = Trace.Write;
      value = 1;
      atomic = false;
      sp = Vmm.Layout.stack_top 0 - 32;
    }
  in
  let wants = ref false in
  for _ = 1 to 50 do
    if policy.Exec.decide 0 (sink_of_access (acc ~pc:10 ~addr:0x999)) then
      wants := true
  done;
  checkb "ski yields regardless of target" true !wants;
  let wants = ref false in
  for _ = 1 to 50 do
    if policy.Exec.decide 0 (sink_of_access (acc ~pc:11 ~addr:0x100)) then
      wants := true
  done;
  checkb "ski ignores other instructions" false !wants

let tests =
  [
    Alcotest.test_case "concurrent completion" `Quick test_conc_completes_both;
    Alcotest.test_case "interleaving correctness" `Quick test_conc_interleaves;
    Alcotest.test_case "spinlock contention" `Quick test_spinlock_contention_progresses;
    Alcotest.test_case "observer filtering+attribution" `Quick
      test_observer_sees_shared_only;
    Alcotest.test_case "replay determinism" `Quick test_replay_determinism;
    Alcotest.test_case "snowboard switch points" `Quick
      test_snowboard_policy_switch_points;
    Alcotest.test_case "snowboard flags" `Quick test_snowboard_flags_learned;
    Alcotest.test_case "explore trials" `Quick test_explore_trial_count;
    Alcotest.test_case "ski instruction triggering" `Quick
      test_ski_policy_instruction_triggered;
  ]

let () = Alcotest.run "sched" [ ("exec+policies", tests) ]
