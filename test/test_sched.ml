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
  }

let never_switch : Exec.policy =
  {
    Exec.first = 0;
    decide = (fun _ _ -> false);
    event_only = true;
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

(* The watch table follows the PMCs under test and the learned flags,
   and an access at a pc it cannot index still reaches the PMC scan. *)
let test_snowboard_watch_table () =
  let side ins addr = { Core.Pmc.ins; addr; size = 8; value = 0 } in
  let pmc ~w ~r =
    Core.Pmc.make ~write:(side w 0x100) ~read:(side r 0x100) ~df_leader:false
  in
  let bits (st : Policies.snowboard_state) pc =
    if pc < Bytes.length st.Policies.watch then
      Char.code (Bytes.get st.Policies.watch pc)
    else 0
  in
  let st = Policies.snowboard_state (Some (pmc ~w:10 ~r:20)) in
  checki "sized to the largest watched pc" 21 (Bytes.length st.Policies.watch);
  checki "write pc" 1 (bits st 10);
  checki "read pc" 2 (bits st 20);
  Policies.add_pmc st (pmc ~w:300 ~r:10);
  checki "grown on demand" 301 (Bytes.length st.Policies.watch);
  checki "both kinds at one pc" 3 (bits st 10);
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
  let policy = Policies.snowboard (Random.State.make [| 3 |]) st in
  ignore (policy.Exec.decide 0 (sink_of_access (acc ~pc:7 ~addr:0x500 Trace.Read)));
  ignore (policy.Exec.decide 0 (sink_of_access (acc ~pc:300 ~addr:0x100 Trace.Write)));
  checki "a learned flag watches its pc" 4 (bits st 7);
  Policies.add_pmc st (pmc ~w:(-5) ~r:20);
  checki "an unindexable pc takes no room" 301 (Bytes.length st.Policies.watch);
  let wants = ref false in
  for _ = 1 to 50 do
    if policy.Exec.decide 0 (sink_of_access (acc ~pc:(-5) ~addr:0x100 Trace.Write))
    then wants := true
  done;
  checkb "the PMC at that pc still switches" true !wants

(* ---------------- the event_only contract ---------------- *)

(* What a concurrent block holds when it stops at no shared access:
   stack accesses of the running thread, some at the hinted PMC's pcs,
   plus call, return, lock and RCU fields and frame-log entries. *)
let gen_private_sink =
  QCheck.Gen.(
    let access =
      map3
        (fun pc off write -> (pc, off, write))
        (oneofl [ 5; 7; 10; 20; 30 ])
        (int_range 0 63) bool
    in
    map3
      (fun accs (call, ret, lock) (rcu, frames) -> (accs, call, ret, lock, rcu, frames))
      (list_size (int_range 0 12) access)
      (triple (oneofl [ -1; 10; 40 ]) bool (oneofl [ -1; 0x300 ]))
      (pair (oneofl [ `No; `Lock; `Unlock ]) (list_size (int_range 0 4) bool)))

let private_sink (accs, call, ret, lock, rcu, frames) =
  let s = Vmm.Vm.make_sink () in
  let sp = Vmm.Layout.stack_top 0 - 512 in
  List.iter
    (fun (pc, off, write) ->
      Vmm.Vm.sink_push_access s
        {
          Trace.thread = 0;
          pc;
          addr = sp + (8 * off);
          size = 8;
          kind = (if write then Trace.Write else Trace.Read);
          value = off;
          atomic = false;
          sp;
        })
    accs;
  s.Vmm.Vm.sk_call <- call;
  s.Vmm.Vm.sk_return <- ret;
  s.Vmm.Vm.sk_lock <- lock;
  s.Vmm.Vm.sk_lock_acq <- lock >= 0;
  s.Vmm.Vm.sk_rcu <- rcu;
  List.iteri
    (fun e push ->
      s.Vmm.Vm.sk_fr_push.(e) <- push;
      s.Vmm.Vm.sk_fr_pc.(e) <- 40 + e;
      s.Vmm.Vm.sk_fr_steps.(e) <- e + 1)
    frames;
  s.Vmm.Vm.sk_n_frames <- List.length frames;
  s.Vmm.Vm.sk_steps <- List.length accs + List.length frames + 1;
  s

let contract_hint =
  Core.Pmc.make
    ~write:{ Core.Pmc.ins = 10; addr = 0x2100; size = 8; value = 1 }
    ~read:{ Core.Pmc.ins = 20; addr = 0x2100; size = 8; value = 0 }
    ~df_leader:false

let flags_of (st : Policies.snowboard_state) =
  List.sort compare
    (Hashtbl.fold (fun k () acc -> k :: acc) st.Policies.flags [])

(* Every event-only policy in the library, on a sink holding no shared
   access, returns false, draws nothing (its RNG stays in step with a
   copy taken before the call) and changes none of its state. *)
let prop_event_only_contract =
  QCheck.Test.make ~name:"event_only contract" ~count:200
    (QCheck.make gen_private_sink)
    (fun spec ->
      let sink = private_sink spec in
      let same_draws rng before =
        List.for_all
          (fun _ -> Random.State.bits rng = Random.State.bits before)
          [ 1; 2; 3 ]
      in
      let check name (policy : Exec.policy) rng extra =
        let before = Random.State.copy rng in
        let snapshot = extra () in
        if not policy.Exec.event_only then
          QCheck.Test.fail_reportf "%s: not event-only" name;
        if policy.Exec.decide 0 sink then
          QCheck.Test.fail_reportf "%s: switched" name;
        if not (same_draws rng before) then
          QCheck.Test.fail_reportf "%s: drew from its RNG" name;
        if extra () <> snapshot then
          QCheck.Test.fail_reportf "%s: changed its state" name
      in
      let snowboard_check name st =
        let rng = Random.State.make [| 11 |] in
        let policy = Policies.snowboard rng st in
        check name policy rng (fun () ->
            ( flags_of st,
              Array.to_list st.Policies.last_access,
              st.Policies.windows_seen ))
      in
      snowboard_check "snowboard, unhinted" (Policies.snowboard_state None);
      (* hinted, with a flag learned from a real PMC access and a second
         PMC under test *)
      let st = Policies.snowboard_state (Some contract_hint) in
      let learn = Policies.snowboard (Random.State.make [| 5 |]) st in
      let shared pc kind =
        {
          Trace.thread = 0;
          pc;
          addr = 0x2100;
          size = 8;
          kind;
          value = 1;
          atomic = false;
          sp = Vmm.Layout.stack_top 0 - 32;
        }
      in
      ignore (learn.Exec.decide 0 (sink_of_access (shared 7 Trace.Read)));
      ignore (learn.Exec.decide 0 (sink_of_access (shared 10 Trace.Write)));
      Policies.add_pmc st
        (Core.Pmc.make
           ~write:{ Core.Pmc.ins = 30; addr = 0x2200; size = 8; value = 1 }
           ~read:{ Core.Pmc.ins = 5; addr = 0x2200; size = 8; value = 0 }
           ~df_leader:false);
      if flags_of st = [] then QCheck.Test.fail_report "no flag was learned";
      snowboard_check "snowboard, hinted" st;
      let rng = Random.State.make [| 12 |] in
      check "naive" (Policies.naive rng ~period:1) rng (fun () -> ());
      let rng = Random.State.make [| 13 |] in
      check "ski" (Policies.ski rng (Some contract_hint)) rng (fun () -> ());
      let count = ref 0 in
      check "vector_policy"
        (Sched.Enumerate.vector_policy ~first:0 ~positions:[ 1; 2; 3 ] ~count)
        (Random.State.make [| 14 |])
        (fun () -> !count);
      true)

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
    Alcotest.test_case "snowboard watch table" `Quick test_snowboard_watch_table;
    Alcotest.test_case "explore trials" `Quick test_explore_trial_count;
    Alcotest.test_case "ski instruction triggering" `Quick
      test_ski_policy_instruction_triggered;
  ]

let () =
  Alcotest.run "sched"
    [
      ( "exec+policies",
        tests @ [ QCheck_alcotest.to_alcotest prop_event_only_contract ] );
    ]
