(* Sequential semantic tests of the guest kernel: boot, the syscall
   surface, fd lifecycle, and each subsystem's sequential behaviour
   (which must be clean - console-silent and panic-free - because the
   fuzzer only keeps clean sequential tests as corpus entries). *)

module Abi = Kernel.Abi
module P = Fuzzer.Prog
module Exec = Sched.Exec

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let c nr args = { P.nr; args }
let k v = P.Const v

let env = lazy (Exec.make_env Kernel.Config.all_buggy)

let run prog = Exec.run_seq (Lazy.force env) ~tid:0 prog

let retvals prog = (run prog).Exec.sq_retvals

let clean name prog =
  let r = run prog in
  checkb (name ^ " no panic") false r.Exec.sq_panicked;
  Alcotest.(check (list string)) (name ^ " console silent") [] r.Exec.sq_console

let test_boot () =
  let e = Lazy.force env in
  checkb "boot completes" true (Array.length e.Exec.kern.Kernel.image.Vmm.Asm.code > 500)

let test_socket_fds () =
  let rv =
    retvals
      [
        c Abi.sys_socket [ k Abi.af_inet; k 0 ];
        c Abi.sys_socket [ k Abi.af_inet6; k 0 ];
        c Abi.sys_close [ P.Res 0 ];
        c Abi.sys_socket [ k Abi.af_packet; k 0 ];
        c Abi.sys_close [ P.Res 99 ];
      ]
  in
  checki "first fd" 0 rv.(0);
  checki "second fd" 1 rv.(1);
  checki "close ok" 0 rv.(2);
  checki "fd slot reused" 0 rv.(3);
  checki "bad resource index becomes EBADF" Abi.ebadf rv.(4)

let test_bad_fd () =
  let rv =
    retvals
      [
        c Abi.sys_sendmsg [ k 7; k 10 ];
        c Abi.sys_close [ k 7 ];
        c Abi.sys_read [ k (-3); k 10 ];
      ]
  in
  checki "sendmsg EBADF" Abi.ebadf rv.(0);
  checki "close EBADF" Abi.ebadf rv.(1);
  checki "read EBADF" Abi.ebadf rv.(2)

let test_bad_syscall_nr () =
  let rv = retvals [ c 99 [] ] in
  checki "bad nr EINVAL" Abi.einval rv.(0)

let test_msgget_semantics () =
  let rv =
    retvals
      [
        c Abi.sys_msgget [ k 3 ];
        c Abi.sys_msgget [ k 3 ];
        c Abi.sys_msgget [ k 4 ];
        c Abi.sys_msgctl [ P.Res 0; k Abi.ipc_stat ];
        c Abi.sys_msgctl [ P.Res 0; k Abi.ipc_rmid ];
        c Abi.sys_msgget [ k 3 ];
        c Abi.sys_msgctl [ k 9999; k Abi.ipc_rmid ];
      ]
  in
  checki "fresh id" 100 rv.(0);
  checki "same key same id" 100 rv.(1);
  checki "new key new id" 101 rv.(2);
  checki "stat finds key" 3 rv.(3);
  checki "rmid ok" 0 rv.(4);
  checki "recreated with fresh id" 102 rv.(5);
  checki "rmid of unknown id" Abi.enoent rv.(6)

let test_msg_chain () =
  (* keys 1 and 9 hash to the same bucket (8 buckets): chain handling *)
  let rv =
    retvals
      [
        c Abi.sys_msgget [ k 1 ];
        c Abi.sys_msgget [ k 9 ];
        c Abi.sys_msgget [ k 1 ];
        c Abi.sys_msgget [ k 9 ];
        c Abi.sys_msgctl [ P.Res 0; k Abi.ipc_rmid ];
        c Abi.sys_msgget [ k 9 ];
      ]
  in
  checkb "chained keys distinct ids" true (rv.(0) <> rv.(1));
  checki "chain lookup 1" rv.(0) rv.(2);
  checki "chain lookup 9" rv.(1) rv.(3);
  checki "remove head-or-interior ok" 0 rv.(4);
  checki "other key survives" rv.(1) rv.(5)

let test_l2tp_semantics () =
  clean "l2tp"
    [
      c Abi.sys_socket [ k Abi.px_proto_ol2tp; k 0 ];
      c Abi.sys_connect [ P.Res 0; k 5; k 0 ];
      c Abi.sys_sendmsg [ P.Res 0; k 64 ];
    ];
  let rv =
    retvals
      [
        c Abi.sys_socket [ k Abi.px_proto_ol2tp; k 0 ];
        c Abi.sys_sendmsg [ P.Res 0; k 64 ];
      ]
  in
  checki "sendmsg before connect" Abi.einval rv.(1)

let test_l2tp_tunnel_reuse () =
  clean "two connects same tunnel"
    [
      c Abi.sys_socket [ k Abi.px_proto_ol2tp; k 0 ];
      c Abi.sys_connect [ P.Res 0; k 5; k 0 ];
      c Abi.sys_socket [ k Abi.px_proto_ol2tp; k 0 ];
      c Abi.sys_connect [ P.Res 2; k 5; k 0 ];
      c Abi.sys_sendmsg [ P.Res 2; k 8 ];
    ]

let test_mac_roundtrip () =
  let e = Lazy.force env in
  let prog =
    [
      c Abi.sys_socket [ k Abi.af_inet; k 0 ];
      c Abi.sys_ioctl
        [ P.Res 0; k Abi.siocsifhwaddr; P.Buf "\x01\x02\x03\x04\x05\x06" ];
      c Abi.sys_ioctl
        [ P.Res 0; k Abi.siocgifhwaddr; P.Buf "\x00\x00\x00\x00\x00\x00" ];
    ]
  in
  let r = Exec.run_seq e ~tid:0 prog in
  checkb "no panic" false r.Exec.sq_panicked;
  (* the get wrote the MAC into the user buffer of call 2, argument 2 *)
  let base = P.buf_addr 2 + 32 in
  let got = List.init 6 (fun i -> Vmm.Vm.peek e.Exec.vm 0 (base + i) 1) in
  Alcotest.(check (list int)) "mac read back" [ 1; 2; 3; 4; 5; 6 ] got

let test_ext4_clean_reads () =
  clean "read after swap is consistent"
    [
      c Abi.sys_open [ k 2; k 0 ];
      c Abi.sys_read [ P.Res 0; k 64 ];
      c Abi.sys_ioctl [ P.Res 0; k Abi.ext4_ioc_swap_boot; k 2 ];
      c Abi.sys_read [ P.Res 0; k 64 ];
      c Abi.sys_write [ P.Res 0; k 64 ];
      c Abi.sys_read [ P.Res 0; k 64 ];
      c Abi.sys_rename [ k 2; k 3 ];
      c Abi.sys_read [ P.Res 0; k 64 ];
      c Abi.sys_mount [];
    ]

let test_ext4_truncate_then_read () =
  (* a freed block is skipped, not an IO error, sequentially *)
  clean "truncate then read"
    [
      c Abi.sys_open [ k 5; k 0 ];
      c Abi.sys_ftruncate [ P.Res 0 ];
      c Abi.sys_read [ P.Res 0; k 64 ];
      c Abi.sys_write [ P.Res 0; k 64 ];
      c Abi.sys_read [ P.Res 0; k 64 ];
    ]

let test_configfs_lifecycle () =
  let rv =
    retvals
      [
        c Abi.sys_open [ k Abi.path_configfs; k 0 ] (* lookup boot item *);
        c Abi.sys_open [ k Abi.path_configfs; k Abi.o_remove ];
        c Abi.sys_open [ k Abi.path_configfs; k 0 ] (* now ENOENT *);
        c Abi.sys_open [ k Abi.path_configfs; k Abi.o_create ];
        c Abi.sys_open [ k Abi.path_configfs; k 0 ];
      ]
  in
  checkb "boot item found" true (rv.(0) >= 0);
  checki "remove ok" 0 rv.(1);
  checki "lookup after remove" Abi.enoent rv.(2);
  checkb "recreate ok" true (rv.(3) >= 0);
  checkb "lookup after create" true (rv.(4) >= 0)

let test_tty_and_sound_and_cc () =
  clean "tty open + autoconfig"
    [
      c Abi.sys_open [ k Abi.path_tty; k 0 ];
      c Abi.sys_read [ P.Res 0; k 8 ];
      c Abi.sys_ioctl [ P.Res 0; k Abi.tiocserconfig; k 0 ];
    ];
  clean "sound elem add"
    [
      c Abi.sys_open [ k 0; k 0 ];
      c Abi.sys_ioctl [ P.Res 0; k Abi.sndrv_ctl_elem_add; k 1 ];
      c Abi.sys_ioctl [ P.Res 0; k Abi.sndrv_ctl_elem_add; k 2 ];
    ];
  clean "congestion control"
    [
      c Abi.sys_socket [ k Abi.af_inet; k 0 ];
      c Abi.sys_ioctl [ P.Res 0; k Abi.tcp_set_default_cc; k 2 ];
      c Abi.sys_setsockopt [ P.Res 0; k Abi.so_tcp_congestion; k 0 ];
      c Abi.sys_setsockopt [ P.Res 0; k Abi.so_tcp_congestion; k 3 ];
    ]

let test_fanout_lifecycle () =
  let rv =
    retvals
      [
        c Abi.sys_socket [ k Abi.af_packet; k 0 ];
        c Abi.sys_setsockopt [ P.Res 0; k Abi.so_packet_fanout; k 0 ];
        c Abi.sys_sendmsg [ P.Res 0; k 13 ];
        c Abi.sys_close [ P.Res 0 ];
        c Abi.sys_socket [ k Abi.af_packet; k 0 ];
        c Abi.sys_sendmsg [ P.Res 4; k 13 ] (* group empty again *);
      ]
  in
  checki "fanout add ok" 0 rv.(1);
  checkb "demux returns member" true (rv.(2) <> 0);
  checki "close unlinks" 0 rv.(3);
  checki "demux on empty group" 0 rv.(5)

let test_fanout_nonmember_setsockopt () =
  let rv =
    retvals
      [
        c Abi.sys_socket [ k Abi.af_inet; k 0 ];
        c Abi.sys_setsockopt [ P.Res 0; k Abi.so_packet_fanout; k 0 ];
      ]
  in
  checki "fanout on non-packet socket" Abi.ebadf rv.(1)

let test_mtu_and_blockdev () =
  let rv =
    retvals
      [
        c Abi.sys_socket [ k Abi.af_inet6; k 0 ];
        c Abi.sys_sendmsg [ P.Res 0; k 512 ];
        c Abi.sys_socket [ k Abi.af_inet; k 0 ];
        c Abi.sys_ioctl [ P.Res 2; k Abi.siocsifmtu; k 100 ];
        c Abi.sys_sendmsg [ P.Res 0; k 512 ] (* now over the 100-byte mtu *);
      ]
  in
  checki "fits default mtu" 0 rv.(1);
  checki "mtu set" 0 rv.(3);
  checki "over mtu EINVAL" Abi.einval rv.(4);
  clean "blockdev"
    [
      c Abi.sys_open [ k Abi.path_blockdev; k 0 ];
      c Abi.sys_ioctl [ P.Res 0; k Abi.blkraset; k 256 ];
      c Abi.sys_fadvise [ P.Res 0; k 1 ];
      c Abi.sys_ioctl [ P.Res 0; k Abi.blkbszset; k 4096 ];
      c Abi.sys_read [ P.Res 0; k 64 ];
    ]

let test_all_sequential_scenarios_clean () =
  (* every Table 2 scenario must be console-clean when run sequentially:
     the issues are concurrency bugs, not sequential ones *)
  List.iter
    (fun (s : Harness.Scenarios.scenario) ->
      let rw = run s.Harness.Scenarios.writer in
      let rr = run s.Harness.Scenarios.reader in
      checkb
        (Printf.sprintf "#%d writer clean" s.Harness.Scenarios.issue)
        false rw.Exec.sq_panicked;
      checkb
        (Printf.sprintf "#%d reader clean" s.Harness.Scenarios.issue)
        false rr.Exec.sq_panicked;
      Alcotest.(check (list string))
        (Printf.sprintf "#%d writer console" s.Harness.Scenarios.issue)
        [] rw.Exec.sq_console)
    Harness.Scenarios.all

let test_version_configs () =
  (* both version presets boot and execute a smoke program *)
  List.iter
    (fun cfg ->
      let e = Exec.make_env cfg in
      let r =
        Exec.run_seq e ~tid:0
          [ c Abi.sys_socket [ k Abi.af_inet; k 0 ]; c Abi.sys_msgget [ k 1 ] ]
      in
      checkb "version boots and runs" false r.Exec.sq_panicked)
    [ Kernel.Config.v5_3_10; Kernel.Config.v5_12_rc3; Kernel.Config.all_fixed ]

let test_pipe_semantics () =
  let rv =
    retvals
      [
        c 17 [] (* pipe *);
        c Abi.sys_write [ P.Res 0; k 5 ] (* write 5 bytes of value 5 *);
        c Abi.sys_read [ P.Res 0; k 3 ] (* consume 3, last byte is 5 *);
        c Abi.sys_read [ P.Res 0; k 10 ] (* consume the remaining 2 *);
        c Abi.sys_read [ P.Res 0; k 1 ] (* empty: -1 *);
        c Abi.sys_write [ P.Res 0; k 100 ] (* capacity-limited *);
        c Abi.sys_close [ P.Res 0 ];
      ]
  in
  checkb "pipe fd" true (rv.(0) >= 0);
  checki "write count" 5 rv.(1);
  checki "read returns byte" 5 rv.(2);
  checki "drain returns byte" 5 rv.(3);
  checki "empty read" (-1) rv.(4);
  checki "bounded by capacity" 16 rv.(5);
  checki "close ok" 0 rv.(6)

let test_pipe_no_false_races () =
  (* two threads hammering the same pipe pattern: the correctly locked
     ring buffer must produce no race reports under dense preemption *)
  let e = Lazy.force env in
  let prog =
    [
      c 17 [];
      c Abi.sys_write [ P.Res 0; k 7 ];
      c Abi.sys_read [ P.Res 0; k 4 ];
      c Abi.sys_write [ P.Res 0; k 9 ];
      c Abi.sys_read [ P.Res 0; k 16 ];
    ]
  in
  for seed = 1 to 10 do
    let rng = Random.State.make [| seed |] in
    let { Sched.Explore.run = res; races; _ } =
      Sched.Explore.check e ~progs:[| prog; prog |]
        ~policy:(Sched.Policies.naive rng ~period:2)
        ()
    in
    checkb "completes" false res.Sched.Exec.cc_deadlocked;
    (* only the known-benign slab-stats race may appear *)
    List.iter
      (fun r ->
        checkb "no pipe race" true
          (Detectors.Oracle.issue_of_race r = Some 13))
      races
  done

let test_determinism () =
  let prog =
    [
      c Abi.sys_socket [ k Abi.af_inet; k 0 ];
      c Abi.sys_msgget [ k 2 ];
      c Abi.sys_open [ k 1; k 0 ];
      c Abi.sys_read [ P.Res 2; k 64 ];
    ]
  in
  let run prog = Exec.run_seq ~accesses:true (Lazy.force env) ~tid:0 prog in
  let r1 = run prog and r2 = run prog in
  checkb "identical access traces from snapshot" true
    (r1.Exec.sq_accesses = r2.Exec.sq_accesses);
  checkb "identical retvals" true (r1.Exec.sq_retvals = r2.Exec.sq_retvals)

let tests =
  [
    Alcotest.test_case "boot" `Quick test_boot;
    Alcotest.test_case "socket fd lifecycle" `Quick test_socket_fds;
    Alcotest.test_case "bad fds" `Quick test_bad_fd;
    Alcotest.test_case "bad syscall nr" `Quick test_bad_syscall_nr;
    Alcotest.test_case "msgget/msgctl" `Quick test_msgget_semantics;
    Alcotest.test_case "msg bucket chains" `Quick test_msg_chain;
    Alcotest.test_case "l2tp" `Quick test_l2tp_semantics;
    Alcotest.test_case "l2tp tunnel reuse" `Quick test_l2tp_tunnel_reuse;
    Alcotest.test_case "mac roundtrip" `Quick test_mac_roundtrip;
    Alcotest.test_case "ext4 reads clean" `Quick test_ext4_clean_reads;
    Alcotest.test_case "ext4 truncate/read" `Quick test_ext4_truncate_then_read;
    Alcotest.test_case "configfs lifecycle" `Quick test_configfs_lifecycle;
    Alcotest.test_case "tty/sound/cc" `Quick test_tty_and_sound_and_cc;
    Alcotest.test_case "fanout lifecycle" `Quick test_fanout_lifecycle;
    Alcotest.test_case "fanout wrong socket" `Quick test_fanout_nonmember_setsockopt;
    Alcotest.test_case "mtu and blockdev" `Quick test_mtu_and_blockdev;
    Alcotest.test_case "pipe semantics" `Quick test_pipe_semantics;
    Alcotest.test_case "pipe has no false races" `Quick test_pipe_no_false_races;
    Alcotest.test_case "scenarios sequentially clean" `Quick
      test_all_sequential_scenarios_clean;
    Alcotest.test_case "version configs" `Quick test_version_configs;
    Alcotest.test_case "determinism" `Quick test_determinism;
  ]

let () = Alcotest.run "kernel" [ ("syscalls", tests) ]
