(* Hand-written reproduction scenarios for the 17 issues of Table 2: for
   each issue, a writer program and a reader program that exhibit the
   relevant PMC.  Used by the integration tests, the case-study examples
   (Figures 1, 3 and 4) and the section 5.4 interleavings-to-expose
   benchmark.  The fuzzing pipeline finds the same issues from random
   corpora; these exist so that per-issue behaviour is testable in
   isolation and deterministically. *)

module Abi = Kernel.Abi
module P = Fuzzer.Prog

let c nr args = { P.nr; args }
let k v = P.Const v

type scenario = { issue : int; writer : P.t; reader : P.t }

let all : scenario list =
  [
    { issue = 1;
      writer = [ c Abi.sys_msgget [ k 3 ]; c Abi.sys_msgctl [ P.Res 0; k Abi.ipc_rmid ] ];
      reader = [ c Abi.sys_msgget [ k 3 ] ] };
    { issue = 2;
      writer = [ c Abi.sys_open [ k 2; k 0 ];
                 c Abi.sys_ioctl [ P.Res 0; k Abi.ext4_ioc_swap_boot; k 2 ] ];
      reader = [ c Abi.sys_open [ k 2; k 0 ]; c Abi.sys_read [ P.Res 0; k 64 ] ] };
    { issue = 3;
      writer = [ c Abi.sys_open [ k 3; k 0 ]; c Abi.sys_write [ P.Res 0; k 64 ] ];
      reader = [ c Abi.sys_open [ k 3; k 0 ]; c Abi.sys_read [ P.Res 0; k 64 ] ] };
    { issue = 4;
      writer = [ c Abi.sys_open [ k 5; k 0 ]; c Abi.sys_ftruncate [ P.Res 0 ] ];
      reader = [ c Abi.sys_open [ k 5; k 0 ]; c Abi.sys_read [ P.Res 0; k 64 ] ] };
    { issue = 5;
      writer = [ c Abi.sys_open [ k Abi.path_blockdev; k 0 ];
                 c Abi.sys_ioctl [ P.Res 0; k Abi.blkraset; k 256 ] ];
      reader = [ c Abi.sys_open [ k Abi.path_blockdev; k 0 ];
                 c Abi.sys_fadvise [ P.Res 0; k 1 ] ] };
    { issue = 6;
      writer = [ c Abi.sys_open [ k Abi.path_blockdev; k 0 ];
                 c Abi.sys_ioctl [ P.Res 0; k Abi.blkbszset; k 4096 ] ];
      reader = [ c Abi.sys_open [ k Abi.path_blockdev; k 0 ];
                 c Abi.sys_read [ P.Res 0; k 64 ] ] };
    { issue = 7;
      writer = [ c Abi.sys_socket [ k Abi.af_inet; k 0 ];
                 c Abi.sys_ioctl [ P.Res 0; k Abi.siocsifmtu; k 100 ] ];
      reader = [ c Abi.sys_socket [ k Abi.af_inet6; k 0 ];
                 c Abi.sys_sendmsg [ P.Res 0; k 512 ] ] };
    { issue = 8;
      writer = [ c Abi.sys_socket [ k Abi.af_inet; k 0 ];
                 c Abi.sys_ioctl
                   [ P.Res 0; k Abi.siocethtool; P.Buf "\x11\x22\x33\x44\x55\x66" ] ];
      reader = [ c Abi.sys_socket [ k Abi.af_packet; k 0 ];
                 c Abi.sys_getsockname
                   [ P.Res 0; P.Buf "\x00\x00\x00\x00\x00\x00\x00\x00" ] ] };
    { issue = 9;
      writer = [ c Abi.sys_socket [ k Abi.af_inet; k 0 ];
                 c Abi.sys_ioctl
                   [ P.Res 0; k Abi.siocsifhwaddr; P.Buf "\x0a\x0b\x0c\x0d\x0e\x0f" ] ];
      reader = [ c Abi.sys_socket [ k Abi.af_inet; k 0 ];
                 c Abi.sys_ioctl
                   [ P.Res 0; k Abi.siocgifhwaddr; P.Buf "\x00\x00\x00\x00\x00\x00" ] ] };
    { issue = 10;
      writer = [ c Abi.sys_socket [ k Abi.af_inet; k 0 ];
                 c Abi.sys_ioctl [ P.Res 0; k Abi.siocdelrt; k 0 ] ];
      reader = [ c Abi.sys_socket [ k Abi.af_inet6; k 0 ];
                 c Abi.sys_connect [ P.Res 0; k 1; k 0 ] ] };
    { issue = 11;
      writer = [ c Abi.sys_open [ k Abi.path_configfs; k Abi.o_remove ] ];
      reader = [ c Abi.sys_open [ k Abi.path_configfs; k 0 ] ] };
    { issue = 12;
      writer = [ c Abi.sys_socket [ k Abi.px_proto_ol2tp; k 0 ];
                 c Abi.sys_connect [ P.Res 0; k 5; k 0 ] ];
      reader = [ c Abi.sys_socket [ k Abi.px_proto_ol2tp; k 0 ];
                 c Abi.sys_connect [ P.Res 0; k 5; k 0 ];
                 c Abi.sys_sendmsg [ P.Res 0; k 64 ] ] };
    { issue = 13;
      writer = [ c Abi.sys_socket [ k Abi.af_inet; k 0 ] ];
      reader = [ c Abi.sys_socket [ k Abi.af_inet; k 0 ] ] };
    { issue = 14;
      writer = [ c Abi.sys_open [ k Abi.path_tty; k 0 ];
                 c Abi.sys_ioctl [ P.Res 0; k Abi.tiocserconfig; k 0 ] ];
      reader = [ c Abi.sys_open [ k Abi.path_tty; k 0 ] ] };
    { issue = 15;
      writer = [ c Abi.sys_open [ k 0; k 0 ];
                 c Abi.sys_ioctl [ P.Res 0; k Abi.sndrv_ctl_elem_add; k 1 ] ];
      reader = [ c Abi.sys_open [ k 0; k 0 ];
                 c Abi.sys_ioctl [ P.Res 0; k Abi.sndrv_ctl_elem_add; k 2 ] ] };
    { issue = 16;
      writer = [ c Abi.sys_socket [ k Abi.af_inet; k 0 ];
                 c Abi.sys_ioctl [ P.Res 0; k Abi.tcp_set_default_cc; k 2 ] ];
      reader = [ c Abi.sys_socket [ k Abi.af_inet; k 0 ];
                 c Abi.sys_setsockopt [ P.Res 0; k Abi.so_tcp_congestion; k 0 ] ] };
    { issue = 17;
      writer = [ c Abi.sys_socket [ k Abi.af_packet; k 0 ];
                 c Abi.sys_setsockopt [ P.Res 0; k Abi.so_packet_fanout; k 0 ];
                 c Abi.sys_close [ P.Res 0 ] ];
      reader = [ c Abi.sys_socket [ k Abi.af_packet; k 0 ];
                 c Abi.sys_sendmsg [ P.Res 0; k 513 ] ] };
  ]

let find issue = List.find_opt (fun s -> s.issue = issue) all

(* Profile the scenario's two programs and identify their mutual PMCs. *)
let identify env (s : scenario) =
  let rw = Sched.Exec.run_seq ~accesses:true env ~tid:0 s.writer in
  let rr = Sched.Exec.run_seq ~accesses:true env ~tid:0 s.reader in
  let pw = Core.Profile.of_shared ~test_id:0 rw.Sched.Exec.sq_accesses in
  let pr = Core.Profile.of_shared ~test_id:1 rr.Sched.Exec.sq_accesses in
  let ident = Core.Identify.run [ pw; pr ] in
  let hints = ref [] in
  Core.Identify.iter
    (fun pmc info ->
      if List.mem (0, 1) info.Core.Identify.pairs then hints := pmc :: !hints)
    ident;
  (ident, List.rev !hints)

type attempt = {
  found : bool;
  hints_tried : int;
  trials_to_expose : int option;
      (* total trials across hints until the issue fired *)
  other_issues : int list;
}

(* Drive the scenario with a scheduler until the target issue fires or
   hints are exhausted. *)
let reproduce env (s : scenario) ~kind ?(trials = 64) ~seed () =
  let ident, hints = identify env s in
  let found = ref false in
  let tried = ref 0 in
  let total_trials = ref 0 in
  let others = ref [] in
  (try
     List.iter
       (fun hint ->
         incr tried;
         let res =
           Sched.Explore.run env ~ident:(Some ident) ~writer:s.writer
             ~reader:s.reader ~hint:(Some hint) ~kind ~trials
             ~seed:(seed + (131 * !tried))
             ~stop_on_bug:true ~target_issue:(Some s.issue) ()
         in
         let issues = Sched.Explore.issues_found res in
         others := issues @ !others;
         (match res.Sched.Explore.first_bug with
         | Some n when List.mem s.issue issues ->
             total_trials := !total_trials + n;
             found := true;
             raise Exit
         | _ -> total_trials := !total_trials + List.length res.Sched.Explore.trials);
         ())
       hints
   with Exit -> ());
  {
    found = !found;
    hints_tried = !tried;
    trials_to_expose = (if !found then Some !total_trials else None);
    other_issues = List.sort_uniq compare (List.filter (fun i -> i <> s.issue) !others);
  }
