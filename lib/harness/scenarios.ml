(* Hand-written reproduction scenarios for the 17 issues of Table 2: for
   each issue, a writer program and a reader program that exhibit the
   relevant PMC.  Used by the integration tests, the case-study examples
   (Figures 1, 3 and 4) and the section 5.4 interleavings-to-expose
   benchmark.  The fuzzing pipeline finds the same issues from random
   corpora; these exist so that per-issue behaviour is testable in
   isolation and deterministically.  [reproduce] is the one hunt over a
   scenario, and [hunt_relay] the one hunt over section 6's relay. *)

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

let progs s = [| s.writer; s.reader |]

(* Profile the programs, program i as test i, and identify their PMCs;
   the hints are the PMCs from test 0's write to test 1's read, in
   identification order. *)
let identify env progs =
  let profile i prog =
    Core.Profile.of_shared ~test_id:i
      (Sched.Exec.run_seq ~accesses:true env ~tid:0 prog).Sched.Exec.sq_accesses
  in
  let ident = Core.Identify.run (Array.to_list (Array.mapi profile progs)) in
  let hints = ref [] in
  Core.Identify.iter
    (fun pmc info ->
      if List.mem (0, 1) info.Core.Identify.pairs then hints := pmc :: !hints)
    ident;
  (ident, List.rev !hints)

type attempt = {
  ident : Core.Identify.t;
  hints_tried : int;
  trials_to_expose : int option;
      (* total trials across hints until the issue fired *)
  other_issues : int list;
  exposed : Sched.Explore.trial option;
}

(* Drive the scenario with a scheduler, one exploration per hinted PMC
   (hint i seeded with SEED + 131 i), until the target issue fires or
   hints are exhausted. *)
let reproduce env (s : scenario) ~kind ?(trials = 64) ~seed () =
  let ident, hints = identify env (progs s) in
  (* (hints tried, (trials until exposed, exposing trial), issues seen) *)
  let rec go tried total others = function
    | [] -> (tried, None, others)
    | hint :: rest -> (
        let tried = tried + 1 in
        let res =
          Sched.Explore.run env ~ident:(Some ident) ~writer:s.writer
            ~reader:s.reader ~hint:(Some hint) ~kind ~trials
            ~seed:(seed + (131 * tried))
            ~stop_on_bug:true ~target_issue:(Some s.issue) ()
        in
        let others = Sched.Explore.issues_found res @ others in
        match res.Sched.Explore.first_bug with
        | Some n ->
            let trial = List.nth res.Sched.Explore.trials (n - 1) in
            (tried, Some (total + n, trial), others)
        | None ->
            go tried (total + List.length res.Sched.Explore.trials) others rest)
  in
  let tried, exposed, others = go 0 0 [] hints in
  {
    ident;
    hints_tried = tried;
    trials_to_expose = Option.map fst exposed;
    other_issues =
      List.sort_uniq compare (List.filter (fun i -> i <> s.issue) others);
    exposed = Option.map snd exposed;
  }

(* Section 6's relay: a producer publishes a message before initialising
   its payload, a forwarder copies the pointer onward and a consumer
   dereferences it, an order violation no two of them can trigger. *)
let relay = Array.map (fun op -> [ c Abi.sys_relay [ k op ] ]) [| 1; 2; 3 |]

type relay_hunt = {
  pmcs : int;
  chains : int;
  crash : (Core.Chain.t * Sched.Explore.result) option;
}

(* Identify the relay's PMC chains and explore up to 12 exemplars, drawn
   with SEED and uncommon first, chain i seeded with SEED + 37 i, until
   one crashes the kernel. *)
let hunt_relay env ~seed =
  let ident, _ = identify env relay in
  let chains = Core.Chain.find ident in
  let rec go i = function
    | chain :: rest when i < 12 ->
        let res =
          Sched.Explore.run_chain env ~progs:relay ~chain:(Some chain)
            ~seed:(seed + (37 * i)) ()
        in
        if Option.is_some res.Sched.Explore.first_bug then Some (chain, res)
        else go (i + 1) rest
    | _ -> None
  in
  {
    pmcs = Core.Identify.num_pmcs ident;
    chains = List.length chains;
    crash = go 0 (Core.Chain.select (Random.State.make [| seed |]) chains);
  }
