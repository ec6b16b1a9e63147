(* Random syscall-program generation and mutation: the stand-in for
   Syzkaller (paper section 4.1.1).  Templates mirror syzlang descriptions:
   each names one kernel entry point with typed argument domains, and
   resources (file descriptors, message-queue ids) flow from producing
   calls to consuming ones. *)

module Abi = Kernel.Abi

let src = Logs.Src.create "snowboard.fuzzer" ~doc:"Sequential-test fuzzing"

module Log = (val Logs.src_log src : Logs.LOG)

let m_generated = Obs.Metrics.counter "snowboard.fuzzer/programs_generated"
let m_mutated = Obs.Metrics.counter "snowboard.fuzzer/programs_mutated"

type resource = Rfd | Rmsq

type argspec =
  | Choice of int list
  | Use of resource
  | Buffer of int  (* n random bytes *)

type template = {
  tname : string;
  nr : int;
  argspecs : argspec list;
  produces : resource option;
}

let t tname nr argspecs produces = { tname; nr; argspecs; produces }

let lens = [ 1; 8; 64; 512; 1501; 4096 ]

let templates =
  [
    t "socket" Abi.sys_socket
      [ Choice [ Abi.af_inet; Abi.af_inet6; Abi.af_packet; Abi.px_proto_ol2tp ];
        Choice [ 0; 1 ] ]
      (Some Rfd);
    t "open" Abi.sys_open
      [ Choice (List.init Abi.num_paths Fun.id); Choice [ 0; 1; 2; 3 ] ]
      (Some Rfd);
    t "connect" Abi.sys_connect
      [ Use Rfd; Choice [ 1; 2; 3; 4; 5 ]; Choice [ 0 ] ]
      None;
    t "sendmsg" Abi.sys_sendmsg [ Use Rfd; Choice lens ] None;
    t "getsockname" Abi.sys_getsockname [ Use Rfd; Buffer 8 ] None;
    t "setsockopt$TCP_CONGESTION" Abi.sys_setsockopt
      [ Use Rfd; Choice [ Abi.so_tcp_congestion ]; Choice [ 0; 1; 2; 3 ] ]
      None;
    t "setsockopt$PACKET_FANOUT" Abi.sys_setsockopt
      [ Use Rfd; Choice [ Abi.so_packet_fanout ]; Choice [ 0 ] ]
      None;
    t "close" Abi.sys_close [ Use Rfd ] None;
    t "read" Abi.sys_read [ Use Rfd; Choice lens ] None;
    t "write" Abi.sys_write [ Use Rfd; Choice lens ] None;
    t "ftruncate" Abi.sys_ftruncate [ Use Rfd ] None;
    t "fadvise" Abi.sys_fadvise [ Use Rfd; Choice [ 0; 1; 2 ] ] None;
    t "msgget" Abi.sys_msgget [ Choice [ 1; 2; 3; 4; 5; 6 ] ] (Some Rmsq);
    t "msgctl" Abi.sys_msgctl
      [ Use Rmsq; Choice [ Abi.ipc_rmid; Abi.ipc_stat ] ]
      None;
    t "rename" Abi.sys_rename
      [ Choice [ 0; 1; 2; 3; 4; 5; 6; 7 ]; Choice [ 0; 1; 2; 3; 4; 5; 6; 7 ] ]
      None;
    t "mount" Abi.sys_mount [] None;
    t "relay" Abi.sys_relay [ Choice [ 1; 2; 3 ] ] None;
    t "pipe" Abi.sys_pipe [] (Some Rfd);
    t "dup" Abi.sys_dup [ Use Rfd ] (Some Rfd);
    t "ioctl$SIOCSIFHWADDR" Abi.sys_ioctl
      [ Use Rfd; Choice [ Abi.siocsifhwaddr ]; Buffer 6 ]
      None;
    t "ioctl$SIOCGIFHWADDR" Abi.sys_ioctl
      [ Use Rfd; Choice [ Abi.siocgifhwaddr ]; Buffer 6 ]
      None;
    t "ioctl$ETHTOOL" Abi.sys_ioctl
      [ Use Rfd; Choice [ Abi.siocethtool ]; Buffer 6 ]
      None;
    t "ioctl$SIOCSIFMTU" Abi.sys_ioctl
      [ Use Rfd; Choice [ Abi.siocsifmtu ]; Choice [ 100; 1500; 9000 ] ]
      None;
    t "ioctl$SIOCDELRT" Abi.sys_ioctl
      [ Use Rfd; Choice [ Abi.siocdelrt ]; Choice [ 0 ] ]
      None;
    t "ioctl$BLKRASET" Abi.sys_ioctl
      [ Use Rfd; Choice [ Abi.blkraset ]; Choice [ 0; 32; 256 ] ]
      None;
    t "ioctl$BLKBSZSET" Abi.sys_ioctl
      [ Use Rfd; Choice [ Abi.blkbszset ]; Choice [ 0; 512; 4096 ] ]
      None;
    t "ioctl$EXT4_IOC_SWAP_BOOT" Abi.sys_ioctl
      [ Use Rfd; Choice [ Abi.ext4_ioc_swap_boot ];
        Choice [ 0; 1; 2; 3; 4; 5; 6; 7 ] ]
      None;
    t "ioctl$TIOCSERCONFIG" Abi.sys_ioctl
      [ Use Rfd; Choice [ Abi.tiocserconfig ]; Choice [ 0 ] ]
      None;
    t "ioctl$SNDRV_CTL_ELEM_ADD" Abi.sys_ioctl
      [ Use Rfd; Choice [ Abi.sndrv_ctl_elem_add ]; Choice [ 1; 2; 3 ] ]
      None;
    t "ioctl$TCP_SET_DEFAULT_CC" Abi.sys_ioctl
      [ Use Rfd; Choice [ Abi.tcp_set_default_cc ]; Choice [ 0; 1; 2 ] ]
      None;
  ]

let pick rng l = List.nth l (Random.State.int rng (List.length l))

let random_bytes rng n = String.init n (fun _ -> Char.chr (Random.State.int rng 256))

(* Indices of earlier calls that produce the wanted resource. *)
let producers (calls : Prog.call list) res =
  let wanted_nrs =
    match res with
    | Rfd -> [ Abi.sys_socket; Abi.sys_open ]
    | Rmsq -> [ Abi.sys_msgget ]
  in
  let idxs = ref [] in
  List.iteri (fun i c -> if List.mem c.Prog.nr wanted_nrs then idxs := i :: !idxs) calls;
  !idxs

let sample_arg rng (earlier : Prog.call list) = function
  | Choice l -> Prog.Const (pick rng l)
  | Buffer n -> Prog.Buf (random_bytes rng n)
  | Use res -> (
      match producers earlier res with
      | [] -> Prog.Const (Random.State.int rng 3)
      | idxs -> Prog.Res (pick rng idxs))

let sample_call rng (earlier : Prog.call list) tmpl =
  { Prog.nr = tmpl.nr; args = List.map (sample_arg rng earlier) tmpl.argspecs }

(* Generate a fresh program of 1 to max_calls calls. *)
let generate rng : Prog.t =
  Obs.Metrics.incr m_generated;
  let n = 1 + Random.State.int rng (Prog.max_calls - 1) in
  let rec build acc i =
    if i >= n then List.rev acc
    else
      let tmpl = pick rng templates in
      build (sample_call rng (List.rev acc) tmpl :: acc) (i + 1)
  in
  build [] 0

let template_of_nr nr = List.filter (fun tm -> tm.nr = nr) templates

(* Mutate a program: replace a call, resample one argument, insert a call,
   or drop a call. *)
let mutate rng (p : Prog.t) : Prog.t =
  Obs.Metrics.incr m_mutated;
  if p = [] then generate rng
  else
    let i = Random.State.int rng (List.length p) in
    match Random.State.int rng 4 with
    | 0 ->
        (* replace call i with a fresh sample *)
        List.mapi
          (fun j c ->
            if j = i then sample_call rng (List.filteri (fun k _ -> k < j) p) (pick rng templates)
            else c)
          p
    | 1 ->
        (* resample one argument of call i *)
        List.mapi
          (fun j (c : Prog.call) ->
            if j <> i then c
            else
              match template_of_nr c.nr with
              | [] -> c
              | tmpls -> (
                  let tmpl = pick rng tmpls in
                  let earlier = List.filteri (fun k _ -> k < j) p in
                  match c.args with
                  | [] -> c
                  | args ->
                      let k = Random.State.int rng (List.length args) in
                      let specs = tmpl.argspecs in
                      if k >= List.length specs then c
                      else
                        {
                          c with
                          args =
                            List.mapi
                              (fun m arg ->
                                if m = k then sample_arg rng earlier (List.nth specs k)
                                else arg)
                              args;
                        }))
          p
    | 2 when List.length p < Prog.max_calls ->
        (* insert a fresh call at the end (keeps Res indices valid) *)
        p @ [ sample_call rng p (pick rng templates) ]
    | _ ->
        (* drop the last call (keeps Res indices valid) *)
        if List.length p <= 1 then generate rng
        else List.filteri (fun j _ -> j < List.length p - 1) p
