(* Kernel image assembly and boot.

   [build] assembles all subsystems into one image according to the bug
   configuration; [boot] creates a VM, runs kernel_init on vCPU 0 through
   the threaded-code interpreter and takes the snapshot that every
   sequential profile and every concurrent trial starts from - the
   "fixed initial kernel state" of section 4.1. *)

(* Because this module shares the library's name it is the library's
   public interface; the submodules consumers need are re-exported here. *)
module Abi = Abi
module Config = Config
module Dsl = Dsl
module Kbase = Kbase

module Asm = Vmm.Asm
module Vm = Vmm.Vm
open Vmm.Isa
open Dsl

type t = {
  image : Asm.image;
  config : Config.t;
  syscall_entry : int;
}

let build (cfg : Config.t) =
  let a = Asm.create () in
  let _kbase = Kbase.install a cfg.bug13_slab_stats in
  let _net = Net_core.install a in
  let _netdev = Netdev.install a cfg in
  let _l2tp = L2tp.install a cfg in
  let _rhash = Rhash.install a cfg in
  let _ext4 = Ext4.install a cfg in
  let _blockdev = Blockdev.install a cfg in
  let _configfs = Configfs.install a cfg in
  let _tty = Tty.install a cfg in
  let _sound = Sound.install a cfg in
  let _tcpcong = Tcpcong.install a cfg in
  let _fanout = Fanout.install a cfg in
  let _relay = Relay.install a cfg in
  Pipefs.install a cfg;
  Vfs.install a cfg;
  Ioctl.install a cfg;

  (* The in-kernel syscall dispatch table, indexed by syscall number. *)
  let table =
    Asm.global_funcs a "syscall_table"
      [
        "sys_socket";
        "sys_connect";
        "sys_sendmsg";
        "sys_getsockname";
        "sys_setsockopt";
        "sys_ioctl";
        "sys_close";
        "sys_open";
        "sys_read";
        "sys_write";
        "sys_ftruncate";
        "sys_fadvise";
        "sys_msgget";
        "sys_msgctl";
        "sys_rename";
        "sys_mount";
        "sys_relay";
        "sys_pipe";
        "sys_dup";
      ]
  in
  assert (Abi.num_syscalls = 19);

  (* syscall_entry: r12 holds the syscall number, r0-r5 the arguments. *)
  func a "syscall_entry" (fun () ->
      let bad = fresh a "bad" in
      blt a r12 (Imm 0) bad;
      bge a r12 (Imm Abi.num_syscalls) bad;
      mov a r13 r12;
      shl a r13 r13 (Imm 3);
      add a r13 r13 (Imm table);
      ld a r13 r13 0;
      callind a r13;
      ret a;
      label a bad;
      li a r0 Abi.einval;
      ret a);

  (* kernel_init: boot-time initialisation, run once before snapshot. *)
  func a "kernel_init" (fun () ->
      call a "netdev_init";
      call a "blockdev_init";
      call a "ext4_init";
      call a "configfs_init";
      call a "relay_init";
      ret a);

  let image = Asm.link a in
  { image; config = cfg; syscall_entry = Asm.entry image "syscall_entry" }

(* Run kernel_init to completion on vCPU 0 and snapshot the result.
   [tcode] is the image's threaded code ([Vmm.Tcode.of_image t.image]),
   which the caller decodes once and keeps for the runs that follow. *)
let boot t tcode =
  let vm = Vm.create t.image in
  Vm.start_call vm 0 (Asm.entry t.image "kernel_init") [];
  let sink = Vm.make_sink () in
  let rec run budget =
    if budget <= 0 then failwith "kernel: boot did not terminate";
    match Vm.run_tblock vm tcode ~tid:0 ~quantum:budget sink with
    | Vm.Rret_to_user | Vm.Rdead -> ()
    | Vm.Rnone | Vm.Revent -> run (budget - sink.Vm.sk_steps)
  in
  run 1_000_000;
  if Vm.panicked vm then failwith "kernel: panic during boot";
  let snap = Vm.snapshot vm in
  (vm, snap)
