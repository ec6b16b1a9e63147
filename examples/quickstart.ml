(* Quickstart: the whole Snowboard loop on one pair of tests.

   1. Boot the guest kernel and snapshot it.
   2. Write two sequential tests (as a fuzzer would generate them).
   3. Profile each from the snapshot and identify their mutual PMCs.
   4. Execute the pair concurrently with a PMC as scheduling hint.
   5. Let the detectors report what went wrong.

   Run with: dune exec examples/quickstart.exe *)

module Abi = Kernel.Abi
module P = Fuzzer.Prog

let pf = Format.printf

let () =
  (* 1. the guest kernel: Linux 5.12-rc3's bug population *)
  let env = Sched.Exec.make_env Kernel.Config.v5_12_rc3 in
  pf "booted guest kernel: %d instructions of kernel text@."
    (Array.length env.Sched.Exec.kern.Kernel.image.Vmm.Asm.code);

  (* 2. two sequential tests: both open the same tty and poke at it *)
  let writer : P.t =
    [
      { P.nr = Abi.sys_open; args = [ P.Const Abi.path_tty; P.Const 0 ] };
      { P.nr = Abi.sys_ioctl; args = [ P.Res 0; P.Const Abi.tiocserconfig; P.Const 0 ] };
    ]
  in
  let reader : P.t =
    [ { P.nr = Abi.sys_open; args = [ P.Const Abi.path_tty; P.Const 0 ] } ]
  in
  pf "writer: %s@.reader: %s@." (P.to_string writer) (P.to_string reader);

  (* 3. profile both from the same snapshot; identify PMCs *)
  let profile id prog =
    let r = Sched.Exec.run_seq ~accesses:true env ~tid:0 prog in
    Core.Profile.of_shared ~test_id:id r.Sched.Exec.sq_accesses
  in
  let pw = profile 0 writer and pr = profile 1 reader in
  pf "profiles: writer %d shared accesses, reader %d@." (Core.Profile.length pw)
    (Core.Profile.length pr);
  let ident = Core.Identify.run [ pw; pr ] in
  pf "identified %d PMCs between the two tests@." (Core.Identify.num_pmcs ident);

  (* pick a PMC pairing writer as the writing side *)
  let hint = ref None in
  Core.Identify.iter
    (fun pmc info ->
      if !hint = None && List.mem (0, 1) info.Core.Identify.pairs then
        hint := Some pmc)
    ident;
  (match !hint with
  | Some p -> pf "scheduling hint: %a@." Core.Pmc.pp p
  | None -> pf "no usable PMC (unexpected)@.");

  (* 4-5. explore interleavings under Algorithm 2 with the detectors on *)
  let res =
    Sched.Explore.run env ~ident:(Some ident) ~writer ~reader ~hint:!hint
      ~kind:Sched.Explore.Snowboard ~trials:64 ~seed:7 ~stop_on_bug:true ()
  in
  (match res.Sched.Explore.first_bug with
  | Some n -> pf "@.detector fired on trial %d:@." n
  | None -> pf "@.no bug in 64 trials (try another seed)@.");
  List.iter
    (fun f ->
      pf "  [%s] %a@."
        (match f.Detectors.Oracle.issue with
        | Some id -> Printf.sprintf "issue #%d" id
        | None -> "untriaged")
        Detectors.Oracle.pp_kind f.Detectors.Oracle.kind)
    (Sched.Explore.findings_found res);
  pf "@.That race is Table 2's #14: tty_port_open() vs uart_do_autoconfig(),@.";
  pf "two flag updates under different locks.@."
