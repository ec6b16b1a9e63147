(* Figure 1 walkthrough: the l2tp order violation (issue #12).

   Two user processes race connect() against connect()+sendmsg() on the
   same tunnel id.  l2tp_tunnel_register() publishes the tunnel on the
   RCU list before initialising tunnel->sock; if pppol2tp_connect() in
   the other thread retrieves the tunnel inside that window, its
   sendmsg() dereferences the NULL socket - a kernel panic with no data
   race anywhere (every access is properly marked or locked), so only
   the console oracle catches it.

   Run with: dune exec examples/l2tp_bug.exe *)

let pf = Format.printf

let () =
  let env = Sched.Exec.make_env Kernel.Config.v5_12_rc3 in
  let s =
    match Harness.Scenarios.find 12 with Some s -> s | None -> assert false
  in
  pf "thread 1 (writer): %s@." (Fuzzer.Prog.to_string s.Harness.Scenarios.writer);
  pf "thread 2 (reader): %s@.@." (Fuzzer.Prog.to_string s.Harness.Scenarios.reader);

  (* sequential runs are perfectly healthy *)
  let seq = Sched.Exec.run_seq env ~tid:0 s.Harness.Scenarios.reader in
  pf "sequential reader: retvals [%s], console clean: %b@."
    (String.concat "; "
       (Array.to_list (Array.map string_of_int seq.Sched.Exec.sq_retvals)))
    (seq.Sched.Exec.sq_console = []);

  (* Algorithm 2, one exploration per PMC between the two tests (the rcu
     list-head publish among them), until one panics the kernel *)
  let a =
    Harness.Scenarios.reproduce env s ~kind:Sched.Explore.Snowboard
      ~trials:64 ~seed:42 ()
  in
  match (a.Harness.Scenarios.exposed, a.Harness.Scenarios.trials_to_expose) with
  | Some t, Some n ->
      pf "@.trial %d, across %d hinted PMC(s), panics the kernel:@." n
        a.Harness.Scenarios.hints_tried;
      List.iter
        (fun f -> pf "  %a@." Detectors.Oracle.pp_kind f.Detectors.Oracle.kind)
        t.Sched.Explore.findings;
      pf "@.Note the interleaving: writer list_add_rcu -> reader tunnel_get +@.";
      pf "sendmsg -> writer sets tunnel->sock (too late).  The paper notes this@.";
      pf "bug was introduced by a patch fixing another concurrency bug, and is@.";
      pf "user-triggerable as a denial of service (section 5.2, case 2).@."
  | _ -> pf "@.no panic found - rerun with another seed@."
