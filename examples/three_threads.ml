(* Section 6 extension: three testing threads and PMC chains.

   The relay subsystem hides an order violation that NO two-thread test
   can trigger: a producer publishes a message before initialising its
   payload, a forwarder copies the pointer onward, and a consumer
   dereferences it.  We profile the three sequential tests, identify the
   PMC chain producer -> forwarder -> consumer, and drive all three on
   three vCPUs with both chain PMCs as scheduling hints.

   Run with: dune exec examples/three_threads.exe *)

let pf = Format.printf

let () =
  let env = Sched.Exec.make_env Kernel.Config.all_buggy in
  let progs = Harness.Scenarios.relay in

  (* sanity: every two-thread combination is safe *)
  let two_thread_safe =
    List.for_all
      (fun (a, b) ->
        let res =
          Sched.Explore.run env ~ident:None ~writer:a ~reader:b ~hint:None
            ~kind:(Sched.Explore.Naive 2) ~trials:100 ~seed:3
            ~stop_on_bug:true ()
        in
        Sched.Explore.issues_found res = [])
      [ (progs.(0), progs.(1)); (progs.(0), progs.(2)); (progs.(1), progs.(2)) ]
  in
  pf "two-thread combinations crash-free under 100 dense trials each: %b@."
    two_thread_safe;

  (* profile the three tests, identify PMCs and their chains A -> B -> C
     through the middle test, and run all three with a chain as hint *)
  let h = Harness.Scenarios.hunt_relay env ~seed:100 in
  pf "@.identified %d pairwise PMCs across the three tests, %d PMC chains@."
    h.Harness.Scenarios.pmcs h.Harness.Scenarios.chains;
  match h.Harness.Scenarios.crash with
  | None -> pf "@.no crash found - rerun with another seed@."
  | Some (chain, res) ->
      pf "@.three-thread run with %a@." Core.Chain.pp chain;
      pf "trial %d crashes the kernel:@."
        (Option.get res.Sched.Explore.first_bug);
      List.iter
        (fun f -> pf "  %a@." Detectors.Oracle.pp_kind f.Detectors.Oracle.kind)
        (Sched.Explore.findings_found res);
      pf "@.The crash needed all three threads inside the producer's@.\
         initialisation window - exactly the higher-dimensional input space@.\
         the paper's section 6 anticipates.@."
