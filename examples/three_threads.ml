(* Section 6 extension: three testing threads and PMC chains.

   The relay subsystem hides an order violation that NO two-thread test
   can trigger: a producer publishes a message before initialising its
   payload, a forwarder copies the pointer onward, and a consumer
   dereferences it.  We profile the three sequential tests, identify the
   PMC chain producer -> forwarder -> consumer, and drive all three on
   three vCPUs with both chain PMCs as scheduling hints.

   Run with: dune exec examples/three_threads.exe *)

module Abi = Kernel.Abi
module P = Fuzzer.Prog

let pf = Format.printf

let relay op = { P.nr = Abi.sys_relay; args = [ P.Const op ] }

let producer : P.t = [ relay 1 ]
let forwarder : P.t = [ relay 2 ]
let consumer : P.t = [ relay 3 ]

let () =
  let env = Sched.Exec.make_env Kernel.Config.all_buggy in
  let progs = [| producer; forwarder; consumer |] in

  (* profile the three tests and identify PMCs *)
  let profiles =
    Array.to_list
      (Array.mapi
         (fun i p ->
           Core.Profile.of_shared ~test_id:i
             (Sched.Exec.run_seq ~accesses:true env ~tid:0 p).Sched.Exec.sq_accesses)
         progs)
  in
  let ident = Core.Identify.run profiles in
  pf "identified %d pairwise PMCs across the three tests@."
    (Core.Identify.num_pmcs ident);

  (* chain identification: A -> B -> C through the middle test *)
  let chains = Core.Chain.find ident in
  pf "found %d PMC chains; exemplars by instruction quadruple:@."
    (List.length chains);
  let rng = Random.State.make [| 11 |] in
  let exemplars = Core.Chain.select rng chains in
  List.iteri
    (fun i ch -> if i < 4 then pf "  %a@." Core.Chain.pp ch)
    exemplars;

  (* sanity: every two-thread combination is safe *)
  let two_thread_safe =
    List.for_all
      (fun (a, b) ->
        let res =
          Sched.Explore.run env ~ident:(Some ident) ~writer:a ~reader:b
            ~hint:None ~kind:(Sched.Explore.Naive 2) ~trials:100 ~seed:3
            ~stop_on_bug:true ()
        in
        Sched.Explore.issues_found res = [])
      [ (producer, forwarder); (producer, consumer); (forwarder, consumer) ]
  in
  pf "@.two-thread combinations crash-free under 100 dense trials each: %b@."
    two_thread_safe;

  (* three threads with the chain as hint *)
  let found = ref false in
  List.iteri
    (fun i chain ->
      if (not !found) && i < 8 then begin
        let res =
          Sched.Explore.run_chain env ~progs ~chain:(Some chain) ~trials:64
            ~seed:(100 + i) ~stop_on_bug:true ()
        in
        match res.Sched.Explore.first_bug with
        | Some n ->
            found := true;
            pf "@.three-thread run with %a@." Core.Chain.pp chain;
            pf "trial %d crashes the kernel:@." n;
            List.iter
              (fun f -> pf "  %a@." Detectors.Oracle.pp_kind f.Detectors.Oracle.kind)
              (Sched.Explore.findings_found res)
        | None -> ()
      end)
    exemplars;
  if not !found then pf "@.no crash found - rerun with another seed@."
  else
    pf "@.The crash needed all three threads inside the producer's@.\
       initialisation window - exactly the higher-dimensional input space@.\
       the paper's section 6 anticipates.@."
