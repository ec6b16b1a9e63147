(* The work-stealing pool and the warm VM pool: determinism (results in
   item order, byte-identical for any worker count or steal seed),
   failure containment, and the lease/restore observational-equivalence
   oracle. *)

module Vm = Vmm.Vm
module Vmpool = Vmm.Vmpool
module Workpool = Harness.Workpool
module Exec = Sched.Exec

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

(* ---------------- Workpool: pool result = sequential map ----------- *)

(* The pool must return exactly [Array.mapi f items] whatever the worker
   count, seed or steal interleaving — including the empty and
   single-item batches that never leave the calling domain. *)
let prop_pool_equals_map =
  QCheck.Test.make ~name:"workpool equals sequential map" ~count:60
    QCheck.(
      triple (int_range 0 40) (int_range 1 8) (int_range 0 1_000_000))
    (fun (n, jobs, seed) ->
      let items = Array.init n (fun i -> (i * 7) + seed) in
      let expected = Array.map (fun x -> (x * x) + 1) items in
      let got =
        Workpool.run ~jobs ~seed
          ~worker:(fun w -> w)
          ~f:(fun _ _ x -> (x * x) + 1)
          ~fallback:(fun _ _ exn -> raise exn)
          items
      in
      got = expected)

(* [f] receives each item's own global index, never a renumbered one —
   per-test seeds depend on it. *)
let prop_pool_passes_global_index =
  QCheck.Test.make ~name:"workpool passes global indices" ~count:40
    QCheck.(pair (int_range 0 40) (int_range 1 8))
    (fun (n, jobs) ->
      let items = Array.init n (fun i -> i) in
      let got =
        Workpool.run ~jobs
          ~worker:(fun w -> w)
          ~f:(fun _ i _ -> i)
          ~fallback:(fun _ _ exn -> raise exn)
          items
      in
      got = items)

let test_pool_failed_item_uses_fallback () =
  let items = Array.init 9 (fun i -> i) in
  let results =
    Workpool.run ~jobs:3
      ~worker:(fun w -> w)
      ~f:(fun _ _ x -> if x mod 4 = 2 then failwith "poisoned" else x * 10)
      ~fallback:(fun i _ exn ->
        match exn with Failure _ -> -i | _ -> raise exn)
      items
  in
  Array.iteri
    (fun i r ->
      if i mod 4 = 2 then checki "fallback slot" (-i) r
      else checki "normal slot" (i * 10) r)
    results

let test_pool_dead_worker_retires_not_fatal () =
  (* worker 1's context constructor dies; the survivor(s) still run
     every item *)
  let items = Array.init 12 (fun i -> i) in
  let results =
    Workpool.run ~jobs:3
      ~worker:(fun w -> if w = 1 then failwith "boot failed" else w)
      ~f:(fun _ _ x -> x + 100)
      ~fallback:(fun _ _ _ -> -1)
      items
  in
  checkb "all items executed by survivors" true
    (Array.for_all (fun r -> r >= 100) results)

let test_pool_all_workers_dead_falls_back () =
  let items = Array.init 5 (fun i -> i) in
  let results =
    Workpool.run ~jobs:2
      ~worker:(fun _ -> failwith "no machine")
      ~f:(fun _ _ x -> x)
      ~fallback:(fun i _ _ -> 1000 + i)
      items
  in
  checkb "every item fell back" true
    (Array.for_all2 (fun r i -> r = 1000 + i) results items)

let test_pool_finish_runs_per_worker () =
  let finished = Atomic.make 0 in
  let items = Array.init 20 (fun i -> i) in
  ignore
    (Workpool.run ~jobs:4
       ~worker:(fun w -> w)
       ~finish:(fun _ _ -> Atomic.incr finished)
       ~f:(fun _ _ x -> x)
       ~fallback:(fun _ _ exn -> raise exn)
       items);
  checki "finish ran once per worker" 4 (Atomic.get finished)

let test_default_domains () =
  let unset () = Unix.putenv "SNOWBOARD_MAX_DOMAINS" "" in
  unset ();
  checkb "at least one worker" true (Harness.Parallel.default_domains () >= 1);
  Unix.putenv "SNOWBOARD_MAX_DOMAINS" "1";
  checki "env cap applies" 1 (Harness.Parallel.default_domains ());
  Unix.putenv "SNOWBOARD_MAX_DOMAINS" "not-a-number";
  checkb "garbage cap ignored" true (Harness.Parallel.default_domains () >= 1);
  unset ()

(* ---------------- Vmpool bookkeeping ------------------------------- *)

let counting_pool ?on_transfer ?on_release () =
  let boots = ref 0 in
  let p =
    Vmpool.create
      ~boot:(fun () ->
        incr boots;
        !boots)
      ?on_transfer ?on_release ()
  in
  (p, boots)

let test_vmpool_affinity_hit () =
  let p, boots = counting_pool () in
  let a = Vmpool.lease p ~worker:0 in
  Vmpool.release p ~worker:0 a;
  let b = Vmpool.lease p ~worker:0 in
  checki "same machine back" a b;
  checki "one boot" 1 !boots;
  checki "booted" 1 (Vmpool.booted p);
  checki "none free while leased" 0 (Vmpool.available p)

let test_vmpool_never_steals_other_workers_machine () =
  (* worker 1 must boot its own machine rather than take worker 0's
     release — boot counts must not depend on lease/release timing *)
  let p, boots = counting_pool () in
  let a = Vmpool.lease p ~worker:0 in
  Vmpool.release p ~worker:0 a;
  let b = Vmpool.lease p ~worker:1 in
  checkb "fresh machine for the new worker" true (b <> a);
  checki "two boots" 2 !boots

let test_vmpool_transfer_only_from_prewarm () =
  let transfers = ref [] in
  let p, boots =
    counting_pool ~on_transfer:(fun v -> transfers := v :: !transfers) ()
  in
  Vmpool.prewarm p 2;
  checki "prewarm boots" 2 !boots;
  checki "prewarm is idempotent" 2 (Vmpool.booted p);
  Vmpool.prewarm p 2;
  checki "no extra boots" 2 !boots;
  let a = Vmpool.lease p ~worker:0 in
  let b = Vmpool.lease p ~worker:1 in
  checki "both leases served from the warm set" 2 !boots;
  checki "both transfers re-armed" 2 (List.length !transfers);
  Vmpool.release p ~worker:0 a;
  Vmpool.release p ~worker:1 b;
  let a' = Vmpool.lease p ~worker:0 in
  checki "affinity hit is not a transfer" 2 (List.length !transfers);
  checki "same machine" a a'

let test_vmpool_on_release_hook () =
  let released = ref 0 in
  let p, _ = counting_pool ~on_release:(fun _ -> incr released) () in
  let a = Vmpool.lease p ~worker:0 in
  Vmpool.release p ~worker:0 a;
  checki "hook ran" 1 !released;
  checki "machine back on the free list" 1 (Vmpool.available p)

(* ---------------- warm VM lease/restore equivalence ---------------- *)

(* Restoring a leased VM — via the dirty-delta shortcut on an affinity
   hit, or the full blit after a transfer's [invalidate_delta] — must
   leave guest state byte-identical to the [restore_full] oracle.
   Random programs dirty different page sets each round. *)
let prop_lease_restore_equivalent =
  QCheck.Test.make ~name:"pool lease/restore matches restore_full oracle"
    ~count:20
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let env = Exec.make_env Kernel.Config.v5_12_rc3 in
      let prog = Fuzzer.Gen.generate (Random.State.make [| seed |]) in
      (* oracle: run, then unconditional full blit *)
      ignore (Exec.run_seq env ~tid:0 prog);
      Vm.restore_full env.Exec.vm env.Exec.snap;
      let fp_oracle = Vm.fingerprint env.Exec.vm in
      (* affinity hit: delta intact, dirty-page restore *)
      ignore (Exec.run_seq env ~tid:0 prog);
      Vm.restore env.Exec.vm env.Exec.snap;
      checkb "dirty restore" true (Vm.fingerprint env.Exec.vm = fp_oracle);
      (* transfer: delta dropped, next restore full-blits and re-arms *)
      ignore (Exec.run_seq env ~tid:0 prog);
      Vm.invalidate_delta env.Exec.vm;
      Vm.restore env.Exec.vm env.Exec.snap;
      checkb "post-transfer restore" true
        (Vm.fingerprint env.Exec.vm = fp_oracle);
      (* and the delta re-armed: the next cycle dirty-restores again *)
      ignore (Exec.run_seq env ~tid:0 prog);
      Vm.restore env.Exec.vm env.Exec.snap;
      Vm.fingerprint env.Exec.vm = fp_oracle)

(* ---------------- parallel phases vs the sequential oracle --------- *)

let small_cfg =
  {
    Harness.Pipeline.default with
    Harness.Pipeline.fuzz_iters = 100;
    trials_per_test = 4;
  }

let t = lazy (Harness.Pipeline.prepare small_cfg)

(* Work-stealing corpus profiling must merge to the same profile list
   and step count as the sequential profiler, for any job count. *)
let test_profile_parallel_equivalent () =
  let t = Lazy.force t in
  let env = Exec.make_env small_cfg.Harness.Pipeline.kernel in
  let seq_profiles, seq_steps =
    Harness.Pipeline.profile_corpus env t.Harness.Pipeline.corpus
  in
  List.iter
    (fun jobs ->
      let p, s =
        Harness.Pipeline.profile_corpus_parallel ~jobs
          ~kernel:small_cfg.Harness.Pipeline.kernel t.Harness.Pipeline.corpus
      in
      checkb (Printf.sprintf "profiles identical at jobs=%d" jobs) true
        (p = seq_profiles);
      checki (Printf.sprintf "steps identical at jobs=%d" jobs) seq_steps s)
    [ 1; 2; 3 ]

(* The parallel explore fan-out must produce identical method stats —
   bug reports, outcome tallies, everything — to the sequential runner,
   for several worker counts and steal seeds (the seed shapes victim
   order only, so stats must not move with it). *)
let test_explore_parallel_equivalent () =
  let t = Lazy.force t in
  let method_ = Core.Select.Strategy Core.Cluster.S_MEM in
  let budget = 10 in
  let seq = Harness.Pipeline.run_method t method_ ~budget in
  List.iter
    (fun domains ->
      let par = Harness.Parallel.run_method ~domains t method_ ~budget in
      checkb (Printf.sprintf "stats identical at domains=%d" domains) true
        (par = seq))
    [ 1; 2; 4 ]

(* Different campaign seeds change the victim permutation the pool
   uses; the permutation must never leak into results. *)
let prop_steal_seed_invisible =
  QCheck.Test.make ~name:"steal seed does not shape results" ~count:8
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let items = Array.init 23 (fun i -> i) in
      let expected = Array.map (fun x -> x * 3) items in
      Workpool.run ~jobs:4 ~seed
        ~worker:(fun w -> w)
        ~f:(fun _ _ x -> x * 3)
        ~fallback:(fun _ _ exn -> raise exn)
        items
      = expected)

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "workpool"
    [
      ( "workpool",
        [
          QCheck_alcotest.to_alcotest prop_pool_equals_map;
          QCheck_alcotest.to_alcotest prop_pool_passes_global_index;
          QCheck_alcotest.to_alcotest prop_steal_seed_invisible;
          Alcotest.test_case "failed item uses fallback" `Quick
            test_pool_failed_item_uses_fallback;
          Alcotest.test_case "dead worker retires, survivors finish" `Quick
            test_pool_dead_worker_retires_not_fatal;
          Alcotest.test_case "all workers dead falls back" `Quick
            test_pool_all_workers_dead_falls_back;
          Alcotest.test_case "finish runs per worker" `Quick
            test_pool_finish_runs_per_worker;
        ] );
      ( "sharding",
        [
          Alcotest.test_case "default_domains" `Quick test_default_domains;
        ] );
      ( "vmpool",
        qsuite [ prop_lease_restore_equivalent ]
        @ [
            Alcotest.test_case "affinity hit" `Quick test_vmpool_affinity_hit;
            Alcotest.test_case "never steals another worker's machine" `Quick
              test_vmpool_never_steals_other_workers_machine;
            Alcotest.test_case "transfer only from prewarm" `Quick
              test_vmpool_transfer_only_from_prewarm;
            Alcotest.test_case "on_release hook" `Quick
              test_vmpool_on_release_hook;
          ] );
      ( "parallel oracle",
        [
          Alcotest.test_case "profile phase equals sequential" `Slow
            test_profile_parallel_equivalent;
          Alcotest.test_case "explore phase equals sequential" `Slow
            test_explore_parallel_equivalent;
        ] );
    ]
