(* The shared work queue and the kept VM per worker: determinism
   (results in item order, byte-identical for any worker count), every
   item claimed exactly once, failure containment, the lease/release
   bookkeeping, and the lease/restore observational-equivalence
   oracle. *)

module Vm = Vmm.Vm
module Workpool = Harness.Workpool
module Exec = Sched.Exec

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

(* ---------------- Workpool: pool result = sequential map ----------- *)

(* The pool must return exactly [Array.mapi f items] whatever the worker
   count or claim interleaving — including the empty and single-item
   batches that never leave the calling domain. *)
let prop_pool_equals_map =
  QCheck.Test.make ~name:"workpool equals sequential map" ~count:60
    QCheck.(
      triple (int_range 0 40) (int_range 1 8) (int_range 0 1_000_000))
    (fun (n, jobs, seed) ->
      let items = Array.init n (fun i -> (i * 7) + seed) in
      let expected = Array.map (fun x -> (x * x) + 1) items in
      let got =
        Workpool.run ~jobs
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

(* Every index is claimed exactly once, counted per index with atomics,
   while a random proper subset of the workers fails to build its
   context: the survivors drain the batch and the result is still the
   map.  At one effective worker the subset is empty, since [worker 0]'s
   exception propagates there. *)
let prop_pool_runs_each_index_once =
  QCheck.Test.make ~name:"workpool runs every index exactly once" ~count:100
    QCheck.(
      quad (int_range 0 40) (int_range 1 8) (int_range 0 255)
        (int_range 0 1_000))
    (fun (n, jobs, fail_mask, pick) ->
      let workers = max 1 (min jobs n) in
      let survivor = pick mod workers in
      let fails w = w <> survivor && fail_mask land (1 lsl w) <> 0 in
      let runs = Array.init n (fun _ -> Atomic.make 0) in
      let items = Array.init n (fun i -> (i * 5) + 1) in
      let got =
        Workpool.run ~jobs
          ~worker:(fun w -> if fails w then failwith "no machine" else w)
          ~f:(fun _ i x ->
            Atomic.incr runs.(i);
            x * 2)
          ~fallback:(fun _ _ exn -> raise exn)
          items
      in
      Array.for_all (fun c -> Atomic.get c = 1) runs
      && got = Array.map (fun x -> x * 2) items)

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
  (* worker 1's context constructor dies; it claims nothing and the
     survivors drain the batch *)
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

(* ---------------- kept VMs: lease/release bookkeeping -------------- *)

(* Worker indices no other test in this file leases, so each test starts
   with nothing kept for them. *)
let cfg = Kernel.Config.v5_12_rc3

let test_lease_affinity_hit () =
  let a = Exec.lease_env cfg ~worker:100 in
  Exec.release_env ~worker:100 a;
  let b = Exec.lease_env cfg ~worker:100 in
  checkb "a worker gets its own env back" true (b == a);
  Exec.release_env ~worker:100 b

let test_lease_never_another_workers_env () =
  (* worker 102 must boot its own env rather than take worker 101's
     release: boot counts must not depend on lease/release timing *)
  let a = Exec.lease_env cfg ~worker:101 in
  Exec.release_env ~worker:101 a;
  let b = Exec.lease_env cfg ~worker:102 in
  checkb "another worker boots its own env" true (b != a);
  checkb "worker 101's env still kept" true
    (Exec.lease_env cfg ~worker:101 == a);
  Exec.release_env ~worker:101 a;
  Exec.release_env ~worker:102 b

let test_lease_not_handed_out_twice () =
  let a = Exec.lease_env cfg ~worker:103 in
  let b = Exec.lease_env cfg ~worker:103 in
  checkb "a leased env is not handed out twice" true (b != a);
  Exec.release_env ~worker:103 a

(* Returning an env forwards the counter tail of its VM's last run to
   the registry: the run's instructions show up at the release, not at
   whichever restore next touches the VM. *)
let test_release_flushes_stats () =
  let retired = Obs.Metrics.counter "snowboard.vmm/instructions_retired" in
  let e = Exec.lease_env cfg ~worker:104 in
  let prog = Fuzzer.Gen.generate (Random.State.make [| 3 |]) in
  let r = Exec.run_seq e ~tid:0 prog in
  let before = Obs.Metrics.counter_value retired in
  Exec.release_env ~worker:104 e;
  checki "release flushed the run's instructions" r.Exec.sq_steps
    (Obs.Metrics.counter_value retired - before)

(* ---------------- warm VM lease/restore equivalence ---------------- *)

(* Restoring a leased VM via the dirty-delta shortcut on an affinity
   hit, round after round, must leave guest state byte-identical to the
   [restore_full] oracle.  Random programs dirty different page sets
   each round. *)
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

(* Parallel corpus profiling must merge to the same profile list
   and step count as the inline profiler, for any job count. *)
let test_profile_parallel_equivalent () =
  let t = Lazy.force t in
  let env = Exec.make_env small_cfg.Harness.Pipeline.kernel in
  let seq_profiles, seq_steps =
    Harness.Pipeline.profile_corpus env t.Harness.Pipeline.corpus
  in
  List.iter
    (fun jobs ->
      let p, s =
        Harness.Pipeline.profile_corpus ~jobs env t.Harness.Pipeline.corpus
      in
      checkb (Printf.sprintf "profiles identical at jobs=%d" jobs) true
        (p = seq_profiles);
      checki (Printf.sprintf "steps identical at jobs=%d" jobs) seq_steps s)
    [ 1; 2; 3 ]

(* The explore fan-out must produce identical method stats — bug
   reports, outcome tallies, everything — to the inline run, for several
   worker counts. *)
let test_explore_parallel_equivalent () =
  let t = Lazy.force t in
  let method_ = Core.Select.Strategy Core.Cluster.S_MEM in
  let budget = 10 in
  let seq = Harness.Pipeline.run_method t method_ ~budget in
  List.iter
    (fun jobs ->
      let t =
        { t with Harness.Pipeline.cfg = { small_cfg with Harness.Pipeline.jobs } }
      in
      let par = Harness.Pipeline.run_method t method_ ~budget in
      checkb (Printf.sprintf "stats identical at jobs=%d" jobs) true
        (par = seq))
    [ 1; 2; 4 ]

(* Phase-boundary counter totals must not depend on which worker ran
   which test last: [release_env] flushes each returned VM's counter
   tail, so the instructions retired over a method equal the steps its
   trials ran.  The warm-up method on a different plan leaves every
   worker's VM with a tail of its own; without the flush it would be
   counted in the measured window and the measured method's tails left
   out.  Only parallel runs lease kept VMs; the inline path flushes its
   tail at the env's next restore. *)
let test_parallel_counters_flushed () =
  let t = Lazy.force t in
  let retired = Obs.Metrics.counter "snowboard.vmm/instructions_retired" in
  List.iter
    (fun jobs ->
      let t =
        { t with Harness.Pipeline.cfg = { small_cfg with Harness.Pipeline.jobs } }
      in
      ignore
        (Harness.Pipeline.run_method t
           (Core.Select.Strategy Core.Cluster.S_INS) ~budget:7);
      let before = Obs.Metrics.counter_value retired in
      let s =
        Harness.Pipeline.run_method t
          (Core.Select.Strategy Core.Cluster.S_MEM) ~budget:10
      in
      checki
        (Printf.sprintf "instructions retired = steps run at jobs=%d" jobs)
        s.Harness.Pipeline.total_steps
        (Obs.Metrics.counter_value retired - before))
    [ 2; 3 ]

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "workpool"
    [
      ( "workpool",
        [
          QCheck_alcotest.to_alcotest prop_pool_equals_map;
          QCheck_alcotest.to_alcotest prop_pool_passes_global_index;
          QCheck_alcotest.to_alcotest prop_pool_runs_each_index_once;
          Alcotest.test_case "failed item uses fallback" `Quick
            test_pool_failed_item_uses_fallback;
          Alcotest.test_case "dead worker retires, survivors finish" `Quick
            test_pool_dead_worker_retires_not_fatal;
          Alcotest.test_case "all workers dead falls back" `Quick
            test_pool_all_workers_dead_falls_back;
          Alcotest.test_case "finish runs per worker" `Quick
            test_pool_finish_runs_per_worker;
        ] );
      (* the kept VM per worker behind [Exec.lease_env] *)
      ( "vmpool",
        qsuite [ prop_lease_restore_equivalent ]
        @ [
            Alcotest.test_case "affinity hit" `Quick test_lease_affinity_hit;
            Alcotest.test_case "never steals another worker's machine" `Quick
              test_lease_never_another_workers_env;
            Alcotest.test_case "on_release hook" `Quick
              test_release_flushes_stats;
            Alcotest.test_case "leased env not handed out twice" `Quick
              test_lease_not_handed_out_twice;
          ] );
      ( "parallel oracle",
        [
          Alcotest.test_case "profile phase equals sequential" `Slow
            test_profile_parallel_equivalent;
          Alcotest.test_case "explore phase equals sequential" `Slow
            test_explore_parallel_equivalent;
          Alcotest.test_case "returned VMs flush their counters" `Slow
            test_parallel_counters_flushed;
        ] );
    ]
