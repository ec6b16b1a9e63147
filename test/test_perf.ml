(* Tests for the performance layer: page-granular dirty tracking in the
   VM (restore must stay observationally identical to the old full-copy
   restore), O(1) corpus indexing, and the determinism of the
   domain-parallel prepare phase. *)

module Vm = Vmm.Vm
module P = Fuzzer.Prog
module Exec = Sched.Exec

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checks = Alcotest.(check string)

(* ---------------- dirty-page restore vs full-copy restore ---------- *)

(* Two identically booted environments: [env_dirty] restores through the
   dirty-page shortcut, [env_full] blits the whole guest image with
   [Vm.restore_full] (the pre-optimisation behaviour) before each run, so
   the restore that starts the run finds nothing dirty.  Both run the
   same arbitrary programs; every observable - the sequential result,
   the console, the coverage edges and a fingerprint of the full VM
   state - must stay equal, including across the restore that starts
   each run. *)
let envs =
  lazy
    ( Exec.make_env Kernel.Config.v5_12_rc3,
      Exec.make_env Kernel.Config.v5_12_rc3 )

let prop_dirty_restore_equivalent =
  QCheck.Test.make ~name:"dirty-page restore is observationally identical"
    ~count:80
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let env_dirty, env_full = Lazy.force envs in
      let prog = Fuzzer.Gen.generate (Random.State.make [| seed |]) in
      let r1 = Exec.run_seq ~accesses:true env_dirty ~tid:0 prog in
      Vm.restore_full env_full.Exec.vm env_full.Exec.snap;
      let r2 = Exec.run_seq ~accesses:true env_full ~tid:0 prog in
      r1 = r2
      && Vm.fingerprint env_dirty.Exec.vm = Vm.fingerprint env_full.Exec.vm)

(* After any program, a dirty-tracked restore must bring the VM back to
   the exact booted state (same fingerprint as a full-copy restore of the
   same snapshot). *)
let prop_restore_resets_state =
  QCheck.Test.make ~name:"restore returns the VM to the snapshot state"
    ~count:40
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let env_dirty, env_full = Lazy.force envs in
      let prog = Fuzzer.Gen.generate (Random.State.make [| seed |]) in
      ignore (Exec.run_seq env_dirty ~tid:0 prog);
      ignore (Exec.run_seq env_full ~tid:0 prog);
      Vm.restore env_dirty.Exec.vm env_dirty.Exec.snap;
      Vm.restore_full env_full.Exec.vm env_full.Exec.snap;
      Vm.fingerprint env_dirty.Exec.vm = Vm.fingerprint env_full.Exec.vm)

let test_dirty_page_counts () =
  let env = Exec.make_env Kernel.Config.v5_12_rc3 in
  (* a restore synchronizes the VM with the snapshot: nothing dirty *)
  Vm.restore env.Exec.vm env.Exec.snap;
  checki "clean after restore" 0 (Vm.dirty_page_count env.Exec.vm);
  let prog =
    [ { P.nr = Kernel.Abi.sys_socket; args = [ P.Const 1; P.Const 0 ] } ]
  in
  ignore (Exec.run_seq env ~tid:0 prog);
  let d = Vm.dirty_page_count env.Exec.vm in
  checkb "a short test dirties some pages" true (d > 0);
  checkb "...but far from the whole guest image" true (d < Vm.num_pages / 2);
  Vm.restore env.Exec.vm env.Exec.snap;
  checki "clean again after restore" 0 (Vm.dirty_page_count env.Exec.vm)

(* ---------------- O(1) corpus indexing ------------------------------ *)

let mk_corpus n =
  let c = Fuzzer.Corpus.create () in
  for i = 0 to n - 1 do
    let prog = [ { P.nr = i; args = [ P.Const i ] } ] in
    (* a unique fake edge per program so every offer is kept *)
    match Fuzzer.Corpus.consider c prog ~edges:[ (i, i + 1) ] with
    | Some id -> checki "dense ids" i id
    | None -> Alcotest.fail "corpus rejected a coverage-novel program"
  done;
  c

let test_corpus_nth_find () =
  let n = 100 in
  let c = mk_corpus n in
  checki "size" n (Fuzzer.Corpus.size c);
  List.iteri
    (fun i (e : Fuzzer.Corpus.entry) ->
      let e' = Fuzzer.Corpus.nth c i in
      checki "nth agrees with to_list" e.Fuzzer.Corpus.id e'.Fuzzer.Corpus.id;
      match Fuzzer.Corpus.find c e.Fuzzer.Corpus.id with
      | Some f -> checkb "find returns the entry" true (f = e)
      | None -> Alcotest.fail "find lost an id")
    (Fuzzer.Corpus.to_list c);
  checkb "find out of range" true (Fuzzer.Corpus.find c n = None);
  checkb "find negative" true (Fuzzer.Corpus.find c (-1) = None);
  Alcotest.check_raises "nth out of range"
    (Invalid_argument (Printf.sprintf "corpus: nth %d of %d" n n)) (fun () ->
      ignore (Fuzzer.Corpus.nth c n))

(* [sample] must spend exactly the RNG draw the old [List.nth] pick
   spent, so corpora and campaigns stay bit-identical. *)
let test_corpus_sample_draw () =
  let c = mk_corpus 37 in
  let r1 = Random.State.make [| 5 |] in
  let r2 = Random.State.make [| 5 |] in
  for _ = 1 to 200 do
    let e = Fuzzer.Corpus.sample c r1 in
    let e' = List.nth (Fuzzer.Corpus.to_list c) (Random.State.int r2 37) in
    checki "sample = nth of one draw" e'.Fuzzer.Corpus.id e.Fuzzer.Corpus.id
  done;
  (* both states consumed the same number of draws *)
  checki "rng states in lockstep" (Random.State.int r2 1000)
    (Random.State.int r1 1000)

(* ---------------- parallel prepare determinism ---------------------- *)

let cfg_with_jobs jobs =
  {
    Harness.Pipeline.default with
    Harness.Pipeline.fuzz_iters = 150;
    trials_per_test = 6;
    seed_corpus = Harness.Pipeline.scenario_seeds ();
    jobs;
  }

(* The whole observable output of a prepared-and-executed campaign slice,
   as one string: profiles, identification and the JSON summary. *)
let campaign_digest jobs =
  let t = Harness.Pipeline.prepare (cfg_with_jobs jobs) in
  let stats =
    [
      Harness.Pipeline.run_method t
        (Core.Select.Strategy Core.Cluster.S_INS_PAIR)
        ~budget:12;
    ]
  in
  let found = [ ("campaign", Harness.Pipeline.issues_union stats) ] in
  let summary =
    Obs.Export.to_string (Harness.Report.json_summary ~pipeline:t ~stats ~found ())
  in
  (t.Harness.Pipeline.profiles, Core.Identify.num_pmcs t.Harness.Pipeline.ident,
   summary)

let test_jobs_determinism () =
  let p1, n1, s1 = campaign_digest 1 in
  List.iter
    (fun jobs ->
      let p, n, s = campaign_digest jobs in
      checkb
        (Printf.sprintf "profiles identical at jobs=%d" jobs)
        true (p = p1);
      checki (Printf.sprintf "same PMC count at jobs=%d" jobs) n1 n;
      checks (Printf.sprintf "byte-identical summary at jobs=%d" jobs) s1 s)
    [ 2; 4 ]

(* profile_corpus at several [jobs] against the inline run, including
   the guest-step accounting *)
let test_parallel_profile_equal () =
  let cfg = cfg_with_jobs 1 in
  let env = Exec.make_env cfg.Harness.Pipeline.kernel in
  let corpus, _ =
    Harness.Pipeline.fuzz ~seeds:cfg.Harness.Pipeline.seed_corpus env
      ~seed:cfg.Harness.Pipeline.seed ~iters:cfg.Harness.Pipeline.fuzz_iters
  in
  let seq_profiles, seq_steps = Harness.Pipeline.profile_corpus env corpus in
  List.iter
    (fun jobs ->
      let par_profiles, par_steps =
        Harness.Pipeline.profile_corpus ~jobs env corpus
      in
      checkb
        (Printf.sprintf "profiles equal at jobs=%d" jobs)
        true (par_profiles = seq_profiles);
      checki (Printf.sprintf "steps equal at jobs=%d" jobs) seq_steps par_steps)
    [ 2; 3 ]

let qtests =
  List.map QCheck_alcotest.to_alcotest
    [ prop_dirty_restore_equivalent; prop_restore_resets_state ]

let tests =
  [
    Alcotest.test_case "dirty page counts" `Quick test_dirty_page_counts;
    Alcotest.test_case "corpus nth and find" `Quick test_corpus_nth_find;
    Alcotest.test_case "corpus sample draw" `Quick test_corpus_sample_draw;
    Alcotest.test_case "parallel profile equal" `Quick
      test_parallel_profile_equal;
    Alcotest.test_case "jobs determinism" `Slow test_jobs_determinism;
  ]

let () = Alcotest.run "perf" [ ("perf", qtests @ tests) ]
