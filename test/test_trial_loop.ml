(* The explore trial loop against fixed ground: golden digests of a small
   campaign and of its per-step (PCT) trials pinned across commits, and
   the race detector and the incidental-PMC search each checked against
   the reference implementation it replaced ([Race_legacy],
   [Incidental_legacy]). *)

module Trace = Vmm.Trace
module P = Harness.Pipeline

(* ------------------------------------------------------------------ *)
(* Golden campaign digest.                                              *)

(* MD5 of a small fixed campaign: the rendered summary, then every
   trial's replay string, issues and steps.  The constant was computed on
   the commit before the trial loop was rebuilt (lean incidental search,
   flat race table); a change that alters any trial result, any replay or
   any summary byte changes it. *)
let golden = "4c28bf6f480215a39d71ad88e300c43d"

let golden_cfg =
  { P.default with P.seed = 3; fuzz_iters = 150; trials_per_test = 8; jobs = 1 }

let golden_digest () =
  let cfg = golden_cfg in
  let p = P.prepare cfg in
  let methods =
    [ Core.Select.Strategy Core.Cluster.S_INS_PAIR; Core.Select.Random_pairing ]
  in
  let stats = List.map (fun m -> P.run_method p m ~budget:8) methods in
  let b = Buffer.create 65536 in
  Buffer.add_string b
    (Obs.Export.to_string
       (Harness.Report.json_summary ~pipeline:p ~stats
          ~found:[ ("golden", P.issues_union stats) ]
          ()));
  List.iter
    (fun m ->
      let plan = P.plan_method p m ~budget:8 in
      List.iteri
        (fun i (ct : Core.Select.conc_test) ->
          let index = i + 1 in
          let kind =
            match ct.Core.Select.hint with
            | Some _ -> Sched.Explore.Snowboard
            | None -> Sched.Explore.Naive 8
          in
          let res =
            Sched.Explore.run p.P.env ~ident:(Some p.P.ident)
              ~writer:(P.prog_of_id p ct.Core.Select.writer)
              ~reader:(P.prog_of_id p ct.Core.Select.reader)
              ~hint:ct.Core.Select.hint ~kind ~trials:cfg.P.trials_per_test
              ~seed:(cfg.P.seed + (1000 * index))
              ~stop_on_bug:false ()
          in
          List.iter
            (fun (t : Sched.Explore.trial) ->
              Printf.bprintf b "\n%s %d %s [%s] %d"
                (Core.Select.method_name m) index
                (Sched.Replay.to_string t.Sched.Explore.replay)
                (String.concat ","
                   (List.map string_of_int t.Sched.Explore.issues))
                t.Sched.Explore.steps)
            res.Sched.Explore.trials)
        plan.Core.Select.tests)
    methods;
  Digest.to_hex (Digest.string (Buffer.contents b))

let test_golden () =
  Alcotest.(check string) "campaign digest equals the pinned one" golden
    (golden_digest ())

(* ------------------------------------------------------------------ *)
(* Golden per-step digest.                                              *)

(* The campaign above runs only event-only policies, which the executor
   batches.  PCT counts steps, so the executor consults it after every
   instruction, and replay playback runs the same way.  This MD5 pins
   that cadence: S-INS-PAIR's tests at budget 8 from the golden prepared
   state, explored under PCT depth 3, hashing every trial's replay
   string, issues and steps.  The constant was computed on the commit
   before per-step scheduling moved onto the threaded-code interpreter.
   Each trial is also re-recorded on [run_conc] and its trace played back
   through [Replay.replay], which must return the recorded result. *)
let golden_pct = "0edd8667b4e30aceaa9ef1f2593398ae"

let pct_depth = 3

(* [Explore]'s PCT change-point horizon. *)
let pct_est_len = 1_000

let pct_digest () =
  let cfg = golden_cfg in
  let p = P.prepare cfg in
  let env = p.P.env in
  let plan =
    P.plan_method p (Core.Select.Strategy Core.Cluster.S_INS_PAIR) ~budget:8
  in
  let b = Buffer.create 4096 in
  List.iteri
    (fun i (ct : Core.Select.conc_test) ->
      let index = i + 1 in
      let writer = P.prog_of_id p ct.Core.Select.writer
      and reader = P.prog_of_id p ct.Core.Select.reader in
      let seed = cfg.P.seed + (1000 * index) in
      let res =
        Sched.Explore.run env ~ident:(Some p.P.ident) ~writer ~reader
          ~hint:ct.Core.Select.hint ~kind:(Sched.Explore.Pct pct_depth)
          ~trials:cfg.P.trials_per_test ~seed ~stop_on_bug:false ()
      in
      List.iteri
        (fun trial (t : Sched.Explore.trial) ->
          let replay = Sched.Replay.to_string t.Sched.Explore.replay in
          Printf.bprintf b "\n%d %s [%s] %d" index replay
            (String.concat "," (List.map string_of_int t.Sched.Explore.issues))
            t.Sched.Explore.steps;
          let rng = Random.State.make [| seed + trial |] in
          let recorder =
            Sched.Replay.record
              (Sched.Policies.pct rng ~depth:pct_depth ~est_len:pct_est_len)
          in
          let recorded =
            Sched.Exec.run_conc env ~writer ~reader
              ~policy:recorder.Sched.Replay.policy ()
          in
          let trace = recorder.Sched.Replay.finish () in
          let what = Printf.sprintf "test %d trial %d" index trial in
          Alcotest.(check string)
            (what ^ ": re-recorded trace") replay
            (Sched.Replay.to_string trace);
          let replayed =
            Sched.Exec.run_conc env ~writer ~reader
              ~policy:(Sched.Replay.replay trace) ()
          in
          Alcotest.(check int)
            (what ^ ": replayed steps") recorded.Sched.Exec.cc_steps
            replayed.Sched.Exec.cc_steps;
          Alcotest.(check bool)
            (what ^ ": replay returns the recorded result") true
            (recorded = replayed))
        res.Sched.Explore.trials)
    plan.Core.Select.tests;
  Digest.to_hex (Digest.string (Buffer.contents b))

let test_golden_pct () =
  Alcotest.(check string) "per-step digest equals the pinned one" golden_pct
    (pct_digest ())

(* ------------------------------------------------------------------ *)
(* Race detector against the parent's detector.                         *)

module Race = Detectors.Race
module Layout = Vmm.Layout

(* Function names: shared strings, as the executor's attribution hands
   out, plus a fresh copy now and then. *)
let names = [| "alpha"; "beta"; "gamma"; "delta" |]

(* One access of thread [tid]: to a small hot region (so threads conflict
   and marked pairs synchronise), spread over a wide region (so a long
   stream touches enough 8-byte granules to grow the table, sometimes
   past the size a domain keeps), or on the thread's own stack or in user
   space (both ignored). *)
let gen_access nthreads =
  QCheck.Gen.(
    map
      (fun ((tid, where, off), (size_exp, write, marked), (pc, name)) ->
        let sp = Layout.stack_top tid - 256 in
        let addr =
          match where with
          | 0 | 1 | 2 | 3 -> 0x3000 + (off land 63)
          | 4 | 5 | 6 -> 0x10000 + (off * 5)
          | 7 -> sp - 64 + (off land 31)
          | _ -> Layout.user_base + (off land 255)
        in
        let ctx =
          if name < 4 then names.(name) else String.concat "" [ "fresh"; "" ]
        in
        ( {
            Trace.thread = tid;
            pc;
            addr;
            size = 1 lsl size_exp;
            kind = (if write then Trace.Write else Trace.Read);
            value = off;
            atomic = marked;
            sp;
          },
          ctx ))
      (triple
         (triple (int_bound (nthreads - 1)) (int_bound 8) (int_bound 4000))
         (triple (int_bound 3) bool (map (fun k -> k = 0) (int_bound 3)))
         (pair (int_range 1 60) (int_bound 4))))

let gen_stream nthreads =
  QCheck.Gen.(list_size (int_bound 700) (gen_access nthreads))

let gen_nthreads_stream =
  QCheck.Gen.(int_range 1 3 >>= fun n -> map (fun s -> (n, s)) (gen_stream n))

let legacy_key (r : Race_legacy.report) =
  (r.addr, r.write_pc, r.other_pc, r.other_kind, r.write_ctx, r.other_ctx)

let new_key (r : Race.report) =
  (r.addr, r.write_pc, r.other_pc, r.other_kind, r.write_ctx, r.other_ctx)

let legacy_reports nthreads stream =
  let d = Race_legacy.create ~nthreads () in
  List.iter (fun (a, ctx) -> Race_legacy.on_access d a ~ctx) stream;
  List.map legacy_key (Race_legacy.reports d)

let new_reports nthreads stream =
  let d = Race.create ~nthreads () in
  List.iter (fun (a, ctx) -> Race.on_access d a ~ctx) stream;
  let r = List.map new_key (Race.reports d) in
  assert (Race.num_reports d = List.length r);
  r

let prop_race_equals_legacy =
  QCheck.Test.make ~name:"race reports equal the parent detector's" ~count:300
    (QCheck.make gen_nthreads_stream) (fun (n, stream) ->
      new_reports n stream = legacy_reports n stream)

(* Detectors in sequence on one domain reuse its table, grown or not. *)
let prop_race_sequence =
  QCheck.Test.make ~name:"race detectors in sequence reuse the table"
    ~count:60
    (QCheck.make QCheck.Gen.(list_size (int_range 2 6) gen_nthreads_stream))
    (fun streams ->
      List.for_all (fun (n, s) -> new_reports n s = legacy_reports n s) streams)

(* Two live detectors fed interleaved: the second gets a private table.
   One abandoned mid-stream (never finished) leaves the cached table
   busy; later detectors still match the parent's. *)
let prop_race_interleaved =
  QCheck.Test.make ~name:"interleaved and abandoned race detectors" ~count:100
    (QCheck.make
       QCheck.Gen.(triple (gen_stream 2) (gen_stream 2) (gen_stream 2)))
    (fun (s1, s2, s3) ->
      let abandoned = Race.create () in
      List.iteri
        (fun i (a, ctx) -> if i < 50 then Race.on_access abandoned a ~ctx)
        s3;
      let d1 = Race.create () and d2 = Race.create () in
      let feed d s i =
        match List.nth_opt s i with
        | Some (a, ctx) -> Race.on_access d a ~ctx
        | None -> ()
      in
      for i = 0 to max (List.length s1) (List.length s2) - 1 do
        feed d1 s1 i;
        feed d2 s2 i
      done;
      let r2 = List.map new_key (Race.reports d2)
      and r1 = List.map new_key (Race.reports d1) in
      r1 = legacy_reports 2 s1
      && r2 = legacy_reports 2 s2
      && new_reports 2 s3 = legacy_reports 2 s3)

let test_race_finished () =
  let write =
    {
      Trace.thread = 0;
      pc = 1;
      addr = 0x3000;
      size = 4;
      kind = Trace.Write;
      value = 1;
      atomic = false;
      sp = Layout.stack_top 0 - 256;
    }
  in
  let read =
    {
      write with
      Trace.thread = 1;
      kind = Trace.Read;
      pc = 2;
      sp = Layout.stack_top 1 - 256;
    }
  in
  let d = Race.create () in
  Race.on_access d write ~ctx:"w";
  Race.on_access d read ~ctx:"r";
  let r = Race.reports d in
  Alcotest.(check int) "one race" 1 (List.length r);
  Alcotest.(check bool) "reports is repeatable" true (Race.reports d = r);
  Alcotest.check_raises "feeding a finished detector"
    (Invalid_argument "Race.on_access: reports already taken") (fun () ->
      Race.on_access d write ~ctx:"w");
  (* the finished detector's table serves the next one, which starts
     empty, and the first detector's reports survive the reuse *)
  let d' = Race.create () in
  Race.on_access d' read ~ctx:"r";
  Alcotest.(check int) "a reused table starts empty" 0
    (List.length (Race.reports d'));
  Alcotest.(check bool) "first reports unchanged" true (Race.reports d = r)

(* ------------------------------------------------------------------ *)
(* Incidental-PMC search against the parent's predicate order.          *)

let sp0 = Layout.stack_top 0 - 256

let gen_pmc_access =
  QCheck.Gen.(
    map
      (fun ((pc, base, size_exp), (value, write)) ->
        let size = 1 lsl size_exp in
        {
          Trace.thread = 0;
          pc;
          addr = 0x3000 + base;
          size;
          kind = (if write then Trace.Write else Trace.Read);
          value = value land ((1 lsl (8 * size)) - 1);
          atomic = false;
          sp = sp0;
        })
      (pair
         (triple (int_range 1 30) (int_range 0 48) (int_range 0 3))
         (pair (int_bound 512) bool)))

(* Live accesses are mostly the profiled ones, so that many PMCs match
   both sides; [wpicks] and [rpicks] index into the profiled accesses with
   replacement, so live write lists repeat entries. *)
let gen_incidental_case =
  QCheck.Gen.(
    quad
      (list_size (int_range 1 4) (list_size (int_range 1 25) gen_pmc_access))
      (pair (list_size (int_bound 40) nat) (list_size (int_bound 30) nat))
      (pair
         (list_size (int_bound 5) gen_pmc_access)
         (list_size (int_bound 5) gen_pmc_access))
      (pair (int_bound 3) nat))

let prop_incidental_equals_legacy =
  QCheck.Test.make ~name:"find_incidental equals the parent's order" ~count:300
    (QCheck.make gen_incidental_case)
    (fun (raw, (wpicks, rpicks), (wextra, rextra), (modulus, salt)) ->
      let profiles =
        List.mapi (fun i accs -> Core.Profile.of_accesses ~test_id:i accs) raw
      in
      let ident = Core.Identify.run profiles in
      let profiled = Array.of_list (List.concat raw) in
      let pick k = profiled.(k mod Array.length profiled) in
      let writes = List.map pick wpicks @ wextra
      and reads = List.map pick rpicks @ rextra in
      (* a pure, salted subset of the PMCs; modulus 0 excludes none *)
      let exclude p =
        modulus > 0
        && Hashtbl.hash (salt, Core.Pmc.hash p) mod (modulus + 1) = 0
      in
      let expected =
        Incidental_legacy.find_incidental ident ~writes ~reads ~exclude
      in
      let got = Core.Identify.find_incidental ident ~writes ~reads ~exclude in
      List.equal Core.Pmc.equal expected got)

(* [Pmc.equal] compares field by field; it must agree with the
   structural equality it replaced.  Tiny field ranges make equal pairs
   and one-field differences common. *)
let prop_pmc_equal_structural =
  let side =
    QCheck.Gen.(
      map
        (fun (ins, addr, size, value) -> { Core.Pmc.ins; addr; size; value })
        (quad (int_bound 1) (int_bound 1) (int_bound 1) (int_bound 1)))
  in
  let pmc =
    QCheck.Gen.(
      map
        (fun (write, read, df_leader) -> Core.Pmc.make ~write ~read ~df_leader)
        (triple side side bool))
  in
  QCheck.Test.make ~name:"Pmc.equal is structural equality" ~count:500
    (QCheck.make QCheck.Gen.(pair pmc pmc))
    (fun (a, b) -> Core.Pmc.equal a b = (a = b))

let () =
  Alcotest.run "trial loop"
    [
      ( "golden",
        [
          Alcotest.test_case "campaign digest" `Quick test_golden;
          Alcotest.test_case "per-step digest" `Quick test_golden_pct;
        ] );
      ( "race oracle",
        [
          QCheck_alcotest.to_alcotest prop_race_equals_legacy;
          QCheck_alcotest.to_alcotest prop_race_sequence;
          QCheck_alcotest.to_alcotest prop_race_interleaved;
          Alcotest.test_case "finished detector" `Quick test_race_finished;
        ] );
      ( "incidental oracle",
        [
          QCheck_alcotest.to_alcotest prop_incidental_equals_legacy;
          QCheck_alcotest.to_alcotest prop_pmc_equal_structural;
        ] );
    ]
