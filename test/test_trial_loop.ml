(* The explore trial loop against fixed ground: golden digests of a small
   campaign, of its per-step (PCT) trials and of the other trial drivers
   pinned across commits; the race detector and the incidental-PMC
   search each checked against the reference implementation it replaced
   ([Race_legacy], [Incidental_legacy]); and the readers of a run's
   shared-access log against the list forms they replaced, over
   [run_conc]'s list view. *)

module Trace = Vmm.Trace
module P = Harness.Pipeline

(* ------------------------------------------------------------------ *)
(* Golden campaign digest.                                              *)

(* MD5 of a small fixed campaign: the rendered summary, then every
   trial's replay string, issues and steps.  The constant was computed on
   the commit before the trial loop was rebuilt (lean incidental search,
   flat race table), and re-pinned once when batched traces dropped their
   per-instruction '0's: with every replay string mapped to its first
   thread and switch count, the hashed text is the earlier one.  A change
   that alters any trial result, any replay or any summary byte changes
   it.  The summary's campaign runs at [jobs] 1 and 2; both must hash to
   the constant. *)
let golden = "16c9f023ce43ba84d0dd2c954259adb1"

let golden_cfg =
  { P.default with P.seed = 3; fuzz_iters = 150; trials_per_test = 8; jobs = 1 }

let golden_digest ~jobs () =
  let cfg = { golden_cfg with P.jobs } in
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
  List.iter
    (fun jobs ->
      Alcotest.(check string)
        (Printf.sprintf "campaign digest at jobs=%d equals the pinned one" jobs)
        golden (golden_digest ~jobs ()))
    [ 1; 2 ]

(* ------------------------------------------------------------------ *)
(* Golden per-step digest.                                              *)

(* The campaign above runs only event-only policies, which the executor
   batches.  PCT counts steps, so the executor consults it after every
   instruction, and its traces replay the same way.  This MD5 pins
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

let outcome = Testutil.Conc_outcome.outcome

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
            (outcome recorded = outcome replayed))
        res.Sched.Explore.trials)
    plan.Core.Select.tests;
  Digest.to_hex (Digest.string (Buffer.contents b))

let test_golden_pct () =
  Alcotest.(check string) "per-step digest equals the pinned one" golden_pct
    (pct_digest ())

(* ------------------------------------------------------------------ *)
(* Golden selection digest.                                             *)

(* The campaign digest runs two methods.  This MD5 pins all eleven
   paper methods' plans at budget 6 from the golden prepared state
   (cluster count, then writer, reader and hint of every test), then the
   provenance artifact and the frontier block after all eleven ran:
   selection, cluster ids, verdicts and untested-whys.  The constant was
   computed on commit 86d3528, while selection, the frontier and
   provenance each clustered the identification on their own. *)
let golden_selection = "36b4e97cb825fb7d8f8740b7020a6b71"

let selection_budget = 6

let hist_count strategy =
  Obs.Metrics.hist_count
    (Obs.Metrics.histogram ~unit_:"pmcs"
       ("snowboard.core/cluster_size." ^ Core.Cluster.name strategy))

(* One prepared golden campaign, all eleven methods run: the digest
   input, the pipeline, each strategy's cluster count right after
   [prepare], and how many cluster sizes each histogram gained. *)
let selection_campaign =
  lazy
    (let before = List.map (fun s -> (s, hist_count s)) Core.Cluster.all in
     let p = P.prepare golden_cfg in
     let clusters = Harness.Frontier.frontier p.P.frontier in
     let b = Buffer.create 65536 in
     List.iter
       (fun m ->
         let plan = P.plan_method p m ~budget:selection_budget in
         Printf.bprintf b "%s %d\n" (Core.Select.method_name m)
           plan.Core.Select.num_clusters;
         List.iter
           (fun (ct : Core.Select.conc_test) ->
             Printf.bprintf b "  %d %d %s\n" ct.Core.Select.writer
               ct.Core.Select.reader
               (match ct.Core.Select.hint with
               | None -> "-"
               | Some pmc -> Format.asprintf "%a" Core.Pmc.pp pmc))
           plan.Core.Select.tests;
         ignore (P.run_method p m ~budget:selection_budget))
       Core.Select.all_paper_methods;
     Buffer.add_string b
       (Obs.Export.to_string
          (Harness.Provenance.json p.P.prov ~frontier:p.P.frontier));
     Buffer.add_string b
       (Obs.Export.to_string (Harness.Frontier.json p.P.frontier));
     let observed =
       List.map (fun (s, n) -> (s, hist_count s - n)) before
     in
     (Digest.to_hex (Digest.string (Buffer.contents b)), p, clusters, observed))

let test_golden_selection () =
  let digest, _, _, _ = Lazy.force selection_campaign in
  Alcotest.(check string) "selection digest equals the pinned one"
    golden_selection digest

(* Each strategy is clustered once per campaign: planning every method
   and writing the provenance artifact add no cluster sizes to the
   exported histograms. *)
let test_one_clustering () =
  let _, _, clusters, observed = Lazy.force selection_campaign in
  List.iter
    (fun (s, n) ->
      Alcotest.(check int)
        (Core.Cluster.name s ^ " histogram holds one size per cluster")
        (List.assoc s clusters) n)
    observed

(* A random-order plan must leave the shared uncommon-first order as it
   found it: the same strategy planned before and after it, from the
   same seed, gives the same plan. *)
let test_random_order_shares_nothing () =
  let _, p, _, _ = Lazy.force selection_campaign in
  let plan m = (P.plan_method p m ~budget:selection_budget).Core.Select.tests in
  let s = Core.Select.Strategy Core.Cluster.S_INS_PAIR in
  let first = plan s in
  ignore (plan (Core.Select.Random_order Core.Cluster.S_INS_PAIR));
  Alcotest.(check bool) "S-INS-PAIR plans equal around a random-order plan"
    true
    (first = plan s)

(* ------------------------------------------------------------------ *)
(* Golden digest of the other trial drivers.                            *)

(* The two digests above cover [Explore.run].  This MD5 pins the other
   drivers of a checked trial: bounded enumeration (scenario 13 at bound
   2 on the buggy and the fixed kernel, scenario 16 at bound 1), the
   three-thread relay chain over seeds 100-103 (the last two stopping at
   their first bug), the feedback loop on the golden configuration, and
   a recorded scenario-13 trial replayed the way [snowboard explain]
   replays it (issues, then each race report's pcs and functions).  The
   constant was computed on commit 57ebb60, before these drivers shared
   one checked-trial function, and re-pinned once when batched traces
   dropped their per-instruction '0's (the replayed trial's trace string
   is hashed; mapped to its first thread and switch count, the text is
   the earlier one). *)
let golden_drivers = "f7954efa5cccac232c0f2b0011c1c5c6"

let buggy_env = lazy (Sched.Exec.make_env Kernel.Config.all_buggy)

let scenario id =
  match Harness.Scenarios.find id with
  | Some s -> s
  | None -> Alcotest.failf "scenario %d missing" id

let ints l = String.concat "," (List.map string_of_int l)

let enumerate_lines b =
  let fixed = Sched.Exec.make_env Kernel.Config.all_fixed in
  List.iter
    (fun (name, env, id, bound) ->
      let s = scenario id in
      let r =
        Sched.Enumerate.run (Lazy.force env) ~writer:s.Harness.Scenarios.writer
          ~reader:s.Harness.Scenarios.reader ~preemption_bound:bound ()
      in
      Printf.bprintf b "\nenumerate %s %d/%d: %d %d [%s] %s %b" name id bound
        r.Sched.Enumerate.executions r.Sched.Enumerate.decision_points
        (ints r.Sched.Enumerate.issues)
        (match r.Sched.Enumerate.first_bug_execution with
        | Some n -> string_of_int n
        | None -> "-")
        r.Sched.Enumerate.exhausted)
    [
      ("buggy", buggy_env, 13, 2);
      ("fixed", lazy fixed, 13, 2);
      ("buggy", buggy_env, 16, 1);
    ]

let chain_lines b =
  let env = Lazy.force buggy_env in
  let progs = Harness.Scenarios.relay in
  let ident, _ = Harness.Scenarios.identify env progs in
  let chain = List.hd (Core.Chain.find ident) in
  for seed = 100 to 103 do
    let r =
      Sched.Explore.run_chain env ~progs ~chain:(Some chain) ~seed
        ~stop_on_bug:(seed >= 102) ()
    in
    Printf.bprintf b "\nchain %d: %s %d" seed
      (match r.Sched.Explore.first_bug with
      | Some n -> string_of_int n
      | None -> "-")
      r.Sched.Explore.total_steps;
    List.iter
      (fun (t : Sched.Explore.trial) ->
        Printf.bprintf b "\n  [%s] %d %s" (ints t.Sched.Explore.issues)
          t.Sched.Explore.steps
          (String.concat "; "
             (List.map
                (fun (f : Detectors.Oracle.finding) ->
                  Format.asprintf "%a" Detectors.Oracle.pp_kind
                    f.Detectors.Oracle.kind)
                t.Sched.Explore.findings)))
      r.Sched.Explore.trials
  done

let feedback_lines b =
  let r =
    Harness.Feedback.run (P.prepare golden_cfg) ~budget:6 ~trials:4 ~seed:5
  in
  Printf.bprintf b "\nfeedback: %d %d [%s] [%s]" r.Harness.Feedback.executed
    r.Harness.Feedback.comm_coverage
    (String.concat ","
       (List.map
          (fun (i, t) -> Printf.sprintf "%d@%d" i t)
          r.Harness.Feedback.issues))
    (ints r.Harness.Feedback.coverage_curve)

(* The first trial of scenario 13's first hinted exploration that finds
   its issue, replayed from its trace with the race detector and the
   oracle attached. *)
let explain_lines b =
  let env = Lazy.force buggy_env in
  let s = scenario 13 in
  let ident, hints =
    Harness.Scenarios.identify env (Harness.Scenarios.progs s)
  in
  let writer = s.Harness.Scenarios.writer
  and reader = s.Harness.Scenarios.reader in
  let r =
    Sched.Explore.run env ~ident:(Some ident) ~writer ~reader
      ~hint:(Some (List.hd hints)) ~kind:Sched.Explore.Snowboard ~trials:64
      ~seed:1 ()
  in
  let t =
    match
      List.find_opt
        (fun (t : Sched.Explore.trial) -> List.mem 13 t.Sched.Explore.issues)
        r.Sched.Explore.trials
    with
    | Some t -> t
    | None -> Alcotest.fail "scenario 13 not reproduced"
  in
  let c =
    Sched.Explore.check env ~progs:[| writer; reader |]
      ~policy:(Sched.Replay.replay t.Sched.Explore.replay)
      ()
  in
  Printf.bprintf b "\nexplain %s: [%s]"
    (Sched.Replay.to_string t.Sched.Explore.replay)
    (ints (Detectors.Oracle.issues c.Sched.Explore.findings));
  List.iter
    (fun (r : Detectors.Race.report) ->
      Printf.bprintf b "\n  %d %s / %d %s" r.Detectors.Race.write_pc
        r.Detectors.Race.write_ctx r.Detectors.Race.other_pc
        r.Detectors.Race.other_ctx)
    c.Sched.Explore.races

let drivers_digest () =
  let b = Buffer.create 16384 in
  enumerate_lines b;
  chain_lines b;
  feedback_lines b;
  explain_lines b;
  Digest.to_hex (Digest.string (Buffer.contents b))

let test_golden_drivers () =
  Alcotest.(check string) "drivers digest equals the pinned one"
    golden_drivers (drivers_digest ())

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

(* The campaign's shape, where the detector's whole-granule path runs:
   mostly aligned 8-byte accesses, about half of them on four hot
   granules, the rest spread over enough granules to grow the table
   (twice, at the longest) while its slots are still uniform; some
   marked store -> load pairs across threads on one granule; and now
   and then a 1-, 2-, 4- or 8-byte access at any offset of a hot
   granule, which splits it and perhaps its neighbour. *)
let gen_campaign_access nthreads =
  QCheck.Gen.(
    map
      (fun ( (tid, other, spread),
             (g, narrow, off),
             (write, marked, sync),
             (pc, name) ) ->
        let access tid ~write ~marked ~addr ~size =
          ( {
              Trace.thread = tid;
              pc;
              addr;
              size;
              kind = (if write then Trace.Write else Trace.Read);
              value = g;
              atomic = marked;
              sp = Layout.stack_top tid - 256;
            },
            names.(name) )
        in
        let hot = 0x3000 + (8 * (g land 3)) in
        let base = if spread then 0x20000 + (8 * g) else hot in
        if narrow then
          [
            access tid ~write ~marked ~addr:(hot + (off land 7))
              ~size:(1 lsl (off lsr 3));
          ]
        else if sync then
          [
            access tid ~write:true ~marked:true ~addr:base ~size:8;
            access other ~write:false ~marked:true ~addr:base ~size:8;
          ]
        else [ access tid ~write ~marked ~addr:base ~size:8 ])
      (quad
         (triple (int_bound (nthreads - 1)) (int_bound (nthreads - 1)) bool)
         (triple (int_bound 399)
            (map (fun k -> k = 0) (int_bound 19))
            (int_bound 31))
         (triple
            (map (fun k -> k < 9) (int_bound 19))
            (map (fun k -> k = 0) (int_bound 3))
            (map (fun k -> k = 0) (int_bound 7)))
         (pair (int_range 1 60) (int_bound 3))))

(* A stream of [nthreads] threads' accesses, in either shape. *)
let gen_stream nthreads =
  QCheck.Gen.(
    bool >>= fun campaign ->
    if campaign then
      map List.concat
        (list_size (int_bound 600) (gen_campaign_access nthreads))
    else list_size (int_bound 700) (gen_access nthreads))

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

let trace_access ~pc ~addr ~size ~value ~write =
  {
    Trace.thread = 0;
    pc;
    addr;
    size;
    kind = (if write then Trace.Write else Trace.Read);
    value = value land ((1 lsl (8 * size)) - 1);
    atomic = false;
    sp = sp0;
  }

(* An access at a pc from [pcs], in a 56-byte region. *)
let gen_pmc_access_at pcs =
  QCheck.Gen.(
    map
      (fun ((pc, base, size_exp), (value, write)) ->
        trace_access ~pc ~addr:(0x3000 + base) ~size:(1 lsl size_exp) ~value
          ~write)
      (pair
         (triple pcs (int_range 0 48) (int_range 0 3))
         (pair (int_bound 512) bool)))

let gen_pmc_access = gen_pmc_access_at (QCheck.Gen.int_range 1 30)

(* Profiled pcs are 1-31, so a live access may also come from a pc below
   or past every slice of the index. *)
let gen_live_access =
  gen_pmc_access_at
    QCheck.Gen.(
      frequency
        [
          (3, int_range 1 31);
          (1, oneofl [ min_int; -1; 0; 32; 1000; max_int ]);
        ])

(* Writes of different sizes and values under pc 31, every one of them
   overlapping the 8 bytes at [0x3000 + base], and a live write there:
   one slice with several write ranges that one live write matches. *)
let stacked_pc = 31

let gen_stacked =
  QCheck.Gen.(
    map
      (fun (base, writes) ->
        ( List.map
            (fun (off, size_exp, value) ->
              let size = 1 lsl size_exp in
              trace_access ~pc:stacked_pc
                ~addr:(0x3000 + base + off - size + 1)
                ~size ~value ~write:true)
            writes,
          trace_access ~pc:stacked_pc ~addr:(0x3000 + base) ~size:8 ~value:0
            ~write:true ))
      (pair (int_range 7 48)
         (list_size (int_range 2 6)
            (triple (int_bound 7) (int_bound 3) (int_bound 512)))))

(* Live accesses are mostly the profiled ones, so that many PMCs match
   both sides; [wpicks] and [rpicks] index into the profiled accesses with
   replacement, so live write lists repeat entries, and either list mixes
   kinds, as a thread's accesses do. *)
let gen_incidental_case =
  QCheck.Gen.(
    pair
      (quad
         (list_size (int_range 1 4) (list_size (int_range 1 25) gen_pmc_access))
         (pair (list_size (int_bound 40) nat) (list_size (int_bound 30) nat))
         (pair
            (list_size (int_bound 5) gen_live_access)
            (list_size (int_bound 5) gen_live_access))
         (pair (int_bound 3) nat))
      (opt gen_stacked))

let prop_incidental_equals_legacy =
  QCheck.Test.make ~name:"find_incidental equals the parent's order" ~count:300
    (QCheck.make gen_incidental_case)
    (fun ( (raw, (wpicks, rpicks), (wextra, rextra), (modulus, salt)),
           stacked ) ->
      let raw, wextra =
        match stacked with
        | None -> (raw, wextra)
        | Some (writes, live) -> (writes :: raw, live :: wextra)
      in
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

(* ------------------------------------------------------------------ *)
(* The log readers against the list forms they replaced.                *)

module Exec = Sched.Exec
module Explore = Sched.Explore
module Vm = Vmm.Vm

(* The parent's list-shaped readers, over [run_conc]'s per-thread lists. *)
let observes pmc (a : Trace.access) =
  Core.Pmc.matches_read pmc a
  && a.Trace.value <> pmc.Core.Pmc.read.Core.Pmc.value

let list_channel_exercised hint (res : Exec.conc_result) =
  match hint with
  | None -> false
  | Some pmc ->
      List.exists (Core.Pmc.matches_write pmc) res.Exec.cc_accesses.(0)
      && List.exists (observes pmc) res.Exec.cc_accesses.(1)

let list_classify_miss pmc (res : Exec.conc_result) =
  if not (List.exists (Core.Pmc.matches_write pmc) res.Exec.cc_accesses.(0))
  then Explore.miss_reason_no_write
  else if
    not (List.exists (Core.Pmc.matches_read pmc) res.Exec.cc_accesses.(1))
  then Explore.miss_reason_no_read
  else Explore.miss_reason_value

let list_last_write (res : Exec.conc_result) =
  List.fold_left
    (fun acc (a : Trace.access) ->
      if a.Trace.kind = Trace.Write then (a.Trace.pc, a.Trace.addr) else acc)
    (-1, -1) res.Exec.cc_accesses.(0)

let list_comm_pairs (res : Exec.conc_result) =
  let pairs = Hashtbl.create 64 in
  let scan wt rt =
    List.iter
      (fun (w : Trace.access) ->
        if w.Trace.kind = Trace.Write then
          List.iter
            (fun (r : Trace.access) ->
              if r.Trace.kind = Trace.Read && Trace.overlaps w r then
                Hashtbl.replace pairs (w.Trace.pc, r.Trace.pc) ())
            res.Exec.cc_accesses.(rt))
      res.Exec.cc_accesses.(wt)
  in
  scan 0 1;
  scan 1 0;
  pairs

(* A table's keys in its own iteration order: equal tables filled by the
   same sequence of [replace] calls list them alike. *)
let keys h = Hashtbl.fold (fun k () acc -> k :: acc) h []

(* A trial: a scenario's programs or a generated pair, under one of four
   policies from a seed.  Snowboard's (hinted with the pair's first
   PMC, if any) and the naive one are event-only; PCT and Snowboard's
   with [event_only] forced off run per step. *)
type source = Scenario of int | Generated of int

let gen_log_case =
  QCheck.Gen.(
    triple
      (oneof
         [
           map
             (fun i -> Scenario i)
             (int_bound (List.length Harness.Scenarios.all - 1));
           map (fun s -> Generated s) nat;
         ])
      (int_bound 3) nat)

let print_log_case (src, kind, seed) =
  Printf.sprintf "%s, policy %d, seed %d"
    (match src with
    | Scenario i ->
        Printf.sprintf "scenario #%d"
          (List.nth Harness.Scenarios.all i).Harness.Scenarios.issue
    | Generated s -> Printf.sprintf "generated pair %d" s)
    kind seed

let log_case_progs = function
  | Scenario i -> Harness.Scenarios.progs (List.nth Harness.Scenarios.all i)
  | Generated s ->
      let rng = Random.State.make [| s |] in
      let writer = Fuzzer.Gen.generate rng in
      [| writer; Fuzzer.Gen.generate rng |]

(* A fresh policy of kind [kind] from [seed]: two calls make the same
   decisions. *)
let log_case_policy ~kind ~seed ~hint =
  let rng = Random.State.make [| seed |] in
  match kind with
  | 0 -> Sched.Policies.snowboard rng (Sched.Policies.snowboard_state hint)
  | 1 -> Sched.Policies.naive rng ~period:4
  | 2 -> Sched.Policies.pct rng ~depth:3 ~est_len:pct_est_len
  | _ ->
      let p =
        Sched.Policies.snowboard rng (Sched.Policies.snowboard_state hint)
      in
      { p with Exec.event_only = false }

(* The sink every concurrent run executes into, as [decide] last saw it:
   one per domain, so after a run it still holds the run's last block. *)
let last_sink : Vm.sink option ref = ref None

(* [p], also recording, at each consultation, the shared accesses of the
   block just run as [Vm.sink_access] builds them.  A shared access ends
   its block, so every block with one is consulted, except a panicking
   trial's last. *)
let sink_recording (p : Exec.policy) =
  let seen = ref [] in
  let decide tid (sk : Vm.sink) =
    last_sink := Some sk;
    for k = 0 to sk.Vm.sk_n_acc - 1 do
      if sk.Vm.sk_acc_shared.(k) then
        seen := Vm.sink_access sk ~thread:tid k :: !seen
    done;
    p.Exec.decide tid sk
  in
  ({ p with Exec.decide }, seen)

let fail_log what = QCheck.Test.fail_reportf "%s" what

(* The list view and the [on_access] stream equal, field for field, the
   records [Vm.sink_access] builds from the blocks the run consulted on,
   plus, after a panic, the last block's shared accesses. *)
let check_list_view (res : Exec.conc_result) ~seen ~stream =
  let expected = List.rev seen in
  let stream_accs = List.map fst stream in
  let n = List.length expected in
  if List.filteri (fun i _ -> i < n) stream_accs <> expected then
    fail_log "the list view differs from Vm.sink_access's records";
  let tail = List.filteri (fun i _ -> i >= n) stream_accs in
  (if tail <> [] then
     match (!last_sink, res.Exec.cc_panicked) with
     | Some sk, true ->
         let shared =
           List.filter
             (fun k -> sk.Vm.sk_acc_shared.(k))
             (List.init sk.Vm.sk_n_acc Fun.id)
         in
         if
           List.length shared <> List.length tail
           || not
                (List.for_all2
                   (fun k (a : Trace.access) ->
                     Vm.sink_access sk ~thread:a.Trace.thread k = a)
                   shared tail)
         then fail_log "the panicking block's accesses differ"
     | _ -> fail_log "accesses past the last consulted block");
  for tid = 0 to 1 do
    if
      List.filter (fun (a : Trace.access) -> a.Trace.thread = tid) stream_accs
      <> res.Exec.cc_accesses.(tid)
    then fail_log "the per-thread lists differ from the on_access stream"
  done;
  let lg = Trace.read_view res.Exec.cc_log in
  if
    List.init lg.Trace.len (fun i -> (Trace.entry lg i, lg.Trace.l_ctx.(i)))
    <> stream
  then fail_log "the on_access stream differs from the log"

let prop_log_readers =
  QCheck.Test.make ~name:"log readers equal their list forms" ~count:30
    (QCheck.make ~print:print_log_case gen_log_case)
    (fun (src, kind, seed) ->
      let env = Lazy.force buggy_env in
      let progs = log_case_progs src in
      let ident, hints = Harness.Scenarios.identify env progs in
      let hint = match hints with p :: _ -> Some p | [] -> None in
      let writer = progs.(0) and reader = progs.(1) in
      (* the checked trial first: the detector reads its log *)
      let checked =
        Explore.check env ~progs ~policy:(log_case_policy ~kind ~seed ~hint) ()
      in
      let policy, seen = sink_recording (log_case_policy ~kind ~seed ~hint) in
      let stream = ref [] in
      let observer =
        {
          Exec.default_observer with
          Exec.on_access = (fun a ~ctx -> stream := (a, ctx) :: !stream);
        }
      in
      let res = Exec.run_conc env ~writer ~reader ~policy ~observer () in
      let stream = List.rev !stream in
      if res.Exec.cc_steps <> checked.Explore.run.Exec.cc_steps then
        fail_log "the checked trial and its list-view rerun differ";
      check_list_view res ~seen:!seen ~stream;
      (* the detector, fed from the log, against the parent's on the
         stream *)
      let legacy = Race_legacy.create () in
      List.iter (fun (a, ctx) -> Race_legacy.on_access legacy a ~ctx) stream;
      if
        List.map new_key checked.Explore.races
        <> List.map legacy_key (Race_legacy.reports legacy)
      then fail_log "race reports differ";
      (* the incidental search, order and multiplicity included *)
      let exclude p = Hashtbl.hash (seed, Core.Pmc.hash p) mod 4 = 0 in
      let a0 = res.Exec.cc_accesses.(0) and a1 = res.Exec.cc_accesses.(1) in
      let listed =
        Incidental_legacy.find_incidental ident ~writes:a0 ~reads:a1 ~exclude
        @ Incidental_legacy.find_incidental ident ~writes:a1 ~reads:a0 ~exclude
      in
      let logged =
        Core.Identify.find_incidental_log ident res.Exec.cc_log ~writer:0
          ~reader:1 ~exclude
          (Core.Identify.find_incidental_log ident res.Exec.cc_log ~writer:1
             ~reader:0 ~exclude [])
      in
      if not (List.equal Core.Pmc.equal listed logged) then
        fail_log "incidental searches differ";
      (* the hinted-trial readers, for the pair's hints and some more *)
      let pmcs =
        hints
        @ Core.Identify.fold
            (fun p _ acc -> if List.length acc < 8 then p :: acc else acc)
            ident []
      in
      if Explore.channel_exercised None res then
        fail_log "exercised without a hint";
      List.iter
        (fun pmc ->
          if
            Explore.channel_exercised (Some pmc) res
            <> list_channel_exercised (Some pmc) res
          then fail_log "channel_exercised differs";
          if Explore.classify_miss pmc res <> list_classify_miss pmc res then
            fail_log "classify_miss differs")
        pmcs;
      if Explore.last_write res <> list_last_write res then
        fail_log "last_write differs";
      if
        keys (Harness.Feedback.comm_pairs res) <> keys (list_comm_pairs res)
      then fail_log "comm_pairs differ";
      true)

let () =
  Alcotest.run "trial loop"
    [
      ( "golden",
        [
          Alcotest.test_case "campaign digest" `Quick test_golden;
          Alcotest.test_case "per-step digest" `Quick test_golden_pct;
          Alcotest.test_case "drivers digest" `Quick test_golden_drivers;
          Alcotest.test_case "selection digest" `Quick test_golden_selection;
        ] );
      ( "clustering",
        [
          Alcotest.test_case "one clustering per campaign" `Quick
            test_one_clustering;
          Alcotest.test_case "random order leaves the shared order" `Quick
            test_random_order_shares_nothing;
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
      ("log readers", [ QCheck_alcotest.to_alcotest prop_log_readers ]);
    ]
