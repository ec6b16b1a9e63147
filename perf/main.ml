(* End-to-end benchmark: one workload per process, on one domain.

     dune exec ./perf/main.exe -- --workload NAME [--seed N] [--seconds S]
       [--trace 0|1] [--scale full|smoke]

   A run repeats rounds of the workload until the next round would end
   past [--seconds] (at least one round).  It draws a fixed number of
   inputs from [--seed] (input 0 uses the seed itself as the pipeline
   seed, input i > 0 a seed drawn from (seed, i)) and cycles through
   them, so every input runs several times and the same seed always
   gives the same inputs.  An input's timings come from its fastest
   repetitions, test by test (see [best_round]): host noise only ever
   slows a test down.  Set-up stays outside the timed regions:
   each explore round prepares its pipeline afresh, and a prepare run
   boots its VM once.

   Untraced runs call only the library's public entry points and report
   the end-to-end metrics; traced runs ([--trace 1]) rebuild the loops
   from their layer calls (see traced.ml) and report the per-layer split.
   Every metric is printed as "name value unit"; the last line is one
   JSON object {correct, attempted, failed, metrics}.  A failed output
   check exits 1.  perf/README.md has the catalogue. *)

module P = Harness.Pipeline
module E = Sched.Explore
module Tr = Tracer

let kernel = Kernel.Config.v5_12_rc3

(* The explore workloads run on one fixed prepared corpus (fuzz seed 1,
   600 iterations): corpora from other fuzz seeds differ in cost per
   trial by up to a third, which would drown any per-trial change.  The
   run's seed drives the test plans and the interleavings. *)
let corpus_seed = 1
let setup_fuzz_iters = 600

type explore = {
  methods : Core.Select.method_ list;
  kind : E.kind;
  budget : int;  (** concurrent tests per method and round *)
  trials : int;  (** interleavings per test *)
  seed_corpus : bool;  (** offer the scenario programs before fuzzing *)
  floor : int list;  (** Table 2 issues every full-scale run finds *)
  inputs : int;  (** distinct round seeds a run cycles through *)
}

type workload =
  | Explore of explore
  | Prepare of { iters : int; inputs : int }

let inputs = function Explore w -> w.inputs | Prepare p -> p.inputs

let s_ins_pair = Core.Select.Strategy Core.Cluster.S_INS_PAIR

(* Issue floors, checked on the union over a run's rounds: the issues
   found in at least 98% of ~120-150 full-scale rounds (seeds 1-10).
   [inputs] leaves each input five or more repetitions in 55 seconds. *)
let workload name ~smoke =
  let pick full tiny = if smoke then tiny else full in
  match name with
  | "campaign" ->
      Explore
        {
          methods = Core.Select.all_paper_methods;
          kind = E.Snowboard;
          budget = pick 10 1;
          trials = pick 16 2;
          seed_corpus = false;
          floor = [ 2; 11; 13; 15; 16 ];
          inputs = 10;
        }
  | "explore" ->
      Explore
        {
          methods = [ s_ins_pair ];
          kind = E.Snowboard;
          budget = pick 40 2;
          trials = pick 64 4;
          seed_corpus = true;
          floor = [ 13 ];
          inputs = 4;
        }
  | "blind" ->
      Explore
        {
          methods = [ s_ins_pair ];
          kind = E.Pct 3;
          budget = pick 100 2;
          trials = pick 64 4;
          seed_corpus = true;
          floor = [ 11; 12; 13; 14; 15; 16 ];
          inputs = 5;
        }
  | "prepare" -> Prepare { iters = pick 3_000 300; inputs = 50 }
  | _ -> raise (Arg.Bad ("unknown workload " ^ name))

let config w =
  {
    P.default with
    P.kernel;
    seed = corpus_seed;
    fuzz_iters = setup_fuzz_iters;
    trials_per_test = w.trials;
    seed_corpus = (if w.seed_corpus then P.scenario_seeds () else []);
  }

let round_seed seed r =
  if r = 0 then seed else Random.State.bits (Random.State.make [| seed; r |])

(* Prepare rounds fuzz from seeds 1-1000, less the ten whose
   10,000-iteration corpus makes [Identify.run] blow up: 268,959 to
   2,287,287 PMCs, against at most 9,432 on the other 990, and seed 343
   did not finish within 2 GB.  A shorter fuzz pass keeps a prefix of
   that corpus, so it stays below the cliff too.  A time-bounded run
   cannot absorb the cliff; README.md records it. *)
let blowup_seeds = [ 15; 68; 150; 234; 282; 343; 389; 572; 813; 957 ]

let fuzz_seeds =
  Array.of_list
    (List.filter (fun s -> not (List.mem s blowup_seeds)) (List.init 1000 succ))

let fuzz_seed round_seed =
  fuzz_seeds.(((round_seed - 1) land max_int) mod Array.length fuzz_seeds)

let now = Tr.now_s

let out_dir = ".perf_out"

(* Nearest-rank quantile. *)
let quantile q samples =
  let a = Array.copy samples in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then 0.
  else a.(max 0 (min (n - 1) (int_of_float (Float.ceil (q *. float n)) - 1)))

let median l = quantile 0.5 (Array.of_list l)
let ratio a b = if b = 0. then 0. else a /. b

(* ------------------------------------------------------------------ *)
(* Rounds                                                               *)

(* What a round, traced or not, reports for the output checks. *)
type checked = {
  tests : int;  (** concurrent tests, or sequential tests (prepare) *)
  failed : int;  (** tests whose supervised outcome is not Ok *)
  issues : int list;
  problems : string list;  (** failed per-round checks *)
}

type round = {
  checked : checked;
  setup_s : float;
  wall_s : float;  (** timed region *)
  execs : int;  (** sequential runs + concurrent trials *)
  instr : int;
  words : float;
  lat_ms : float array;
      (** per concurrent test in run order, or per fuzz iteration on
          prepare (less the first, whose start the telemetry clock does
          not see) *)
  live_mb : float;
      (** live heap at the end of the timed region, after a full
          collection (which also keeps one round's garbage out of the
          next round) *)
  digest : string;
}

let m_instr = Obs.Metrics.counter "snowboard.vmm/instructions_retired"

let alloc_words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

(* Counters and GC words from here to [stop_region]; the VM's retired
   instructions reach the registry at run boundaries, so flush first. *)
let start_region vm =
  Vmm.Vm.flush_stats vm;
  (Obs.Metrics.counter_value m_instr, alloc_words (), now ())

let stop_region vm (instr0, words0, t0) =
  let wall = now () -. t0 in
  Vmm.Vm.flush_stats vm;
  (wall, Obs.Metrics.counter_value m_instr - instr0, alloc_words () -. words0)

(* Live major-heap words after a full collection, with [keep] - the
   round's state - still reachable. *)
let live_heap_mb keep =
  Gc.full_major ();
  let w = (Gc.quick_stat ()).Gc.live_words in
  ignore (Sys.opaque_identity keep);
  float (w * (Sys.word_size / 8)) /. 1048576.

let summary t stats =
  Harness.Report.json_summary ~pipeline:t ~stats
    ~found:[ ("campaign", P.issues_union stats) ]
    ()

let summary_path name = Filename.concat out_dir (name ^ "-summary.json")

let explore_round ~name w ~seed =
  let t0 = now () in
  let t = P.prepare (config w) in
  let t = { t with P.cfg = { t.P.cfg with P.seed } } in
  let setup_s = now () -. t0 in
  let lat = ref [] and tests = ref 0 and trials = ref 0 and failed = ref 0 in
  let vm = t.P.env.Sched.Exec.vm in
  let region = start_region vm in
  let _, _, last = region in
  let last = ref last in
  let on_result (r : P.test_result) =
    let t = now () in
    lat := ((t -. !last) *. 1e3) :: !lat;
    last := t;
    incr tests;
    trials := !trials + r.P.tr_trials;
    if not (Harness.Supervise.is_ok r.P.tr_outcome) then incr failed
  in
  let stats =
    List.map
      (fun m -> P.run_method ~kind:w.kind ~on_result t m ~budget:w.budget)
      w.methods
  in
  let json = summary t stats in
  Obs.Export.write_file (summary_path name) json;
  let wall_s, instr, words = stop_region vm region in
  {
    checked =
      { tests = !tests; failed = !failed; issues = P.issues_union stats; problems = [] };
    setup_s;
    wall_s;
    execs = !trials;
    instr;
    words;
    lat_ms = Array.of_list (List.rev !lat);
    live_mb = live_heap_mb (t, stats, json);
    digest = Digest.to_hex (Digest.string (Obs.Export.to_string json));
  }

let corpus_digest corpus ident =
  Fuzzer.Corpus.to_list corpus
  |> List.map (fun (e : Fuzzer.Corpus.entry) -> Fuzzer.Prog.to_line e.prog)
  |> List.cons (string_of_int (Core.Identify.num_pmcs ident))
  |> String.concat "\n" |> Digest.string |> Digest.to_hex

(* Prepare's floors, checked per full-scale round, sit well below the
   smallest values on the 990 pool seeds (66 entries, 982 PMCs). *)
let min_corpus = 40
let min_pmcs = 200

let prepare_problems ~smoke corpus ident =
  let size = Fuzzer.Corpus.size corpus
  and pmcs = Core.Identify.num_pmcs ident in
  if smoke || (size >= min_corpus && pmcs >= min_pmcs) then []
  else [ Printf.sprintf "corpus %d / %d PMCs below the floor" size pmcs ]

(* The prepare workload's set-up: boot the VM [boots] times (setup_s is
   the median) and keep the last one, which every round reuses.  Booting
   per round would leave one decoded image per boot in the library's
   per-image caches, so later rounds would run on a growing heap. *)
let boots = 9

let boot () =
  let timed () =
    let t0 = now () in
    let env = Sched.Exec.make_env kernel in
    (now () -. t0, env)
  in
  let runs = List.init boots (fun _ -> timed ()) in
  (median (List.map fst runs), snd (List.nth runs (boots - 1)))

(* [Pipeline.fuzz] has no per-test hook, but it ticks [Obs.Telemetry]
   once per iteration and a tick reads the telemetry clock.  With
   telemetry on, no output and an interval that never elapses, the clock
   only stamps the end of each iteration. *)
let prepare_round ~smoke ~iters ~setup_s ~env ~seed =
  let seeds = P.scenario_seeds () in
  let stamps = Array.make (iters + 1) 0 and n = ref 0 in
  let stamp () =
    if !n <= iters then stamps.(!n) <- Tr.now_ns ();
    incr n;
    0
  in
  let vm = env.Sched.Exec.vm in
  let region = start_region vm in
  Obs.Telemetry.configure ~enabled:true ~interval:max_int ();
  Obs.Telemetry.set_clock (Some stamp);
  let corpus, _ = P.fuzz ~seeds env ~seed:(fuzz_seed seed) ~iters in
  Obs.Telemetry.set_clock None;
  Obs.Telemetry.configure ~enabled:false ();
  let ticks = !n in
  let profiles, _ = P.profile_corpus env corpus in
  let ident = Core.Identify.run profiles in
  let wall_s, instr, words = stop_region vm region in
  let runs = iters + List.length seeds in
  {
    checked =
      {
        tests = runs;
        failed = 0;
        issues = [];
        problems =
          prepare_problems ~smoke corpus ident
          @
          if ticks = iters then []
          else [ Printf.sprintf "Pipeline.fuzz ticked %d times in %d iterations" ticks iters ];
      };
    setup_s;
    wall_s;
    execs = runs + Fuzzer.Corpus.size corpus;
    instr;
    words;
    lat_ms =
      Array.init (max 0 (min ticks (iters + 1) - 1)) (fun i ->
          float (stamps.(i + 1) - stamps.(i)) *. 1e-6);
    live_mb = live_heap_mb (corpus, profiles, ident);
    digest = corpus_digest corpus ident;
  }

(* The traced counterparts: the same inputs through Traced's rebuilt
   loops, each round one [Round] span. *)
let traced_explore_round tr c ~name w ~seed =
  Tr.span tr Round (fun () ->
      let t = Traced.prepare tr c (config w) in
      let t = { t with P.cfg = { t.P.cfg with P.seed } } in
      let stats =
        List.map
          (fun m -> Traced.run_method tr c t m ~kind:w.kind ~budget:w.budget)
          w.methods
      in
      Tr.span tr Summary (fun () ->
          Obs.Export.write_file (summary_path name) (summary t stats));
      let sum f = List.fold_left (fun acc (s : P.method_stats) -> acc + f s) 0 stats in
      {
        tests = sum (fun s -> s.P.executed);
        failed = sum (fun s -> s.P.executed - s.P.outcomes.P.oc_ok);
        issues = P.issues_union stats;
        problems = [];
      })

let traced_prepare_round tr c ~smoke ~iters ~env ~seed =
  Tr.span tr Round (fun () ->
      let seeds = P.scenario_seeds () in
      let corpus, _ =
        Traced.fuzz tr c ~timed_region:true ~seeds env ~seed:(fuzz_seed seed) ~iters
      in
      let _, _, ident = Traced.profile_identify tr c env corpus in
      {
        tests = iters + List.length seeds;
        failed = 0;
        issues = [];
        problems = prepare_problems ~smoke corpus ident;
      })

(* Run rounds, cycling through [inputs] round seeds, until the next one
   would end past [seconds].  Each result comes with its input's index. *)
let run_rounds ~seconds ~seed ~inputs round =
  let start = now () in
  let rec go r acc =
    let i = r mod inputs in
    let t0 = now () in
    Obs.Span.reset ();
    let x = round ~seed:(round_seed seed i) in
    let t1 = now () in
    let acc = (i, x) :: acc in
    if t1 -. start +. (t1 -. t0) > seconds then List.rev acc else go (r + 1) acc
  in
  go 0 []

(* The rounds of each input that ran, in input order. *)
let by_input rounds =
  List.sort_uniq compare (List.map fst rounds)
  |> List.map (fun i -> List.filter_map (fun (j, x) -> if i = j then Some x else None) rounds)

(* ------------------------------------------------------------------ *)
(* Statistics and output                                                *)

let cpu_s () = let t = Unix.times () in t.Unix.tms_utime +. t.Unix.tms_stime

let fastest f reps = List.fold_left (fun m r -> Float.min m (f r)) Float.infinity reps

(* An input's best round: each test's (or fuzz iteration's) smallest
   latency over the repetitions, and the smallest remainder of the timed
   region outside them.  Repetitions do the same tests in the same order
   (see [repeat_problems]), and a noise burst that covers a test in one
   repetition rarely covers it in all of them. *)
let best_round reps =
  let n = Array.length (List.hd reps).lat_ms in
  let reps = List.filter (fun r -> Array.length r.lat_ms = n) reps in
  let secs lat_ms = Array.fold_left ( +. ) 0. lat_ms /. 1e3 in
  let lat = Array.init n (fun i -> fastest (fun r -> r.lat_ms.(i)) reps) in
  (lat, fastest (fun r -> r.wall_s -. secs r.lat_ms) reps +. secs lat)

(* Timings: each input's best round, then the mean over inputs; rates
   divide the inputs' total work (the same on every repetition) by their
   total best time.  Set-up: each input's fastest set-up, then the median
   over inputs (prepare sets up once per run, from nine boots). *)
let end_to_end rounds =
  let inputs = by_input rounds and all = List.map snd rounds in
  let best = List.map best_round inputs in
  let n = float (List.length inputs) in
  let sum f l = List.fold_left (fun acc x -> acc +. f x) 0. l in
  let work f = sum (fun reps -> float (f (List.hd reps))) inputs in
  let best_s = sum snd best in
  let words = sum (fun reps -> median (List.map (fun r -> r.words) reps)) inputs in
  [
    ("setup_s", median (List.map (fastest (fun r -> r.setup_s)) inputs), "s");
    ("wall_s", best_s /. n, "s");
    ("execs_per_s", ratio (work (fun r -> r.execs)) best_s, "exec/s");
    ("instr_per_s", ratio (work (fun r -> r.instr)) best_s, "instr/s");
    ("alloc_words_per_exec", ratio words (work (fun r -> r.execs)), "words");
    ("live_heap_mb", (List.hd all).live_mb, "MiB");
    ("test_p50_ms", sum (fun (lat, _) -> quantile 0.5 lat) best /. n, "ms");
    ("test_p80_ms", sum (fun (lat, _) -> quantile 0.8 lat) best /. n, "ms");
  ]

(* Every repetition of an input must give the same output and do the
   same work. *)
let repeat_problems rounds =
  let differs r x =
    x.digest <> r.digest || x.execs <> r.execs || x.instr <> r.instr
    || Array.length x.lat_ms <> Array.length r.lat_ms
  in
  List.filter_map
    (fun reps ->
      match reps with
      | r :: rest when List.exists (differs r) rest ->
          Some (Printf.sprintf "repetitions of one input differ (digest %s)" r.digest)
      | _ -> None)
    (by_input rounds)

let per_layer tr (c : Traced.counts) ~wall =
  let traced_s = Tr.traced_s tr in
  let unit_execs, unit_instr =
    if c.trials > 0 then (c.trials, c.trial_instr) else (c.fuzz_execs, c.fuzz_instr)
  in
  let per_exec x = ratio x (float unit_execs) in
  let per_trial n = ratio (float n) (float c.trials) in
  let unit_us = Tr.unit_durations_us tr in
  List.concat_map
    (fun l ->
      [
        (Tr.name l ^ ".time_pct", 100. *. ratio (Tr.self_s tr l) traced_s, "%");
        (Tr.name l ^ ".words_per_exec", per_exec (Tr.self_words tr l), "words");
      ])
    Tr.measured
  @ [
      ("race.accesses_per_trial", per_trial c.accesses, "count");
      ("race.reports_per_trial", per_trial c.reports, "count");
      ("exec.switches_per_trial", per_trial c.switches, "count");
      ("policies.decides_per_trial", per_trial c.decides, "count");
      ("identify.incidental_candidates_per_trial", per_trial c.candidates, "count");
      ("identify.incidental_adopted_per_trial", per_trial c.adopted, "count");
      ("oracle.findings_per_trial", per_trial c.findings, "count");
      ("explore.hint_hit_frac", ratio (float c.hint_hits) (float c.hinted), "ratio");
      ("vmm.pages_per_restore", ratio (float c.pages) (float c.restores), "count");
      ("vmm.instr_per_exec", per_exec (float unit_instr), "instr");
      ("fuzzer.corpus_size", ratio (float c.corpus) (float c.fuzz_sessions), "count");
      ("identify.pmcs", ratio (float c.pmcs) (float c.idents), "count");
      ("exec.p50_us", quantile 0.5 unit_us, "us");
      ("exec.p99_us", quantile 0.99 unit_us, "us");
      ("process.cpu_frac", ratio (cpu_s ()) wall, "ratio");
      ("trace.overhead_frac", ratio c.traced_s c.reference_s -. 1., "ratio");
      ("trace.coverage", ratio (Tr.covered_s tr) traced_s, "ratio");
    ]

(* The run-level output checks: per-round problems, no failed test, and
   the workload's issue floor within the union of the rounds' issues. *)
let totals checks =
  List.fold_left (fun (t, f) c -> (t + c.tests, f + c.failed)) (0, 0) checks

let run_problems ~smoke wl checks =
  let _, failed = totals checks in
  let issues = List.concat_map (fun c -> c.issues) checks in
  let floor = match wl with Explore w when not smoke -> w.floor | _ -> [] in
  List.concat_map (fun c -> c.problems) checks
  @ (if failed > 0 then [ Printf.sprintf "%d tests failed" failed ] else [])
  @ List.filter_map
      (fun id ->
        if List.mem id issues then None
        else Some (Printf.sprintf "issue %d (in the floor) not found" id))
      floor

let json_number f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else Printf.sprintf "%.17g" f

let print_result ~correct ~attempted ~failed metrics =
  List.iter (fun (n, v, u) -> Printf.printf "%-44s %s %s\n" n (json_number v) u) metrics;
  let fields =
    List.map
      (fun (n, v, u) ->
        Printf.sprintf "%S:{\"value\":%s,\"unit\":%S}" n (json_number v) u)
      metrics
  in
  Printf.printf "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":{%s}}\n%!"
    correct attempted failed (String.concat "," fields)

(* ------------------------------------------------------------------ *)

let () =
  let name = ref "" and seed = ref 1 and seconds = ref 55. and trace = ref "0"
  and scale = ref "full" in
  Arg.parse
    [
      ("--workload", Arg.Set_string name, "NAME campaign | explore | blind | prepare");
      ("--seed", Arg.Set_int seed, "N input seed (default 1)");
      ("--seconds", Arg.Set_float seconds, "S measuring time (default 55)");
      ("--trace", Arg.Symbol ([ "0"; "1" ], ( := ) trace), " 1: per-layer trace instead of end-to-end metrics");
      ("--scale", Arg.Symbol ([ "full"; "smoke" ], ( := ) scale), " tiny budgets for a quick check");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perf/main.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--scale full|smoke]";
  let smoke = !scale = "smoke" in
  let name = !name in
  let wl =
    try workload name ~smoke
    with Arg.Bad m ->
      prerr_endline m;
      exit 2
  in
  if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755;
  let run_start = now () in
  let checks, metrics =
    if !trace = "0" then begin
      let round =
        match wl with
        | Explore w -> explore_round ~name w
        | Prepare { iters; _ } ->
            let setup_s, env = boot () in
            prepare_round ~smoke ~iters ~setup_s ~env
      in
      let rounds = run_rounds ~seconds:!seconds ~seed:!seed ~inputs:(inputs wl) round in
      let all = List.map snd rounds in
      let checks =
        { tests = 0; failed = 0; issues = []; problems = repeat_problems rounds }
        :: List.map (fun r -> r.checked) all
      in
      let issues = List.sort_uniq compare (List.concat_map (fun c -> c.issues) checks) in
      let tests, failed = totals checks in
      Printf.printf "rounds %d over %d inputs\n" (List.length rounds)
        (List.length (by_input rounds));
      Printf.printf "summary_digest %s\n" (List.hd all).digest;
      Printf.printf "issues_found %d [%s]\n" (List.length issues)
        (String.concat "," (List.map string_of_int issues));
      Printf.printf "failed_frac %g\n" (ratio (float failed) (float tests));
      let lat = Array.concat (List.map (fun r -> r.lat_ms) all) in
      Printf.printf "harness.test_p90_ms %g\nharness.test_p99_ms %g\n"
        (quantile 0.9 lat) (quantile 0.99 lat);
      Printf.printf "process.cpu_s %g (wall %g)\n" (cpu_s ()) (now () -. run_start);
      (checks, end_to_end rounds)
    end
    else begin
      let tr =
        Tr.create ~unit_layer:(match wl with Explore _ -> Tr.Trial | Prepare _ -> Fuzz_exec)
      in
      let c = Traced.counts () in
      let round =
        match wl with
        | Explore w -> traced_explore_round tr c ~name w
        | Prepare { iters; _ } ->
            let _, env = boot () in
            traced_prepare_round tr c ~smoke ~iters ~env
      in
      let checks =
        List.map snd (run_rounds ~seconds:!seconds ~seed:!seed ~inputs:(inputs wl) round)
      in
      let metrics = per_layer tr c ~wall:(now () -. run_start) in
      let path = Filename.concat out_dir (name ^ ".trace.json") in
      Tr.write tr path;
      Printf.printf "rounds %d\ntrace %s\n" (List.length checks) path;
      let coverage = ratio (Tr.covered_s tr) (Tr.traced_s tr) in
      let problems =
        List.rev c.Traced.mismatches
        @
        if smoke || coverage >= 0.95 then []
        else [ Printf.sprintf "trace coverage %.3f below 0.95" coverage ]
      in
      ({ tests = 0; failed = 0; issues = []; problems } :: checks, metrics)
    end
  in
  let problems = run_problems ~smoke wl checks in
  List.iter (fun p -> Printf.eprintf "CHECK FAILED: %s\n" p) problems;
  let correct =
    problems = [] && List.for_all (fun (_, v, _) -> Float.is_finite v) metrics
  in
  let attempted, failed = totals checks in
  print_result ~correct ~attempted ~failed metrics;
  if not correct then exit 1
