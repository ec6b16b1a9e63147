(* The snowboard command-line interface.

   Exposes the pipeline stages individually (fuzz, profile/identify,
   campaign) plus per-issue reproduction, mirroring how the paper's
   artifact is driven.  See README.md for a tour. *)

open Cmdliner

let pf = Format.printf

let fail_cli fmt =
  Format.kasprintf
    (fun msg ->
      Format.eprintf "snowboard: %s@." msg;
      exit 1)
    fmt

(* Count options parse as any int (Cmdliner takes a negative one as
   [--flag=-N]); a value below [least] exits 1 before any phase runs. *)
let check_at_least flag ~least v =
  if v < least then fail_cli "%s must be %d or more (got %d)" flag least v

(* Worker domains log too (a test's supervision warning), and the
   format reporter's formatter is not domain-safe. *)
let setup_logs ?(debug = false) ?(info = false) () =
  let m = Mutex.create () in
  Logs.set_reporter_mutex
    ~lock:(fun () -> Mutex.lock m)
    ~unlock:(fun () -> Mutex.unlock m);
  Logs.set_reporter (Logs.format_reporter ());
  Logs.set_level
    (if debug then Some Logs.Debug
     else if info then Some Logs.Info
     else Some Logs.Warning)

(* ---------------- observability options ---------------- *)

(* Every subcommand accepts --stats (print the metrics table on exit) and
   --metrics-out FILE (write the registry + phase spans as JSON).  The
   artifact is written from an [at_exit] hook so early [exit 1]/[exit 2]
   paths (repro failures, verify findings) still produce it. *)

type obs = { metrics_out : string option; stats : bool }

(* Extra top-level JSON fields contributed by the running subcommand
   (campaign adds its table 2/3 summary); read when the artifact is
   written. *)
let obs_extra : (string * Obs.Export.json) list ref = ref []

let finish_obs obs =
  if obs.stats then pf "@.%s@." (Obs.Export.table ());
  match obs.metrics_out with
  | Some path -> (
      try
        Obs.Export.write_file ~site:"metrics" path
          (Obs.Export.registry_json ~extra:!obs_extra ());
        Format.eprintf "metrics written to %s@." path
      with Sys_error msg ->
        Format.eprintf "snowboard: cannot write metrics artifact: %s@." msg)
  | None -> ()

let metrics_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics-out" ] ~docv:"FILE"
        ~doc:
          "Write every metric and pipeline-phase span as a JSON artifact to \
           $(docv) on exit.")

let stats_arg =
  Arg.(
    value & flag
    & info [ "stats" ] ~doc:"Print the metrics table and span tree on exit.")

let obs_term =
  let combine metrics_out stats =
    let obs = { metrics_out; stats } in
    if obs.metrics_out <> None || obs.stats then
      at_exit (fun () -> finish_obs obs);
    obs
  in
  Term.(const combine $ metrics_out_arg $ stats_arg)

(* ---------------- live telemetry options ---------------- *)

(* campaign/diagnose/repro additionally accept the live-telemetry family:
   --telemetry-out FILE streams NDJSON snapshots, --progress shows a live
   HUD (plain periodic lines off a TTY), --deterministic switches the
   snapshot cadence to the virtual clock and scrubs wall-derived values
   so two runs of the same configuration produce byte-identical streams,
   and --openmetrics-out FILE writes a Prometheus-scrapable text
   exposition on exit (point a node_exporter textfile collector, or any
   scraper of static files, at it). *)

type telem = { telem_deterministic : bool }

let telemetry_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "telemetry-out" ] ~docv:"FILE"
        ~doc:
          "Stream live telemetry snapshots (NDJSON, one JSON object per \
           line) to $(docv): counter totals and deltas, gauges, histogram \
           summaries, flight-recorder stats and the PMC-cluster coverage \
           frontier.")

let progress_arg =
  Arg.(
    value & flag
    & info [ "progress" ]
        ~doc:
          "Live progress display on stderr: an ANSI HUD (phase, ETA, \
           trials/s, instr/s, per-strategy coverage bars) when stderr is a \
           TTY, degrading to plain periodic lines otherwise.")

let deterministic_arg =
  Arg.(
    value & flag
    & info [ "deterministic" ]
        ~doc:
          "Deterministic telemetry: snapshots on a virtual-clock cadence \
           (guest instructions) with wall-derived values scrubbed, so \
           --telemetry-out streams are byte-identical across runs of the \
           same configuration.")

let telemetry_interval_arg =
  Arg.(
    value
    & opt int Obs.Telemetry.default_interval
    & info [ "telemetry-interval" ] ~docv:"INSTR"
        ~doc:
          "Deterministic snapshot cadence: guest instructions between \
           snapshots (with --deterministic).")

let telemetry_period_arg =
  Arg.(
    value
    & opt float Obs.Telemetry.default_period
    & info [ "telemetry-period" ] ~docv:"SECONDS"
        ~doc:"Wall-clock snapshot cadence (without --deterministic).")

let openmetrics_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "openmetrics-out" ] ~docv:"FILE"
        ~doc:
          "Write the final metrics registry as OpenMetrics/Prometheus text \
           exposition to $(docv) on exit.")

let telemetry_term =
  let combine out progress deterministic interval period om_out =
    (* [at_exit] runs hooks last-registered first: registering the
       OpenMetrics writer before the stream's close makes the stream
       end before that write, so it does not depend on which other
       exporters run *)
    (match om_out with
    | Some path ->
        at_exit (fun () ->
            match
              Obs.Storage.write_atomic ~site:"openmetrics" ~path
                (Obs.Export.openmetrics ~deterministic ())
            with
            | Ok () -> Format.eprintf "openmetrics written to %s@." path
            | Error e ->
                Format.eprintf "snowboard: cannot write openmetrics: %s@."
                  (Obs.Storage.err_to_string e))
    | None -> ());
    if out <> None || progress then begin
      let progress =
        if not progress then Obs.Telemetry.Off
        else if Unix.isatty Unix.stderr then Obs.Telemetry.Hud
        else Obs.Telemetry.Plain
      in
      Obs.Telemetry.configure ?out ~progress ~deterministic ~interval ~period
        ~enabled:true ();
      at_exit Obs.Telemetry.close
    end;
    { telem_deterministic = deterministic }
  in
  Term.(
    const combine $ telemetry_out_arg $ progress_arg $ deterministic_arg
    $ telemetry_interval_arg $ telemetry_period_arg $ openmetrics_out_arg)

(* --verbose maps to [Logs.Debug] on the snowboard.* sources; the fuzz
   subcommand reuses its own --verbose flag for the same purpose. *)
let verbose_log =
  Arg.(
    value & flag
    & info [ "v"; "verbose" ]
        ~doc:"Enable debug logging on the snowboard.* log sources.")

let logging_term =
  let setup verbose = setup_logs ~debug:verbose () in
  Term.(const setup $ verbose_log)

(* ---------------- shared options ---------------- *)

let version_conv =
  let parse = function
    | "5.3.10" -> Ok Kernel.Config.v5_3_10
    | "5.12-rc3" -> Ok Kernel.Config.v5_12_rc3
    | "all-buggy" -> Ok Kernel.Config.all_buggy
    | "all-fixed" -> Ok Kernel.Config.all_fixed
    | s -> Error (`Msg (Printf.sprintf "unknown kernel version %S" s))
  in
  let print ppf _ = Format.pp_print_string ppf "<kernel version>" in
  Arg.conv (parse, print)

let version =
  Arg.(
    value
    & opt version_conv Kernel.Config.v5_12_rc3
    & info [ "kernel" ] ~docv:"VERSION"
        ~doc:
          "Guest kernel to test: 5.3.10, 5.12-rc3, all-buggy or all-fixed.")

let seed =
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"N" ~doc:"Random seed.")

let fuzz_iters =
  Arg.(
    value & opt int 600
    & info [ "fuzz-iters" ] ~docv:"N"
        ~doc:"Sequential fuzzing iterations used to build the corpus (0 or more).")

let trials =
  Arg.(
    value & opt int 16
    & info [ "trials" ] ~docv:"N"
        ~doc:
          "Interleavings explored per concurrent test, 0 or more (max 64 in \
           the paper).")

let budget =
  Arg.(
    value & opt int 150
    & info [ "budget" ] ~docv:"N"
        ~doc:"Concurrent tests per generation method (0 or more).")

(* ---------------- fuzz ---------------- *)

let run_fuzz kernel seed iters verbose out (_ : obs) =
  check_at_least "--fuzz-iters" ~least:0 iters;
  setup_logs ~debug:verbose ();
  let env = Sched.Exec.make_env kernel in
  let corpus, steps = Harness.Pipeline.fuzz env ~seed ~iters in
  pf "fuzzing: %d iterations -> corpus of %d tests, %d coverage edges, %d guest instructions@."
    iters (Fuzzer.Corpus.size corpus) (Fuzzer.Corpus.total_edges corpus) steps;
  if verbose then
    List.iter
      (fun (e : Fuzzer.Corpus.entry) ->
        pf "  test %3d (+%d edges): %s@." e.Fuzzer.Corpus.id e.Fuzzer.Corpus.new_edges
          (Fuzzer.Prog.to_string e.Fuzzer.Corpus.prog))
      (Fuzzer.Corpus.to_list corpus);
  match out with
  | Some path -> (
      match Fuzzer.Corpus.save corpus path with
      | Ok () -> pf "corpus written to %s@." path
      | Error msg -> fail_cli "cannot write corpus: %s" msg)
  | None -> ()

let verbose =
  Arg.(
    value & flag
    & info [ "v"; "verbose" ]
        ~doc:"Print every corpus entry and enable debug logging.")

let corpus_out =
  Arg.(
    value
    & opt (some string) None
    & info [ "out" ] ~docv:"FILE" ~doc:"Write the corpus to a file.")

let fuzz_cmd =
  Cmd.v
    (Cmd.info "fuzz" ~doc:"Generate a sequential test corpus (the Syzkaller role).")
    Term.(
      const run_fuzz $ version $ seed $ fuzz_iters $ verbose $ corpus_out
      $ obs_term)

(* ---------------- identify ---------------- *)

let run_identify kernel seed iters () (_ : obs) =
  check_at_least "--fuzz-iters" ~least:0 iters;
  let cfg =
    { Harness.Pipeline.default with Harness.Pipeline.kernel; seed; fuzz_iters = iters }
  in
  let t = Harness.Pipeline.prepare cfg in
  Harness.Report.pmc_summary t;
  pf "@.clusters per strategy:@.";
  List.iter
    (fun s ->
      (* uncommon-first: ascending size *)
      let c =
        Core.Cluster.clusters
          (Harness.Frontier.clusters t.Harness.Pipeline.frontier s)
      in
      let n = Array.length c in
      let median =
        if n = 0 then 0 else Array.length c.(n / 2).Core.Cluster.members
      in
      pf "  %-16s %8d clusters (median size %d)@." (Core.Cluster.name s) n median)
    Core.Cluster.all

let identify_cmd =
  Cmd.v
    (Cmd.info "identify"
       ~doc:"Fuzz, profile and identify PMCs; print clustering statistics.")
    Term.(
      const run_identify $ version $ seed $ fuzz_iters $ logging_term $ obs_term)

(* ---------------- campaign ---------------- *)

let method_conv =
  let parse s =
    match Core.Cluster.of_name s with
    | Some st -> Ok (Core.Select.Strategy st)
    | None -> (
        match s with
        | "random-s-ins-pair" -> Ok (Core.Select.Random_order Core.Cluster.S_INS_PAIR)
        | "random-pairing" -> Ok Core.Select.Random_pairing
        | "duplicate-pairing" -> Ok Core.Select.Duplicate_pairing
        | _ -> Error (`Msg (Printf.sprintf "unknown method %S" s)))
  in
  Arg.conv (parse, fun ppf _ -> Format.pp_print_string ppf "<method>")

let methods =
  Arg.(
    value
    & opt_all method_conv []
    & info [ "method" ] ~docv:"METHOD"
        ~doc:
          "Generation method(s): a Table 1 strategy name (e.g. S-INS-PAIR), \
           random-s-ins-pair, random-pairing or duplicate-pairing.  Default: \
           all eleven of the paper.")

let seed_corpus_flag =
  Arg.(
    value & flag
    & info [ "seed-corpus" ]
        ~doc:
          "Seed the fuzzing corpus with the distilled per-issue scenario \
           programs (Moonshine-style seed selection).")

(* OCaml 5.1 runs at most 128 domains, the main one included. *)
let max_jobs = 127

let jobs_arg =
  Arg.(
    value & opt int 1
    & info [ "jobs" ] ~docv:"N"
        ~doc:
          (Printf.sprintf
             "Worker domains for corpus profiling and concurrent-test \
              execution (the paper's distributed-queue analogue), 1-%d; \
              results are identical to a sequential run."
             max_jobs))

let log_verbose =
  Arg.(value & flag & info [ "log" ] ~doc:"Log pipeline phases to stderr.")

let corpus_in =
  Arg.(
    value
    & opt (some string) None
    & info [ "corpus" ] ~docv:"FILE"
        ~doc:"Seed the fuzzer with a corpus file written by 'fuzz --out'.")

(* ----- resilience options (see README "Resilience") ----- *)

let fault_conv =
  let parse s =
    match Sched.Fault.of_string s with
    | Ok spec -> Ok spec
    | Error msg -> Error (`Msg msg)
  in
  Arg.conv (parse, fun ppf s -> Format.pp_print_string ppf (Sched.Fault.to_string s))

let inject_faults_arg =
  Arg.(
    value
    & opt (some fault_conv) None
    & info [ "inject-faults" ] ~docv:"SPEC"
        ~doc:
          "Deterministically inject harness faults, e.g. \
           \"timeout:0.05,crash:0.02,truncate:0.01\" (probabilities per \
           trial).  The schedule is a pure function of the seed, so runs \
           reproduce exactly.")

let watchdog_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "watchdog" ] ~docv:"N"
        ~doc:
          "Per-trial watchdog: abort any trial past $(docv) guest steps (1 or \
           more) and record the test as timed out.")

let max_retries_arg =
  Arg.(
    value & opt int 2
    & info [ "max-retries" ] ~docv:"N"
        ~doc:
          "Retries for transient harness failures before a test is \
           quarantined (0 or more).")

let checkpoint_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "checkpoint" ] ~docv:"FILE"
        ~doc:
          "Journal every completed test to $(docv) as CRC-framed, fsynced \
           records (a crash tears at most the final frame; 'snowboard fsck' \
           inspects the file), enabling --resume.")

let resume_arg =
  Arg.(
    value & flag
    & info [ "resume" ]
        ~doc:
          "Skip tests already journaled in the --checkpoint file; the merged \
           statistics are byte-identical to an uninterrupted run.")

let stop_after_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "stop-after" ] ~docv:"N"
        ~doc:
          "Stop the campaign after $(docv) freshly executed tests (exit 10), \
           simulating an interruption; requires --jobs 1.")

let crash_at_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "crash-at" ] ~docv:"SITE:K"
        ~doc:
          "Simulate a power loss at a durable-write crashpoint: the $(i,K)-th \
           write at $(i,SITE) (e.g. checkpoint.append:3, telemetry.line:2, \
           summary:1, or any:7 for the K-th durable write overall) is torn \
           mid-payload and the process dies with exit 42, skipping every \
           at_exit hook — exactly what losing power there would leave on \
           disk.  seed:N derives a deterministic any:K placement from N.  \
           Pair with --checkpoint/--resume to prove crash recovery: the \
           resumed summary is byte-identical to an uninterrupted run's.")

let summary_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "summary-out" ] ~docv:"FILE"
        ~doc:
          "Write the campaign's JSON summary (tables 2/3, accuracy, bugs, \
           supervision outcomes) to $(docv); deterministic for a given \
           configuration.")

let flame_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "flame-out" ] ~docv:"FILE"
        ~doc:
          "Enable the guest profiler and write a collapsed-stack flamegraph \
           (one \"phase;function count\" line per frame, flamegraph.pl \
           compatible) to $(docv) on completion; byte-identical across \
           --jobs and --resume.")

let provenance_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "provenance-out" ] ~docv:"FILE"
        ~doc:
          "Write the PMC provenance artifact (snowboard-provenance/1 JSON: \
           per-PMC attribution, cluster assignments, selection verdicts and \
           Algorithm 2 hint outcomes) to $(docv) on completion; 'snowboard \
           why' reads it.  Byte-identical across --jobs and --resume.")

exception Interrupted

let run_campaign kernel seed iters trials budget methods seeded jobs
    log verbose corpus_file fault_spec watchdog max_retries
    checkpoint resume stop_after crash_at summary_out flame_out provenance_out
    (_ : telem) (_ : obs) =
  setup_logs ~debug:verbose ~info:log ();
  if jobs < 1 || jobs > max_jobs then
    fail_cli "--jobs must be in the range 1-%d (got %d)" max_jobs jobs;
  check_at_least "--fuzz-iters" ~least:0 iters;
  check_at_least "--trials" ~least:0 trials;
  check_at_least "--budget" ~least:0 budget;
  check_at_least "--max-retries" ~least:0 max_retries;
  Option.iter (check_at_least "--watchdog" ~least:1) watchdog;
  if resume && checkpoint = None then
    fail_cli "--resume requires --checkpoint FILE";
  if stop_after <> None && jobs > 1 then
    fail_cli "--stop-after requires --jobs 1 (deterministic interruption)";
  (match crash_at with
  | None -> ()
  | Some spec -> (
      match Obs.Storage.parse_crash_spec spec with
      | Error msg -> fail_cli "%s" msg
      | Ok ("seed", n) -> Obs.Storage.arm_crash_seeded ~seed:n ()
      | Ok (site, k) -> Obs.Storage.arm_crash ~site ~k ()));
  (* either artifact flag turns the guest profiler on for the whole
     campaign; reset first so repeated in-process campaigns stay clean *)
  let profiler = flame_out <> None || provenance_out <> None in
  if profiler then begin
    Obs.Profguest.reset ();
    Obs.Profguest.set_enabled true
  end;
  let faults = Option.map (fun spec -> Sched.Fault.plan ~seed spec) fault_spec in
  let sup = { Harness.Supervise.step_budget = watchdog; max_retries } in
  let seeds =
    (if seeded then Harness.Pipeline.scenario_seeds () else [])
    @ (match corpus_file with
      | Some path -> (
          match Fuzzer.Corpus.load_programs path with
          | Ok progs -> progs
          | Error msg -> fail_cli "cannot load corpus: %s" msg)
      | None -> [])
  in
  let cfg =
    {
      Harness.Pipeline.kernel;
      seed;
      fuzz_iters = iters;
      trials_per_test = trials;
      seed_corpus = seeds;
      jobs;
    }
  in
  let methods =
    match methods with [] -> Core.Select.all_paper_methods | l -> l
  in
  (* the checkpoint fingerprint covers everything that shapes the plan,
     the per-test seeds and the fault schedule, so a resume with any
     incompatible knob is refused instead of silently mixing results;
     it needs only the configuration, so the journal is checked before
     the prepare phase spends anything.  It covers the guest profiler
     too: a leg without it journals empty profiler rows, which a leg
     with it would count as its tests' whole share *)
  let fingerprint =
    Harness.Checkpoint.fingerprint ~cfg ~budget
      ~methods:(List.map Core.Select.method_name methods)
      ~extra:
        (Printf.sprintf "faults=%s watchdog=%s retries=%d profiler=%b"
           (match fault_spec with
           | None -> "none"
           | Some s -> Sched.Fault.to_string s)
           (match watchdog with
           | None -> "none"
           | Some w -> string_of_int w)
           max_retries profiler)
      ()
  in
  let journaled =
    match (resume, checkpoint) with
    | true, Some path when not (Sys.file_exists path) ->
        (* a crash before the journal header was ever durable (e.g.
           --crash-at checkpoint.header:1) leaves no file; resuming from
           nothing is just a fresh start *)
        Format.eprintf
          "snowboard: no journal at %s; starting a fresh campaign@." path;
        []
    | true, Some path -> (
        match Harness.Checkpoint.load path with
        | Error msg -> fail_cli "cannot resume: %s" msg
        | Ok (f, rc) ->
            if f.Harness.Checkpoint.ck_fingerprint <> fingerprint then
              fail_cli
                "cannot resume: %s was journaled by a different campaign \
                 configuration"
                path;
            if not (Harness.Durable.clean rc) then
              Format.eprintf
                "snowboard: journal %s recovered %d record(s), dropped a \
                 torn tail of %d record(s) / %d byte(s)%s@."
                path rc.Harness.Durable.rc_records
                rc.Harness.Durable.rc_dropped_records
                rc.Harness.Durable.rc_dropped_bytes
                (match rc.Harness.Durable.rc_reason with
                | Some why -> " (" ^ why ^ ")"
                | None -> "");
            f.Harness.Checkpoint.ck_entries)
    | _ -> []
  in
  let t = Harness.Pipeline.prepare cfg in
  Harness.Report.pmc_summary t;
  (* from here on, every telemetry snapshot carries the live coverage
     frontier, and the HUD shows per-strategy bars and a test-count ETA *)
  if Obs.Telemetry.enabled () then begin
    Obs.Telemetry.set_source
      (Some
         (fun () ->
           [ ("frontier", Harness.Frontier.json t.Harness.Pipeline.frontier) ]));
    Obs.Telemetry.set_hud
      (Some (fun () -> Harness.Frontier.hud_lines t.Harness.Pipeline.frontier));
    Obs.Telemetry.set_total (Some (budget * List.length methods))
  end;
  let sink =
    Option.map
      (fun path ->
        Harness.Checkpoint.create_sink ~path ~fingerprint ~initial:journaled)
      checkpoint
  in
  let fresh = ref 0 in
  let run m =
    let name = Core.Select.method_name m in
    let resume_fn idx =
      Harness.Checkpoint.lookup journaled ~method_:name idx
    in
    let on_result r =
      (match sink with
      | Some s -> Harness.Checkpoint.record s ~method_:name r
      | None -> ());
      incr fresh;
      match stop_after with
      | Some n when !fresh >= n -> raise Interrupted
      | _ -> ()
    in
    Harness.Pipeline.run_method ~sup ?faults ~resume:resume_fn ~on_result t m
      ~budget
  in
  match List.map run methods with
  | exception Interrupted ->
      pf "campaign interrupted after %d freshly executed tests; journal saved@."
        !fresh;
      exit 10
  | stats ->
      Harness.Report.table3 stats;
      Harness.Report.accuracy stats;
      Harness.Report.resilience stats;
      let union = Harness.Pipeline.issues_union stats in
      let found = [ ("campaign", union) ] in
      Harness.Report.table2 ~found;
      let summary =
        Harness.Report.json_summary ~pipeline:t
          ~storage_degraded:(Obs.Storage.degraded () <> [])
          ~stats ~found ()
      in
      obs_extra := [ ("summary", summary) ];
      (* artifact writes degrade gracefully: a full disk must not cost
         the campaign its console report or its exit verdict *)
      let try_write what f =
        try f ()
        with Sys_error msg ->
          Format.eprintf "snowboard: cannot write %s: %s@." what msg
      in
      (match summary_out with
      | Some path ->
          try_write "summary" (fun () ->
              Obs.Export.write_file ~site:"summary" path summary;
              pf "summary written to %s@." path)
      | None -> ());
      (* observability artifacts describe completed campaigns only — an
         interrupted run (exit 10) resumes and writes them then *)
      (match flame_out with
      | Some path ->
          try_write "flamegraph" (fun () ->
              Obs.Profguest.write_flame path;
              pf "flamegraph written to %s@." path)
      | None -> ());
      (match provenance_out with
      | Some path ->
          try_write "provenance" (fun () ->
              Harness.Provenance.write t.Harness.Pipeline.prov
                ~frontier:t.Harness.Pipeline.frontier path;
              pf "provenance written to %s@." path)
      | None -> ());
      Harness.Report.storage ();
      (* exit-code taxonomy: 3 = the harness degraded (lost work or lost
         storage), 2 = clean run that found bugs, 0 = clean and silent.
         Degradation dominates: a degraded campaign's findings are a
         lower bound. *)
      if Harness.Pipeline.degraded stats || Obs.Storage.degraded () <> [] then
        exit 3
      else if union <> [] || List.exists (fun s -> s.Harness.Pipeline.bugs <> []) stats
      then exit 2

let campaign_cmd =
  Cmd.v
    (Cmd.info "campaign"
       ~doc:"Run the full pipeline: fuzz, profile, identify, select, execute."
       ~man:
         [
           `S Manpage.s_exit_status;
           `P "0: completed cleanly, no concurrency issues found.";
           `P "2: completed cleanly and found concurrency issues.";
           `P
             "3: completed but degraded — some tests timed out, crashed or \
              were quarantined (see the supervision outcome table), or a \
              storage write exhausted its retries (ENOSPC/EIO; see the \
              storage table).";
           `P "10: interrupted by --stop-after; the checkpoint journal holds \
               the completed prefix.";
           `P "42: simulated power loss fired at the --crash-at crashpoint.";
         ])
    Term.(
      const run_campaign $ version $ seed $ fuzz_iters $ trials $ budget
      $ methods $ seed_corpus_flag $ jobs_arg $ log_verbose
      $ verbose_log
      $ corpus_in $ inject_faults_arg $ watchdog_arg $ max_retries_arg
      $ checkpoint_arg $ resume_arg $ stop_after_arg $ crash_at_arg
      $ summary_out_arg
      $ flame_out_arg $ provenance_out_arg $ telemetry_term $ obs_term)

(* ---------------- repro ---------------- *)

let issue_arg =
  Arg.(
    required
    & pos 0 (some int) None
    & info [] ~docv:"ISSUE" ~doc:"Issue id from Table 2 (1-17).")

let sched_conv =
  let parse = function
    | "snowboard" -> Ok Sched.Explore.Snowboard
    | "ski" -> Ok Sched.Explore.Ski
    | "naive" -> Ok (Sched.Explore.Naive 4)
    | "pct" -> Ok (Sched.Explore.Pct 3)
    | s -> Error (`Msg (Printf.sprintf "unknown scheduler %S" s))
  in
  Arg.conv (parse, fun ppf _ -> Format.pp_print_string ppf "<sched>")

let sched_arg =
  Arg.(
    value
    & opt sched_conv Sched.Explore.Snowboard
    & info [ "sched" ] ~docv:"S"
        ~doc:"Scheduler: snowboard, ski, pct or naive.")

let run_repro kernel seed issue sched () (_ : telem) (_ : obs) =
  match Harness.Scenarios.find issue with
  | None ->
      pf "no scenario for issue #%d@." issue;
      exit 1
  | Some s -> (
      (match Detectors.Issues.find issue with
      | Some m ->
          pf "issue #%d: %s@.  version %s, %s, %s, %s@." m.Detectors.Issues.id
            m.Detectors.Issues.summary m.Detectors.Issues.version
            (Detectors.Issues.cls_name m.Detectors.Issues.cls)
            (Detectors.Issues.status_name m.Detectors.Issues.status)
            m.Detectors.Issues.subsystem
      | None -> ());
      pf "writer: %s@.reader: %s@."
        (Fuzzer.Prog.to_string s.Harness.Scenarios.writer)
        (Fuzzer.Prog.to_string s.Harness.Scenarios.reader);
      let env = Sched.Exec.make_env kernel in
      Obs.Telemetry.phase "repro";
      let a =
        Harness.Scenarios.reproduce env s ~kind:sched ~trials:64 ~seed ()
      in
      Obs.Telemetry.tick ();
      match a.Harness.Scenarios.trials_to_expose with
      | Some n ->
          pf "reproduced: %d interleavings across %d hinted PMC(s)@." n
            a.Harness.Scenarios.hints_tried
      | None ->
          pf "not reproduced (tried %d hinted PMCs); other issues seen: %s@."
            a.Harness.Scenarios.hints_tried
            (String.concat ", "
               (List.map string_of_int a.Harness.Scenarios.other_issues));
          exit 2)

let repro_cmd =
  Cmd.v
    (Cmd.info "repro" ~doc:"Reproduce one Table 2 issue from its scenario.")
    Term.(
      const run_repro $ version $ seed $ issue_arg $ sched_arg $ logging_term
      $ telemetry_term $ obs_term)

(* ---------------- diagnose ---------------- *)

(* Reproduce an issue with [Scenarios.reproduce], then replay the trial
   that exposed it with the flight recorder on, as [explain] does, and
   print the developer-facing evidence: the replayable trace, the kernel
   console, and a post-mortem diagnosis of each data race (section 4.4.1
   and the section 6 reproduction discussion). *)
let run_diagnose kernel seed issue () (_ : telem) (_ : obs) =
  match Harness.Scenarios.find issue with
  | None ->
      pf "no scenario for issue #%d@." issue;
      exit 1
  | Some s -> (
      let env = Sched.Exec.make_env kernel in
      Obs.Telemetry.phase "diagnose";
      let a =
        Harness.Scenarios.reproduce env s ~kind:Sched.Explore.Snowboard
          ~trials:64 ~seed ()
      in
      Obs.Telemetry.tick ();
      match a.Harness.Scenarios.exposed with
      | None ->
          pf "issue #%d not reproduced in the diagnosis budget@." issue;
          exit 2
      | Some { Sched.Explore.replay = trace; _ } ->
          pf "issue #%d reproduced; deterministic replay trace (%d decisions, %d switches):@."
            issue
            (Sched.Replay.length trace)
            (Sched.Replay.num_switches trace);
          pf "  %s@." (Sched.Replay.to_string trace);
          let { Sched.Explore.run = res; races; _ }, events =
            Sched.Explore.replay env ~progs:(Harness.Scenarios.progs s) trace
          in
          List.iter (fun l -> pf "console: %s@." l) res.Sched.Exec.cc_console;
          (* surface the bug in the --metrics-out artifact so `snowboard
             explain --replay <artifact>` can pick it up directly *)
          let bug =
            {
              Harness.Pipeline.br_issues = [ issue ];
              br_test = 0;
              br_trial = 0;
              br_writer = s.Harness.Scenarios.writer;
              br_reader = s.Harness.Scenarios.reader;
              br_replay = Sched.Replay.to_string trace;
            }
          in
          obs_extra :=
            ("bugs", Obs.Export.List [ Harness.Report.json_of_bug bug ])
            :: !obs_extra;
          List.iter
            (fun r ->
              let d =
                Detectors.Postmortem.diagnose
                  ~image:env.Sched.Exec.kern.Kernel.image
                  ~ident:a.Harness.Scenarios.ident
                  ~replay:(Sched.Replay.to_string trace) ~events r
              in
              pf "@.%a@." Detectors.Postmortem.pp d)
            races)

let diagnose_cmd =
  Cmd.v
    (Cmd.info "diagnose"
       ~doc:
         "Reproduce an issue, print a replayable interleaving trace and a \
          post-mortem diagnosis of the detected races.")
    Term.(
      const run_diagnose $ version $ seed $ issue_arg $ logging_term
      $ telemetry_term $ obs_term)

(* ---------------- explain ---------------- *)

(* Re-execute a recorded interleaving from the boot snapshot with the
   flight recorder on, and render what happened: a Chrome trace-event
   JSON (Perfetto / chrome://tracing) and the two-column plain-text
   interleaving report.  The input is either a campaign report (the
   --metrics-out JSON, whose bug entries carry writer/reader/replay) or a
   raw replay trace plus --issue for the scenario programs. *)

module J = Obs.Export

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let jfield k = function J.Obj l -> List.assoc_opt k l | _ -> None
let jstring = function Some (J.String s) -> Some s | _ -> None

(* The "bugs" list of a report document: at the top level (json_summary)
   or under "summary" (the --metrics-out artifact wraps it there). *)
let bugs_of_report doc =
  match jfield "bugs" doc with
  | Some (J.List l) -> Some l
  | _ -> (
      match jfield "summary" doc with
      | Some summary -> (
          match jfield "bugs" summary with
          | Some (J.List l) -> Some l
          | _ -> None)
      | None -> None)

let bug_matches issue b =
  match issue with
  | None -> true
  | Some id -> (
      match jfield "issues" b with
      | Some (J.List l) -> List.mem (J.Int id) l
      | _ -> false)

type explain_input = {
  ei_writer : Fuzzer.Prog.t;
  ei_reader : Fuzzer.Prog.t;
  ei_trace : Sched.Replay.trace;
  ei_issues : int list;  (* the stored verdict; [] when unknown *)
}

let input_of_bug b =
  let get k = jstring (jfield k b) in
  match (get "writer", get "reader", get "replay") with
  | Some w, Some r, Some t -> (
      match
        (Fuzzer.Prog.of_line w, Fuzzer.Prog.of_line r, Sched.Replay.of_string t)
      with
      | Some writer, Some reader, Some trace ->
          let issues =
            match jfield "issues" b with
            | Some (J.List l) ->
                List.filter_map (function J.Int i -> Some i | _ -> None) l
            | _ -> []
          in
          Ok
            {
              ei_writer = writer;
              ei_reader = reader;
              ei_trace = trace;
              ei_issues = issues;
            }
      | None, _, _ -> Error "malformed writer program in bug report"
      | _, None, _ -> Error "malformed reader program in bug report"
      | _, _, None -> Error "malformed replay trace in bug report"
      )
  | _ -> Error "bug report lacks writer/reader/replay fields"

let resolve_explain_input ~issue replay_arg =
  let from_raw_trace s =
    let s = String.trim s in
    match Sched.Replay.of_string s with
    | None ->
        fail_cli "cannot parse replay trace %S (expected \"FIRST:0101...\")" s
    | Some trace -> (
        match issue with
        | None ->
            fail_cli
              "a raw replay trace needs --issue to supply the scenario \
               programs"
        | Some id -> (
            match Harness.Scenarios.find id with
            | None -> fail_cli "no scenario for issue #%d" id
            | Some sc ->
                {
                  ei_writer = sc.Harness.Scenarios.writer;
                  ei_reader = sc.Harness.Scenarios.reader;
                  ei_trace = trace;
                  ei_issues = [ id ];
                }))
  in
  if Sys.file_exists replay_arg then
    let contents = read_file replay_arg in
    match J.of_string_opt contents with
    | Some doc -> (
        match bugs_of_report doc with
        | None ->
            fail_cli "%s: no \"bugs\" list in this JSON (run a campaign with \
                      --metrics-out to produce one)"
              replay_arg
        | Some bugs -> (
            match List.filter (bug_matches issue) bugs with
            | [] ->
                fail_cli "%s: no stored bug report%s" replay_arg
                  (match issue with
                  | Some id -> Printf.sprintf " for issue #%d" id
                  | None -> "")
            | b :: _ -> (
                match input_of_bug b with
                | Ok i -> i
                | Error msg -> fail_cli "%s: %s" replay_arg msg)))
    | None -> from_raw_trace contents
  else from_raw_trace replay_arg

let replay_arg_t =
  Arg.(
    required
    & opt (some string) None
    & info [ "replay" ] ~docv:"TRACE|FILE"
        ~doc:
          "What to re-execute: a campaign report JSON (--metrics-out), a \
           file holding a replay trace, or the trace itself \
           (\"FIRST:0101...\").")

let issue_opt_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "issue" ] ~docv:"N"
        ~doc:
          "Select the stored bug for this Table 2 issue (with a report), or \
           name the scenario whose programs a raw trace drives.")

let trace_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace-out" ] ~docv:"FILE"
        ~doc:
          "Write the Chrome trace-event JSON here (open in Perfetto or \
           chrome://tracing).")

let text_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "text-out" ] ~docv:"FILE"
        ~doc:
          "Write the plain-text interleaving report here instead of stdout.")

let run_explain kernel replay_arg issue trace_out text_out () (_ : obs) =
  let input = resolve_explain_input ~issue replay_arg in
  let env = Sched.Exec.make_env kernel in
  let { Sched.Explore.run = res; races; findings }, events =
    Sched.Explore.replay env
      ~progs:[| input.ei_writer; input.ei_reader |]
      input.ei_trace
  in
  let issues = Detectors.Oracle.issues findings in
  pf "replayed %d decisions (%d switches): %d guest steps, %d findings@."
    (Sched.Replay.length input.ei_trace)
    (Sched.Replay.num_switches input.ei_trace)
    res.Sched.Exec.cc_steps (List.length findings);
  List.iter
    (fun (f : Detectors.Oracle.finding) ->
      pf "  %a@." Detectors.Oracle.pp_kind f.Detectors.Oracle.kind)
    findings;
  let replay_str = Sched.Replay.to_string input.ei_trace in
  List.iter
    (fun r ->
      let d =
        Detectors.Postmortem.diagnose ~image:env.Sched.Exec.kern.Kernel.image
          ~replay:replay_str ~events r
      in
      pf "@.%a@." Detectors.Postmortem.pp d)
    races;
  (match trace_out with
  | Some path ->
      let doc =
        Obs.Timeline.chrome_json
          ~extra:
            [
              ("replay", J.String replay_str);
              ("writer", J.String (Fuzzer.Prog.to_line input.ei_writer));
              ("reader", J.String (Fuzzer.Prog.to_line input.ei_reader));
            ]
          events
      in
      J.write_file ~site:"trace" path doc;
      pf "Chrome trace written to %s (%d events)@." path (List.length events)
  | None -> ());
  (match text_out with
  | Some path -> (
      match
        Obs.Storage.write_atomic ~site:"trace.text" ~path
          (Obs.Timeline.interleaving events)
      with
      | Ok () -> pf "interleaving report written to %s@." path
      | Error e ->
          Format.eprintf "snowboard: cannot write interleaving report: %s@."
            (Obs.Storage.err_to_string e))
  | None -> pf "@.%s@." (Obs.Timeline.interleaving events));
  (* the acceptance check: the stored verdict must reproduce *)
  if input.ei_issues <> [] && not (List.exists (fun id -> List.mem id issues) input.ei_issues)
  then begin
    Format.eprintf
      "snowboard: stored verdict (issues [%s]) did not reproduce (got [%s])@."
      (String.concat ", " (List.map string_of_int input.ei_issues))
      (String.concat ", " (List.map string_of_int issues));
    exit 2
  end

let explain_cmd =
  Cmd.v
    (Cmd.info "explain"
       ~doc:
         "Re-execute a recorded interleaving from the boot snapshot and \
          export its flight-recorder trace: Chrome trace-event JSON and a \
          two-column interleaving report.")
    Term.(
      const run_explain $ version $ replay_arg_t $ issue_opt_arg
      $ trace_out_arg $ text_out_arg $ logging_term $ obs_term)

(* ---------------- why ---------------- *)

(* Answer provenance queries from a snowboard-provenance/1 artifact
   (campaign --provenance-out).  Pure reader: no VM, no re-execution —
   the dossiers are joins over the stored JSON. *)

let jint = function Some (J.Int i) -> Some i | _ -> None
let jbool = function Some (J.Bool b) -> Some b | _ -> None
let jlist = function Some (J.List l) -> l | _ -> []
let jobj = function Some (J.Obj kvs) -> kvs | _ -> []
let jints v = List.filter_map (function J.Int i -> Some i | _ -> None) (jlist v)
let jint0 v = Option.value ~default:0 (jint v)
let jstr v = Option.value ~default:"?" (jstring v)

let load_provenance path =
  if not (Sys.file_exists path) then fail_cli "%s: no such file" path;
  match J.of_string_opt (read_file path) with
  | None -> fail_cli "%s: not valid JSON" path
  | Some doc -> (
      match jstring (jfield "schema" doc) with
      | Some s when s = Harness.Provenance.schema -> doc
      | Some s -> fail_cli "%s: unsupported provenance schema %S" path s
      | None ->
          fail_cli
            "%s: not a provenance artifact (run 'campaign --provenance-out' \
             to produce one)"
            path)

let find_by_id lst id =
  List.find_opt (fun o -> jint (jfield "id" o) = Some id) lst

let why_print_test t =
  let issues = jints (jfield "issues" t) in
  pf "  test #%d: %s plan index %d, writer test %d + reader test %d@."
    (jint0 (jfield "id" t))
    (jstr (jfield "method" t))
    (jint0 (jfield "index" t))
    (jint0 (jfield "writer" t))
    (jint0 (jfield "reader" t));
  pf "    outcome %s (%d retries), %d trials, hinted PMC %s, exercised %s@."
    (jstr (jfield "outcome" t))
    (jint0 (jfield "retries" t))
    (jint0 (jfield "trials" t))
    (match jint (jfield "pmc" t) with
    | Some p -> "#" ^ string_of_int p
    | None -> "none")
    (if jbool (jfield "exercised" t) = Some true then "yes" else "no");
  pf "    hint hits %d; misses: %d %s, %d %s, %d %s@."
    (jint0 (jfield "hint_hits" t))
    (jint0 (jfield "miss_no_write" t))
    Sched.Explore.miss_reason_no_write
    (jint0 (jfield "miss_no_read" t))
    Sched.Explore.miss_reason_no_read
    (jint0 (jfield "miss_value" t))
    Sched.Explore.miss_reason_value;
  if issues <> [] then
    pf "    issues found: %s@."
      (String.concat ", " (List.map (fun i -> "#" ^ string_of_int i) issues))

let why_pmc doc id =
  let p =
    match find_by_id (jlist (jfield "pmcs" doc)) id with
    | Some p -> p
    | None ->
        fail_cli "no PMC #%d in this artifact (%d identified)" id
          (jint0 (jfield "num_pmcs" doc))
  in
  let side label s =
    pf "  %-6s %s  (pc %d, addr 0x%x, size %d, value %d)@." label
      (jstr (jfield "fn" s))
      (jint0 (jfield "ins" s))
      (jint0 (jfield "addr" s))
      (jint0 (jfield "size" s))
      (jint0 (jfield "value" s))
  in
  pf "PMC #%d%s@." id
    (if jbool (jfield "df_leader" p) = Some true then
       " (dataflow-cluster leader)"
     else "");
  (match jfield "write" p with Some s -> side "write" s | None -> ());
  (match jfield "read" p with Some s -> side "read" s | None -> ());
  let pairs = jlist (jfield "pairs" p) in
  pf "  stored in %d sequential test pair(s): %s@." (List.length pairs)
    (String.concat ", "
       (List.map
          (fun pr ->
            Printf.sprintf "%d/%d"
              (jint0 (jfield "writer" pr))
              (jint0 (jfield "reader" pr)))
          pairs));
  pf "  clusters:%s@."
    (String.concat ""
       (List.map
          (fun (s, ids) ->
            Printf.sprintf " %s:%s" s
              (String.concat ","
                 (List.map string_of_int (jints (Some ids)))))
          (jobj (jfield "clusters" p))));
  pf "  selection verdicts:@.";
  List.iter
    (fun (s, v) -> pf "    %-16s %s@." s (jstr (Some v)))
    (jobj (jfield "verdicts" p));
  let hinted = jints (jfield "tests" p) in
  let misses = jfield "misses" p in
  let miss k = jint0 (jfield k (Option.value ~default:J.Null misses)) in
  pf "  hinted %d concurrent test(s); channel exercised: %s@."
    (List.length hinted)
    (if jbool (jfield "exercised" p) = Some true then "yes" else "no");
  pf "  hint outcome over all trials: %d hits; misses: %d %s, %d %s, %d %s@."
    (jint0 (jfield "hint_hits" p))
    (miss "no_write") Sched.Explore.miss_reason_no_write
    (miss "no_read") Sched.Explore.miss_reason_no_read
    (miss "value") Sched.Explore.miss_reason_value;
  let tests = jlist (jfield "tests" doc) in
  List.iter
    (fun gid ->
      match find_by_id tests gid with Some t -> why_print_test t | None -> ())
    hinted;
  p

(* "S-CH:3" -> strategy block + cluster record *)
let why_cluster doc spec =
  let strat, cid =
    match String.rindex_opt spec ':' with
    | Some i -> (
        let s = String.sub spec 0 i in
        let n = String.sub spec (i + 1) (String.length spec - i - 1) in
        match int_of_string_opt n with
        | Some cid -> (s, cid)
        | None -> fail_cli "bad --cluster %S (expected STRATEGY:ID)" spec)
    | None -> fail_cli "bad --cluster %S (expected STRATEGY:ID)" spec
  in
  let block =
    match
      List.find_opt
        (fun b -> jstring (jfield "strategy" b) = Some strat)
        (jlist (jfield "clusters" doc))
    with
    | Some b -> b
    | None ->
        fail_cli "no strategy %S in this artifact (try e.g. S-CH, S-INS)"
          strat
  in
  let c =
    match find_by_id (jlist (jfield "clusters" block)) cid with
    | Some c -> c
    | None ->
        fail_cli "no cluster %s:%d (strategy has %d clusters)" strat cid
          (jint0 (jfield "total" block))
  in
  let members = jints (jfield "pmcs" c) in
  pf "cluster %s:%d  key [%s], %d member PMC(s): %s@." strat cid
    (String.concat ", " (List.map string_of_int (jints (jfield "key" c))))
    (jint0 (jfield "size" c))
    (String.concat ", " (List.map (fun i -> "#" ^ string_of_int i) members));
  (match (jbool (jfield "tested" c), jstring (jfield "why" c)) with
  | Some true, _ ->
      pf "  tested: yes — a hinted test covered this cluster key@."
  | _, Some why -> pf "  tested: no — %s@." why
  | _ -> pf "  tested: no@.");
  (* the member PMCs' hinted tests are the cluster's evidence trail *)
  let tests = jlist (jfield "tests" doc) in
  let pmcs = jlist (jfield "pmcs" doc) in
  List.iter
    (fun mid ->
      match find_by_id pmcs mid with
      | None -> ()
      | Some p ->
          List.iter
            (fun gid ->
              match find_by_id tests gid with
              | Some t -> why_print_test t
              | None -> ())
            (jints (jfield "tests" p)))
    members;
  c

let why_test doc id =
  match find_by_id (jlist (jfield "tests" doc)) id with
  | Some t ->
      why_print_test t;
      t
  | None -> fail_cli "no test #%d in this artifact" id

let why_hot doc =
  let rows =
    List.map
      (fun r ->
        let pi = jint0 (jfield "profile_instr" r)
        and ei = jint0 (jfield "explore_instr" r) in
        ( pi + ei,
          jstr (jfield "fn" r),
          pi,
          jint0 (jfield "profile_shared" r),
          ei,
          jint0 (jfield "explore_shared" r) ))
      (jlist (jfield "functions" (Option.value ~default:J.Null (jfield "profiler" doc))))
    |> List.sort (fun (ta, na, _, _, _, _) (tb, nb, _, _, _, _) ->
           match compare tb ta with 0 -> compare na nb | c -> c)
  in
  pf "%-28s %12s %12s %12s %12s@." "function" "prof-instr" "prof-shared"
    "expl-instr" "expl-shared";
  List.iter
    (fun (_, fn, pi, ps, ei, es) -> pf "%-28s %12d %12d %12d %12d@." fn pi ps ei es)
    rows

let why_overview doc =
  pf "provenance artifact: %d PMCs, %d tests across %d methods@."
    (jint0 (jfield "num_pmcs" doc))
    (List.length (jlist (jfield "tests" doc)))
    (List.length (jlist (jfield "methods" doc)));
  List.iter
    (fun m ->
      pf "  %-20s %d clusters, %d planned tests@."
        (jstr (jfield "method" m))
        (jint0 (jfield "num_clusters" m))
        (jint0 (jfield "planned" m)))
    (jlist (jfield "methods" doc));
  pf "@.untested-cluster frontier (why):@.";
  List.iter
    (fun b ->
      let cls = jlist (jfield "clusters" b) in
      let untested =
        List.filter (fun c -> jbool (jfield "tested" c) <> Some true) cls
      in
      let count w =
        List.length
          (List.filter (fun c -> jstring (jfield "why" c) = Some w) untested)
      in
      pf "  %-16s %d/%d tested; untested: %d planned-but-not-executed, %d \
          beyond-budget, %d method-not-run@."
        (jstr (jfield "strategy" b))
        (List.length cls - List.length untested)
        (List.length cls)
        (count "planned-but-not-executed")
        (count "beyond-budget") (count "method-not-run"))
    (jlist (jfield "clusters" doc))

let run_why from pmc cluster test hot json_out () (_ : obs) =
  let doc = load_provenance from in
  let selected =
    match (pmc, cluster, test) with
    | Some id, None, None -> why_pmc doc id
    | None, Some spec, None -> why_cluster doc spec
    | None, None, Some id -> why_test doc id
    | None, None, None ->
        if not hot then why_overview doc;
        doc
    | _ -> fail_cli "--pmc, --cluster and --test are mutually exclusive"
  in
  if hot then why_hot doc;
  if json_out then pf "%s@." (J.to_string selected)

let why_from_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "from" ] ~docv:"FILE"
        ~doc:
          "The provenance artifact written by 'campaign --provenance-out'.")

let why_pmc_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "pmc" ] ~docv:"ID"
        ~doc:
          "Dossier for this PMC: writer/reader attribution, stored pairs, \
           cluster assignments, per-strategy selection verdicts and the \
           Algorithm 2 hit/miss record of every hinted test.")

let why_cluster_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "cluster" ] ~docv:"STRATEGY:ID"
        ~doc:
          "Dossier for one cluster (e.g. S-CH:3): members, tested-or-why-not \
           and the member PMCs' test evidence.")

let why_test_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "test" ] ~docv:"ID"
        ~doc:"Dossier for one concurrent test (global 1-based id).")

let why_hot_arg =
  Arg.(
    value & flag
    & info [ "hot" ]
        ~doc:
          "Print the guest profiler's hot-function table (needs a campaign \
           run with --flame-out or --provenance-out).")

let why_json_arg =
  Arg.(
    value & flag
    & info [ "json" ]
        ~doc:"Also print the selected record (or whole artifact) as JSON.")

let why_cmd =
  Cmd.v
    (Cmd.info "why"
       ~doc:
         "Explain a campaign from its provenance artifact: where a PMC came \
          from, how it clustered, whether it was selected or deduplicated, \
          and why hinted schedules hit or missed.")
    Term.(
      const run_why $ why_from_arg $ why_pmc_arg $ why_cluster_arg
      $ why_test_arg $ why_hot_arg $ why_json_arg $ logging_term $ obs_term)

(* ---------------- verify ---------------- *)

let bound_arg =
  Arg.(
    value & opt int 2
    & info [ "bound" ] ~docv:"N"
        ~doc:"Preemption bound for the exhaustive enumeration (0 or more).")

let run_verify kernel issue bound () (_ : obs) =
  check_at_least "--bound" ~least:0 bound;
  match Harness.Scenarios.find issue with
  | None ->
      pf "no scenario for issue #%d@." issue;
      exit 1
  | Some s ->
      let env = Sched.Exec.make_env kernel in
      let r =
        Sched.Enumerate.run env ~writer:s.Harness.Scenarios.writer
          ~reader:s.Harness.Scenarios.reader ~preemption_bound:bound
          ~max_executions:200_000 ()
      in
      pf "CHESS-style enumeration, preemption bound %d: %d executions%s@." bound
        r.Sched.Enumerate.executions
        (if r.Sched.Enumerate.exhausted then " (space exhausted)"
         else " (budget hit - NOT exhaustive)");
      if r.Sched.Enumerate.issues = [] then begin
        pf "no findings: the scenario is %s within the bound@."
          (if r.Sched.Enumerate.exhausted then "provably silent" else "silent so far")
      end
      else begin
        pf "findings: %s (first at execution %s)@."
          (String.concat ", "
             (List.map (fun i -> "#" ^ string_of_int i) r.Sched.Enumerate.issues))
          (match r.Sched.Enumerate.first_bug_execution with
          | Some n -> string_of_int n
          | None -> "?");
        exit 2
      end

let verify_cmd =
  Cmd.v
    (Cmd.info "verify"
       ~doc:
         "Exhaustively enumerate all schedules of an issue's scenario within \
          a preemption bound (CHESS-style); proves a patched kernel silent \
          within the bound.")
    Term.(
      const run_verify $ version $ issue_arg $ bound_arg $ logging_term
      $ obs_term)

(* ---------------- three (section 6 extension) ---------------- *)

let run_three kernel seed () (_ : obs) =
  let env = Sched.Exec.make_env kernel in
  let h = Harness.Scenarios.hunt_relay env ~seed in
  pf "%d PMCs, %d chains across producer/forwarder/consumer@."
    h.Harness.Scenarios.pmcs h.Harness.Scenarios.chains;
  match h.Harness.Scenarios.crash with
  | Some (chain, res) ->
      pf "chain %a@." Core.Chain.pp chain;
      pf "three-thread crash on trial %d:@."
        (Option.get res.Sched.Explore.first_bug);
      List.iter
        (fun f -> pf "  %a@." Detectors.Oracle.pp_kind f.Detectors.Oracle.kind)
        (Sched.Explore.findings_found res)
  | None ->
      pf "no crash found (is the kernel all-fixed?)@.";
      exit 2

let three_cmd =
  Cmd.v
    (Cmd.info "three"
       ~doc:
         "Run the section 6 extension: three testing threads driven by a \
          PMC chain (the relay order violation).")
    Term.(const run_three $ version $ seed $ logging_term $ obs_term)

(* ---------------- fsck ---------------- *)

(* Validate (and optionally repair) a checkpoint journal without running
   anything: prints a recovery dossier describing the recoverable
   prefix and what a crash or corruption tore off the tail. *)

let run_fsck path repair json () (_ : obs) =
  match Harness.Durable.fsck ~repair path with
  | Error msg ->
      Format.eprintf "snowboard: fsck: %s@." msg;
      exit 1
  | Ok r ->
      if json then pf "%s@." (J.to_string (Harness.Durable.fsck_json r))
      else pf "@[<v>%a@]@." Harness.Durable.pp_fsck r;
      if not r.Harness.Durable.fk_clean && not r.Harness.Durable.fk_repaired
      then exit 4

let fsck_path_arg =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"JOURNAL"
        ~doc:"The checkpoint journal to validate (--checkpoint FILE).")

let fsck_repair_arg =
  Arg.(
    value & flag
    & info [ "repair" ]
        ~doc:
          "Atomically truncate a corrupt framed journal to its longest valid \
           record prefix, exactly what --resume would recover.")

let fsck_json_arg =
  Arg.(
    value & flag
    & info [ "json" ] ~doc:"Print the recovery dossier as JSON.")

let fsck_cmd =
  Cmd.v
    (Cmd.info "fsck"
       ~doc:
         "Validate or repair a checkpoint journal: scan the CRC-framed \
          records, report the recoverable prefix and the dropped tail."
       ~man:
         [
           `S Manpage.s_exit_status;
           `P "0: journal is clean (or was just repaired).";
           `P "1: the file cannot be read at all.";
           `P "4: journal is corrupt and was not repaired: no --repair, or \
               a file that does not start with a frame (which --repair \
               never rewrites).";
         ])
    Term.(
      const run_fsck $ fsck_path_arg $ fsck_repair_arg $ fsck_json_arg
      $ logging_term $ obs_term)

(* ---------------- issues ---------------- *)

let run_issues () (_ : obs) =
  pf "%-4s %-62s %-14s %-5s %-9s@." "ID" "Summary" "Version" "Type" "Status";
  List.iter
    (fun (m : Detectors.Issues.meta) ->
      pf "#%-3d %-62s %-14s %-5s %-9s@." m.Detectors.Issues.id
        m.Detectors.Issues.summary m.Detectors.Issues.version
        (Detectors.Issues.cls_name m.Detectors.Issues.cls)
        (Detectors.Issues.status_name m.Detectors.Issues.status))
    Detectors.Issues.all

let issues_cmd =
  Cmd.v (Cmd.info "issues" ~doc:"List the Table 2 ground-truth issues.")
    Term.(const run_issues $ logging_term $ obs_term)

(* ---------------- main ---------------- *)

let () =
  let info =
    Cmd.info "snowboard" ~version:"1.0.0"
      ~doc:
        "Find kernel concurrency bugs through systematic inter-thread \
         communication analysis (SOSP 2021 reproduction)."
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            fuzz_cmd; identify_cmd; campaign_cmd; repro_cmd; diagnose_cmd;
            explain_cmd; why_cmd; verify_cmd; three_cmd; issues_cmd; fsck_cmd;
          ]))
