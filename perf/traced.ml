(* The traced round: [Pipeline.prepare]'s phases, [Pipeline.fuzz]'s loop
   and [Pipeline.run_method] down to [Sched.Explore.run]'s trial loop,
   rebuilt from the public calls they make with a span around each
   layer call.  Every rebuilt result is compared with what the library's
   own loop returns for the same inputs; a difference is recorded in
   [mismatches], which fails the run. *)

module P = Harness.Pipeline
module E = Sched.Explore
module Exec = Sched.Exec
module Trace = Vmm.Trace
module Tr = Tracer

(* [Sched.Explore]'s private PCT horizon.  Copied: if the library's
   constant drifts, the equivalence check on the blind workload fails. *)
let pct_est_len = 1_000

type counts = {
  mutable ids : int;  (** trial / fuzz-execution ids handed out *)
  mutable trials : int;
  mutable trial_instr : int;
  mutable fuzz_execs : int;  (** timed-region fuzz executions *)
  mutable fuzz_instr : int;
  mutable accesses : int;
  mutable reports : int;
  mutable switches : int;
  mutable decides : int;
  mutable restores : int;
  mutable pages : int;
  mutable candidates : int;
  mutable adopted : int;
  mutable findings : int;
  mutable hinted : int;
  mutable hint_hits : int;
  mutable fuzz_sessions : int;
  mutable corpus : int;
  mutable idents : int;
  mutable pmcs : int;
  mutable traced_s : float;  (** rebuilt loops, for the tracing overhead *)
  mutable reference_s : float;  (** the library's loops on the same inputs *)
  mutable mismatches : string list;
}

let counts () =
  {
    ids = 0; trials = 0; trial_instr = 0; fuzz_execs = 0; fuzz_instr = 0;
    accesses = 0; reports = 0; switches = 0; decides = 0; restores = 0;
    pages = 0; candidates = 0; adopted = 0; findings = 0; hinted = 0;
    hint_hits = 0; fuzz_sessions = 0; corpus = 0; idents = 0; pmcs = 0;
    traced_s = 0.; reference_s = 0.; mismatches = [];
  }

let timed f =
  let t0 = Tr.now_s () in
  let r = f () in
  (r, Tr.now_s () -. t0)

let mismatch c fmt = Printf.ksprintf (fun m -> c.mismatches <- m :: c.mismatches) fmt

(* ------------------------------------------------------------------ *)
(* Fuzzing: [Pipeline.fuzz]'s loop.                                    *)

(* [timed_region] says whether these executions are the workload's
   measured unit (the prepare workload) or set-up (the others). *)
let fuzz tr c ~timed_region ?(seeds = []) env ~seed ~iters =
  let rng = Random.State.make [| seed |] in
  let corpus = Fuzzer.Corpus.create () in
  let steps = ref 0 in
  let exec prog =
    let r = Tr.span tr Run_seq (fun () -> Exec.run_seq env ~tid:0 prog) in
    steps := !steps + r.Exec.sq_steps;
    if timed_region then begin
      c.fuzz_execs <- c.fuzz_execs + 1;
      c.fuzz_instr <- c.fuzz_instr + r.Exec.sq_steps
    end;
    Tr.span tr Consider (fun () ->
        if not r.Exec.sq_panicked then
          ignore (Fuzzer.Corpus.consider corpus prog ~edges:r.Exec.sq_edges))
  in
  let traced () =
    List.iter
      (fun prog ->
        c.ids <- c.ids + 1;
        Tr.set_trial tr c.ids;
        Tr.span tr Fuzz_exec (fun () -> exec prog))
      seeds;
    for _ = 1 to iters do
      c.ids <- c.ids + 1;
      Tr.set_trial tr c.ids;
      Tr.enter tr Fuzz_exec;
      let prog =
        Tr.span tr Gen (fun () ->
            if Random.State.int rng 3 = 0 || Fuzzer.Corpus.size corpus = 0 then
              Fuzzer.Gen.generate rng
            else
              Fuzzer.Gen.mutate rng (Fuzzer.Corpus.sample corpus rng).Fuzzer.Corpus.prog)
      in
      exec prog;
      Obs.Telemetry.tick ();
      Tr.leave tr
    done;
    Tr.set_trial tr (-1)
  in
  let (), dt = timed traced in
  c.traced_s <- c.traced_s +. dt;
  let (ref_corpus, ref_steps), dt =
    timed (fun () -> Tr.span tr Check (fun () -> P.fuzz ~seeds env ~seed ~iters))
  in
  c.reference_s <- c.reference_s +. dt;
  let entries = Fuzzer.Corpus.to_list corpus
  and ref_entries = Fuzzer.Corpus.to_list ref_corpus in
  let same (a : Fuzzer.Corpus.entry) (b : Fuzzer.Corpus.entry) =
    a.id = b.id && a.new_edges = b.new_edges && Fuzzer.Prog.equal a.prog b.prog
  in
  if
    !steps <> ref_steps
    || List.length entries <> List.length ref_entries
    || not (List.for_all2 same entries ref_entries)
  then
    mismatch c "fuzz seed %d: corpus %d entries / %d steps, Pipeline.fuzz %d / %d"
      seed (List.length entries) !steps (List.length ref_entries) ref_steps;
  c.fuzz_sessions <- c.fuzz_sessions + 1;
  c.corpus <- c.corpus + Fuzzer.Corpus.size corpus;
  (corpus, !steps)

let profile_identify tr c env corpus =
  let profiles, profile_steps =
    Tr.span tr Profile (fun () -> P.profile_corpus env corpus)
  in
  let ident = Tr.span tr Identify (fun () -> Core.Identify.run profiles) in
  c.idents <- c.idents + 1;
  c.pmcs <- c.pmcs + Core.Identify.num_pmcs ident;
  (profiles, profile_steps, ident)

(* [Pipeline.prepare] with [jobs = 1]. *)
let prepare tr c (cfg : P.config) =
  let env = Tr.span tr Boot (fun () -> Exec.make_env cfg.P.kernel) in
  let corpus, fuzz_steps =
    fuzz tr c ~timed_region:false ~seeds:cfg.P.seed_corpus env ~seed:cfg.P.seed
      ~iters:cfg.P.fuzz_iters
  in
  let profiles, profile_steps, ident = profile_identify tr c env corpus in
  let frontier, prov =
    Tr.span tr Init (fun () ->
        ( Harness.Frontier.create ident,
          Harness.Provenance.create ~image:env.Exec.kern.Kernel.image ~ident ))
  in
  { P.cfg; env; corpus; profiles; ident; frontier; prov; fuzz_steps; profile_steps }

(* ------------------------------------------------------------------ *)
(* Exploration: [Pipeline.run_one_test] + [Sched.Explore.run].          *)

(* The accesses [run_conc] reports, buffered so the race detector runs
   as its own layer after the trial. *)
type accbuf = {
  mutable n : int;
  mutable acc : Trace.access array;
  mutable ctx : string array;
}

let dummy_access =
  {
    Trace.thread = 0; pc = 0; addr = 0; size = 0; kind = Trace.Read; value = 0;
    atomic = false; sp = 0;
  }

let accbuf () = { n = 0; acc = Array.make 256 dummy_access; ctx = Array.make 256 "" }

let push b a ctx =
  if b.n = Array.length b.acc then begin
    let grow x fill =
      let y = Array.make (2 * b.n) fill in
      Array.blit x 0 y 0 b.n;
      y
    in
    b.acc <- grow b.acc dummy_access;
    b.ctx <- grow b.ctx ""
  end;
  b.acc.(b.n) <- a;
  b.ctx.(b.n) <- ctx;
  b.n <- b.n + 1

let explore tr c buf (env : Exec.env) ~ident ~writer ~reader ~hint ~kind ~trials
    ~seed =
  let st = Sched.Policies.snowboard_state hint in
  let trial_results = ref [] in
  let first_bug = ref None in
  let any_exercised = ref false in
  let any_pmc_observed = ref false in
  let total_steps = ref 0 in
  let total_switches = ref 0 in
  let hint_hits = ref 0 in
  let miss_no_write = ref 0 in
  let miss_no_read = ref 0 in
  let miss_value = ref 0 in
  let prof = Obs.Profguest.collector () in
  let observer =
    { Exec.default_observer with Exec.on_access = (fun a ~ctx -> push buf a ctx) }
  in
  for trial = 0 to trials - 1 do
    c.ids <- c.ids + 1;
    Tr.set_trial tr c.ids;
    Tr.enter tr Trial;
    let rng, recorder =
      Tr.span tr Policies (fun () ->
          let rng = Random.State.make [| seed + trial |] in
          let p =
            match kind with
            | E.Snowboard -> Sched.Policies.snowboard rng st
            | E.Ski -> Sched.Policies.ski rng hint
            | E.Naive period -> Sched.Policies.naive rng ~period
            | E.Pct depth -> Sched.Policies.pct rng ~depth ~est_len:pct_est_len
          in
          let decide tid sk =
            c.decides <- c.decides + 1;
            p.Exec.decide tid sk
          in
          (rng, Sched.Replay.record { p with Exec.decide }))
    in
    buf.n <- 0;
    c.restores <- c.restores + 1;
    c.pages <- c.pages + Vmm.Vm.dirty_page_count env.Exec.vm;
    Tr.span tr Restore (fun () -> Vmm.Vm.restore env.Exec.vm env.Exec.snap);
    let res =
      Tr.span tr Run_conc (fun () ->
          Exec.run_conc env ~writer ~reader ~policy:recorder.Sched.Replay.policy
            ~observer ~prof ())
    in
    let races =
      Tr.span tr Race (fun () ->
          let race = Detectors.Race.create () in
          for i = 0 to buf.n - 1 do
            Detectors.Race.on_access race buf.acc.(i) ~ctx:buf.ctx.(i)
          done;
          Detectors.Race.reports race)
    in
    let findings, issues, exercised =
      Tr.span tr Oracle (fun () ->
          let findings =
            Detectors.Oracle.analyze ~console:res.Exec.cc_console ~races
              ~deadlocked:res.Exec.cc_deadlocked
          in
          let exercised = E.channel_exercised hint res in
          (match hint with
          | None -> ()
          | Some pmc ->
              if exercised then incr hint_hits
              else
                let reason = E.classify_miss pmc res in
                if reason = E.miss_reason_no_write then incr miss_no_write
                else if reason = E.miss_reason_no_read then incr miss_no_read
                else incr miss_value);
          (findings, Detectors.Oracle.issues findings, exercised))
    in
    if exercised then any_exercised := true;
    total_steps := !total_steps + res.Exec.cc_steps;
    total_switches := !total_switches + res.Exec.cc_switches;
    let replay = Tr.span tr Policies (fun () -> recorder.Sched.Replay.finish ()) in
    trial_results :=
      { E.findings; issues; exercised; steps = res.Exec.cc_steps; replay }
      :: !trial_results;
    if findings <> [] && !first_bug = None then first_bug := Some (trial + 1);
    Tr.span tr Incidental (fun () ->
        let exclude p =
          List.exists (Core.Pmc.equal p) st.Sched.Policies.current_pmcs
        in
        let writes tid =
          List.filter (fun a -> a.Trace.kind = Trace.Write) res.Exec.cc_accesses.(tid)
        in
        let reads tid =
          List.filter (fun a -> a.Trace.kind = Trace.Read) res.Exec.cc_accesses.(tid)
        in
        let incidental =
          Core.Identify.find_incidental ident ~writes:(writes 0) ~reads:(reads 1)
            ~exclude
          @ Core.Identify.find_incidental ident ~writes:(writes 1)
              ~reads:(reads 0) ~exclude
        in
        c.candidates <- c.candidates + List.length incidental;
        match incidental with
        | [] -> ()
        | l ->
            let all_reads = reads 0 @ reads 1 in
            if
              List.exists
                (fun p ->
                  List.exists
                    (fun a ->
                      Core.Pmc.matches_read p a
                      && a.Trace.value <> p.Core.Pmc.read.Core.Pmc.value)
                    all_reads)
                l
            then any_pmc_observed := true;
            if kind = E.Snowboard then begin
              c.adopted <- c.adopted + 1;
              Sched.Policies.add_pmc st
                (List.nth l (Random.State.int rng (List.length l)))
            end);
    Tr.leave tr;
    c.trials <- c.trials + 1;
    c.trial_instr <- c.trial_instr + res.Exec.cc_steps;
    c.accesses <- c.accesses + buf.n;
    c.reports <- c.reports + List.length races;
    c.switches <- c.switches + res.Exec.cc_switches;
    c.findings <- c.findings + List.length findings;
    if hint <> None then c.hinted <- c.hinted + 1;
    if hint <> None && exercised then c.hint_hits <- c.hint_hits + 1
  done;
  Tr.set_trial tr (-1);
  {
    E.trials = List.rev !trial_results;
    first_bug = !first_bug;
    any_exercised = !any_exercised;
    any_pmc_observed = !any_pmc_observed || !any_exercised;
    total_steps = !total_steps;
    total_switches = !total_switches;
    hint_hits = !hint_hits;
    miss_no_write = !miss_no_write;
    miss_no_read = !miss_no_read;
    miss_value = !miss_value;
    prof = Obs.Profguest.drain prof;
  }

let same_trial (a : E.trial) (b : E.trial) =
  a.E.issues = b.E.issues && a.E.steps = b.E.steps && a.E.exercised = b.E.exercised
  && List.length a.E.findings = List.length b.E.findings
  && String.equal (Sched.Replay.to_string a.E.replay) (Sched.Replay.to_string b.E.replay)

let first_difference (a : E.result) (b : E.result) =
  let rec go i = function
    | x :: xs, y :: ys -> if same_trial x y then go (i + 1) (xs, ys) else Some i
    | [], [] -> None
    | _ -> Some i
  in
  match go 1 (a.E.trials, b.E.trials) with
  | Some i -> Some (Printf.sprintf "trial %d" i)
  | None ->
      if
        a.E.first_bug <> b.E.first_bug
        || a.E.any_exercised <> b.E.any_exercised
        || a.E.any_pmc_observed <> b.E.any_pmc_observed
        || a.E.total_switches <> b.E.total_switches
        || a.E.hint_hits <> b.E.hint_hits
        || a.E.miss_no_write <> b.E.miss_no_write
        || a.E.miss_no_read <> b.E.miss_no_read
        || a.E.miss_value <> b.E.miss_value
      then Some "result totals"
      else None

(* [Pipeline.run_one_test] under the default supervision policy (no
   watchdog, no faults), with the reference [Sched.Explore.run] call it
   would make checked against the rebuilt loop. *)
let run_test tr c buf (t : P.t) ~kind ~method_ ~index (ct : Core.Select.conc_test) =
  let hint = ct.Core.Select.hint in
  let kind = match hint with Some _ -> kind | None -> E.Naive 8 in
  let writer = P.prog_of_id t ct.Core.Select.writer
  and reader = P.prog_of_id t ct.Core.Select.reader in
  let seed = t.P.cfg.P.seed + (1000 * index) in
  let trials = t.P.cfg.P.trials_per_test in
  let ident = t.P.ident and env = t.P.env in
  let r, dt =
    timed (fun () ->
        Tr.span tr Test (fun () ->
            let res =
              explore tr c buf env ~ident ~writer ~reader ~hint ~kind ~trials ~seed
            in
            let r =
              {
                P.tr_index = index;
                tr_hinted = hint <> None;
                tr_outcome = Harness.Supervise.Ok;
                tr_retries = 0;
                tr_exercised = res.E.any_exercised;
                tr_pmc_observed = res.E.any_pmc_observed;
                tr_issues = E.issues_found res;
                tr_unknown =
                  List.length
                    (List.filter
                       (fun (f : Detectors.Oracle.finding) ->
                         f.Detectors.Oracle.issue = None)
                       (E.findings_found res));
                tr_trials = List.length res.E.trials;
                tr_steps = res.E.total_steps;
                tr_hint_hits = res.E.hint_hits;
                tr_miss_no_write = res.E.miss_no_write;
                tr_miss_no_read = res.E.miss_no_read;
                tr_miss_value = res.E.miss_value;
                tr_prof = res.E.prof;
                tr_bug = P.bug_of_result ~test_idx:index ~writer ~reader res;
              }
            in
            (res, r)))
  in
  c.traced_s <- c.traced_s +. dt;
  let res, r = r in
  let reference, dt =
    timed (fun () ->
        Tr.span tr Check (fun () ->
            E.run env ~ident:(Some ident) ~writer ~reader ~hint ~kind ~trials ~seed
              ~stop_on_bug:false ()))
  in
  c.reference_s <- c.reference_s +. dt;
  (match first_difference res reference with
  | None -> ()
  | Some where ->
      mismatch c "%s test %d: %s differs from Sched.Explore.run"
        (Core.Select.method_name method_) index where);
  r

(* [Pipeline.run_method] without resume or fault injection. *)
let run_method tr c (t : P.t) method_ ~kind ~budget =
  let buf = accbuf () in
  let plan =
    Tr.span tr Plan (fun () ->
        let plan = P.plan_method t method_ ~budget in
        Harness.Provenance.note_plan t.P.prov
          ~method_:(Core.Select.method_name method_) ~plan;
        plan)
  in
  let results =
    List.mapi
      (fun i ct ->
        let index = i + 1 in
        let r = run_test tr c buf t ~kind ~method_ ~index ct in
        Tr.span tr Note (fun () ->
            P.note_result t ~method_ ct r;
            Obs.Telemetry.tick ~tests:1 ());
        r)
      plan.Core.Select.tests
  in
  Tr.span tr Note (fun () ->
      P.stats_of_results ~method_ ~num_clusters:plan.Core.Select.num_clusters
        ~planned:(List.length plan.Core.Select.tests) results)
