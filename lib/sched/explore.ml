(* Interleaving exploration of one concurrent test: the outer loop of
   Algorithm 2.  Each trial reseeds the RNG with SEED + trial (line 5),
   restores the boot snapshot and runs the two tests under the chosen
   scheduler, with the race detector and the console checker attached.
   After a trial, incidental PMCs - other identified PMCs whose write and
   read both occurred, in opposite threads - are added to the set under
   test, one random pick per trial (lines 26-27).  [run] and [run_chain]
   (three programs and a PMC chain, section 6) share that loop, and it
   and every other driver that wants bug verdicts check their trials
   through [check]. *)

module Trace = Vmm.Trace

module Log = (val Logs.src_log Exec.src : Logs.LOG)

let m_trials = Obs.Metrics.counter "snowboard.sched/trials"
let m_hint_hits = Obs.Metrics.counter "snowboard.sched/hint_window_hits"
let m_hint_misses = Obs.Metrics.counter "snowboard.sched/hint_window_misses"
let m_incidental = Obs.Metrics.counter "snowboard.sched/incidental_pmcs_adopted"

type kind =
  | Snowboard  (* Algorithm 2 with the PMC as scheduling hint *)
  | Ski  (* instruction-triggered yields, no memory-target check *)
  | Naive of int  (* random preemption with the given period *)
  | Pct of int  (* PCT with this depth; change points over ~1000 steps *)

let kind_name = function
  | Snowboard -> "snowboard"
  | Ski -> "ski"
  | Naive n -> Printf.sprintf "naive/%d" n
  | Pct d -> Printf.sprintf "pct/%d" d

let pct_est_len = 1_000

type trial = {
  findings : Detectors.Oracle.finding list;
  issues : int list;
  exercised : bool;  (* the hinted PMC channel actually occurred *)
  steps : int;
  replay : Replay.trace;  (* recorded switch decisions for reproduction *)
}

type result = {
  trials : trial list;
  first_bug : int option;  (* 1-based index of the first buggy trial *)
  any_exercised : bool;  (* the hinted channel occurred in some trial *)
  any_pmc_observed : bool;
      (* some identified PMC (hinted or not) had its write and read occur
         in opposite threads during some trial *)
  total_steps : int;
  total_switches : int;
  hint_hits : int;  (* trials whose hinted channel was exercised *)
  miss_no_write : int;  (* misses: the hinted write never executed *)
  miss_no_read : int;  (* misses: write landed, reader never reached it *)
  miss_value : int;  (* misses: both sides ran, value was the profiled one *)
  prof : (string * int * int) list;
      (* guest-profiler rows (function, instr, shared) accumulated over
         all trials; [] when the profiler is disabled *)
}

(* Did a read performing [pmc]'s read see a value other than the
   profiled one? *)
let observes pmc (a : Trace.access) =
  Core.Pmc.matches_read pmc a
  && a.Trace.value <> pmc.Core.Pmc.read.Core.Pmc.value

let rec under_test p = function
  | [] -> false
  | q :: rest -> Core.Pmc.equal p q || under_test p rest

(* Did the hinted communication happen?  The write side must occur in the
   writer thread and a matching read in the reader thread must observe a
   value different from its sequential profile - a conservative proxy for
   the paper's "actually exercised the memory channel" (section 5.3.2). *)
let channel_exercised hint (res : Exec.conc_result) =
  match hint with
  | None -> false
  | Some pmc ->
      let wrote =
        List.exists
          (fun a -> Core.Pmc.matches_write pmc a)
          res.Exec.cc_accesses.(0)
      in
      let read_changed = List.exists (observes pmc) res.Exec.cc_accesses.(1) in
      wrote && read_changed

(* Why did a hinted trial miss?  Classified from the same per-thread
   access lists [channel_exercised] consults, so no ring replay is
   needed: either the write side never executed, or it did and the
   reader was preempted before (or re-ordered past) the hinted access,
   or both sides ran but the read still observed its profiled value. *)
let miss_reason_no_write = "write-never-executed"
let miss_reason_no_read = "reader-preempted"
let miss_reason_value = "value-mismatch"

let classify_miss pmc (res : Exec.conc_result) =
  let wrote =
    List.exists
      (fun a -> Core.Pmc.matches_write pmc a)
      res.Exec.cc_accesses.(0)
  in
  let read_reached =
    List.exists (fun a -> Core.Pmc.matches_read pmc a) res.Exec.cc_accesses.(1)
  in
  if not wrote then miss_reason_no_write
  else if not read_reached then miss_reason_no_read
  else miss_reason_value

(* The writer thread's last shared write, as (pc, addr); (-1, -1) if it
   never wrote shared memory. *)
let last_write (res : Exec.conc_result) =
  List.fold_left
    (fun acc (a : Trace.access) ->
      if a.Trace.kind = Trace.Write then (a.Trace.pc, a.Trace.addr) else acc)
    (-1, -1)
    res.Exec.cc_accesses.(0)

let default_trials = 64

type checked = {
  run : Exec.conc_result;
  races : Detectors.Race.report list;
  findings : Detectors.Oracle.finding list;
}

(* One interleaving with the bug oracles of section 4.4 attached: the
   race detector sees every shared access, then [Oracle.analyze] triages
   the races, the console and the liveness verdict.  A run that raises
   (watchdog, injected fault) still finishes the detector, so the
   domain's race table is handed back for the next trial; the normal
   path installs a handler and allocates nothing for it. *)
let check env ~progs ~policy ?watchdog ?fault ?prof () =
  let race = Detectors.Race.create ~nthreads:(Array.length progs) () in
  let observer =
    {
      Exec.default_observer with
      Exec.on_access = (fun a ~ctx -> Detectors.Race.on_access race a ~ctx);
    }
  in
  match
    Exec.run_multi env ~progs ~policy ~observer ?watchdog ?fault ?prof ()
  with
  | run ->
      let races = Detectors.Race.reports race in
      let findings =
        Detectors.Oracle.analyze ~console:run.Exec.cc_console ~races
          ~deadlocked:run.Exec.cc_deadlocked
      in
      { run; races; findings }
  | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      ignore (Detectors.Race.reports race);
      Printexc.raise_with_backtrace e bt

(* Re-execute a recorded trial from the boot snapshot with the flight
   recorder on.  Events carry virtual-clock stamps only, so what a replay
   records is byte-stable across runs. *)
let replay env ~progs trace =
  Obs.Event.configure ~enabled:true ();
  Fun.protect
    ~finally:(fun () -> Obs.Event.configure ~enabled:false ())
    (fun () ->
      let c = check env ~progs ~policy:(Replay.replay trace) () in
      (c, Obs.Event.events ()))

(* The trial loop: explore [progs] for up to [trials] interleavings,
   starting from the PMCs under test that [st] holds.  [hint] is the
   single hinted PMC the hit and miss statistics are kept for. *)
let explore (env : Exec.env) ~ident ~progs ~st ~hint ~kind ~trials ~seed
    ~stop_on_bug ~target_issue ~watchdog ~fault ~attempt =
  let adopts = match kind with Snowboard -> true | Ski | Naive _ | Pct _ -> false in
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
  (* one profiler collector across the whole exploration; drained into
     [result.prof] so the caller flushes the counts exactly once (the
     rows ride in test results and the checkpoint journal) *)
  let prof = Obs.Profguest.collector () in
  let nprogs = Array.length progs in
  (try
     for trial = 0 to trials - 1 do
       let rng = Random.State.make [| seed + trial |] in
       let policy =
         match kind with
         | Snowboard -> Policies.snowboard rng st
         | Ski -> Policies.ski rng hint
         | Naive period -> Policies.naive rng ~period
         | Pct depth -> Policies.pct rng ~depth ~est_len:pct_est_len
       in
       (* past two programs, a second draw picks the thread that starts *)
       let policy =
         if nprogs > 2 then
           { policy with Exec.first = Random.State.int rng nprogs }
         else policy
       in
       (* every trial records its switch decisions: recording is a byte
          per decision, and it makes any buggy trial reproducible from
          the report alone (section 6) *)
       let recorder = Replay.record policy in
       let verdict =
         match fault with
         | None -> Fault.No_fault
         | Some (plan, test) -> Fault.draw plan ~test ~trial ~attempt
       in
       let windows_before = st.Policies.windows_seen in
       let { run = res; findings; _ } =
         check env ~progs ~policy:recorder.Replay.policy ?watchdog
           ~fault:verdict ~prof ()
       in
       let issues = Detectors.Oracle.issues findings in
       let exercised = channel_exercised hint res in
       Obs.Metrics.incr m_trials;
       (match hint with
       | None -> ()
       | Some pmc ->
           if exercised then begin
             incr hint_hits;
             Obs.Metrics.incr m_hint_hits
           end
           else begin
             Obs.Metrics.incr m_hint_misses;
             let reason = classify_miss pmc res in
             if reason == miss_reason_no_write then incr miss_no_write
             else if reason == miss_reason_no_read then incr miss_no_read
             else incr miss_value;
             if Obs.Event.enabled () then begin
               let last_write_pc, last_write_addr = last_write res in
               Obs.Event.emit ~tid:Obs.Event.sched_tid
                 (Obs.Event.Hint_miss
                    {
                      reason;
                      window_seen =
                        st.Policies.windows_seen > windows_before;
                      last_write_pc;
                      last_write_addr;
                    })
             end
           end);
       if exercised then any_exercised := true;
       total_steps := !total_steps + res.Exec.cc_steps;
       total_switches := !total_switches + res.Exec.cc_switches;
       trial_results :=
         {
           findings;
           issues;
           exercised;
           steps = res.Exec.cc_steps;
           replay = recorder.Replay.finish ();
         }
         :: !trial_results;
       let hit =
         match target_issue with
         | Some id -> List.mem id issues
         | None -> ( match findings with [] -> false | _ :: _ -> true)
       in
       if hit && Option.is_none !first_bug then begin
         first_bug := Some (trial + 1);
         Log.info (fun m ->
             m "%s: first finding on trial %d (issues [%s])" (kind_name kind)
               (trial + 1)
               (String.concat ", " (List.map string_of_int issues)));
         if stop_on_bug then raise Exit
       end;
       (* incidental PMC discovery (Algorithm 2 lines 26-27).  The set of
          incidental PMCs also feeds the accuracy statistics: a trial
          "observed" a PMC when the write and read occurred in opposite
          threads, whether hinted or not.  Only Snowboard adopts PMCs, so
          the other kinds stop searching once the statistic is settled. *)
       (match ident with
       | Some ident when adopts || not !any_pmc_observed ->
           let exclude p = under_test p st.Policies.current_pmcs in
           (* each list mixes kinds: the search and [observes] skip the
              accesses of the other kind *)
           let a0 = res.Exec.cc_accesses.(0)
           and a1 = res.Exec.cc_accesses.(1) in
           let incidental =
             Core.Identify.find_incidental ident ~writes:a0 ~reads:a1 ~exclude
             @ Core.Identify.find_incidental ident ~writes:a1 ~reads:a0
                 ~exclude
           in
           (match incidental with
           | [] -> ()
           | l ->
               (* for the accuracy statistic, require the communication
                  to have happened: some matching read observed a value
                  different from its sequential profile *)
               if
                 (not !any_pmc_observed)
                 && List.exists
                      (fun p ->
                        List.exists (observes p) a0
                        || List.exists (observes p) a1)
                      l
               then any_pmc_observed := true;
               if adopts then begin
                 let p = List.nth l (Random.State.int rng (List.length l)) in
                 Obs.Metrics.incr m_incidental;
                 Log.debug (fun m ->
                     m "trial %d adopts incidental PMC %a" (trial + 1)
                       Core.Pmc.pp p);
                 Policies.add_pmc st p
               end)
       | _ -> ())
     done
   with Exit -> ());
  {
    trials = List.rev !trial_results;
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

(* Explore one concurrent test for up to [trials] interleavings. *)
let run (env : Exec.env) ~(ident : Core.Identify.t option)
    ~(writer : Fuzzer.Prog.t) ~(reader : Fuzzer.Prog.t)
    ~(hint : Core.Pmc.t option) ~(kind : kind) ?(trials = default_trials)
    ~(seed : int) ?(stop_on_bug = true) ?(target_issue = None) ?watchdog
    ?fault ?(attempt = 0) () =
  explore env ~ident ~progs:[| writer; reader |]
    ~st:(Policies.snowboard_state hint) ~hint ~kind ~trials ~seed ~stop_on_bug
    ~target_issue ~watchdog ~fault ~attempt

(* Three programs on three vCPUs with both PMCs of a chain under test,
   so Algorithm 2's performed_pmc_access/flags machinery steers all
   three threads toward the chained communication (section 6). *)
let run_chain (env : Exec.env) ~(progs : Fuzzer.Prog.t array)
    ~(chain : Core.Chain.t option) ?(trials = default_trials) ~(seed : int)
    ?(stop_on_bug = true) () =
  let st = Policies.snowboard_state ~nthreads:(Array.length progs) None in
  Option.iter
    (fun ch ->
      Policies.add_pmc st ch.Core.Chain.first;
      Policies.add_pmc st ch.Core.Chain.second)
    chain;
  explore env ~ident:None ~progs ~st ~hint:None ~kind:Snowboard ~trials ~seed
    ~stop_on_bug ~target_issue:None ~watchdog:None ~fault:None ~attempt:0

(* All distinct issues seen across the trials of a result. *)
let issues_found r =
  List.concat_map (fun t -> t.issues) r.trials |> List.sort_uniq compare

let findings_found r = List.concat_map (fun (t : trial) -> t.findings) r.trials
