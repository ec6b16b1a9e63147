(* Tests for the interleaving flight recorder: the ring buffer itself
   (lib/obs/event.ml), the Chrome-trace and interleaving exporters
   (lib/obs/timeline.ml), and the end-to-end story - a seeded buggy run
   records a replay trace whose re-execution reproduces the same
   verdict and yields a byte-stable deterministic event trace. *)

module E = Obs.Event
module J = Obs.Export
module Exec = Sched.Exec
module Explore = Sched.Explore
module Replay = Sched.Replay
module Scenarios = Harness.Scenarios

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checks = Alcotest.(check string)

let off () = E.configure ~enabled:false ()

(* ---------------- ring buffer ---------------- *)

let note i = E.Note { name = "n"; detail = string_of_int i }

let test_ring_wraparound () =
  E.configure ~capacity:8 ~enabled:true ();
  for i = 0 to 19 do
    E.emit ~tid:0 (note i)
  done;
  let evs = E.events () in
  checki "ring keeps capacity events" 8 (List.length evs);
  checki "seen counts everything" 20 (E.seen ());
  checki "dropped = seen - kept" 12 (E.dropped ());
  (* the newest events survive, oldest first *)
  let details =
    List.map
      (fun (ev : E.t) ->
        match ev.E.kind with E.Note { detail; _ } -> detail | _ -> "?")
      evs
  in
  checkb "newest events kept in order" true
    (details = List.init 8 (fun i -> string_of_int (12 + i)));
  checki "seq of oldest survivor" 12 (List.hd evs).E.seq;
  off ()

let test_disabled_noop () =
  E.configure ~enabled:false ();
  for i = 0 to 9 do
    E.emit ~tid:0 (note i)
  done;
  checkb "disabled recorder buffers nothing" true (E.events () = []);
  checki "disabled recorder counts nothing" 0 (E.seen ());
  checki "nothing dropped" 0 (E.dropped ())

let test_reset_keeps_config () =
  E.configure ~capacity:4 ~enabled:true ();
  E.emit ~tid:0 (note 0);
  E.reset ();
  checki "reset clears the buffer" 0 (List.length (E.events ()));
  checki "reset clears seen" 0 (E.seen ());
  E.emit ~tid:0 (note 1);
  checki "recorder usable after reset" 1 (List.length (E.events ()));
  off ()

let test_virtual_clock_stamps () =
  E.configure ~enabled:true ();
  let t = ref 100 in
  E.set_clock (Some (fun () -> !t));
  E.emit ~tid:0 (note 0);
  t := 250;
  E.emit ~tid:1 (note 1);
  E.set_clock None;
  (match E.events () with
  | [ a; b ] ->
      checki "first stamp" 100 a.E.vclock;
      checki "second stamp" 250 b.E.vclock
  | l -> Alcotest.failf "expected 2 events, got %d" (List.length l));
  off ()

(* ---------------- exporters on a synthetic trace ---------------- *)

let synthetic_events =
  let mk seq vclock tid kind = { E.seq; vclock; tid; kind } in
  [
    mk 0 1000 E.sched_tid (E.Trial_begin { threads = 2; first = 0 });
    mk 1 1001 0 (E.Syscall_enter { index = 0; nr = 7 });
    mk 2 1005 0
      (E.Access
         { pc = 12; addr = 0x2000; size = 8; write = true; value = 1; ctx = "f" });
    mk 3 1005 0 (E.Hint_hit { write = true; pc = 12; addr = 0x2000 });
    mk 4 1006 E.sched_tid (E.Switch { from_ = 0; to_ = 1; reason = "policy" });
    mk 5 1009 1 (E.Hint_hit { write = false; pc = 44; addr = 0x2000 });
    mk 6 1012 1 (E.Syscall_exit { index = 0; ret = -1 });
    mk 7 1020 E.sched_tid
      (E.Verdict { kind = "data-race"; issue = Some 13; detail = "f / g" });
    mk 8 1021 E.sched_tid (E.Trial_end { verdict = "ok" });
  ]

let test_chrome_roundtrip () =
  E.configure ~enabled:true ();
  let doc = Obs.Timeline.chrome_json synthetic_events in
  let reparsed = J.of_string (J.to_string doc) in
  checkb "chrome trace round-trips through Export.of_string" true
    (reparsed = doc);
  (match doc with
  | J.Obj fields ->
      checkb "schema tagged" true
        (List.assoc_opt "schema" fields = Some (J.String "snowboard-trace/1"));
      (match List.assoc_opt "traceEvents" fields with
      | Some (J.List l) ->
          (* two thread_name metadata records (scheduler + vCPU 0/1) plus
             one record per event *)
          checki "metadata + events"
            (3 + List.length synthetic_events)
            (List.length l)
      | _ -> Alcotest.fail "no traceEvents list")
  | _ -> Alcotest.fail "chrome_json is not an object");
  off ()

let test_chrome_rebased_timestamps () =
  E.configure ~enabled:true ();
  let doc = Obs.Timeline.chrome_json synthetic_events in
  let ts =
    match doc with
    | J.Obj fields -> (
        match List.assoc_opt "traceEvents" fields with
        | Some (J.List l) ->
            List.filter_map
              (function
                | J.Obj f -> (
                    match List.assoc_opt "ts" f with
                    | Some (J.Int t) -> Some t
                    | _ -> None)
                | _ -> None)
              l
        | _ -> [])
    | _ -> []
  in
  checkb "timestamps rebased to trial start" true (List.mem 0 ts);
  checkb "all timestamps non-negative" true (List.for_all (fun t -> t >= 0) ts);
  off ()

let test_interleaving_report () =
  E.configure ~enabled:true ();
  let s = Obs.Timeline.interleaving synthetic_events in
  let has needle = Testutil.Astring_contains.contains s needle in
  checkb "column headers" true (has "vCPU 0" && has "vCPU 1");
  checkb "trial lines rendered" true
    (has "trial begins: 2 threads" && has "trial ends: ok");
  checkb "switch rendered full-width" true (has "switch vCPU 0 -> vCPU 1");
  checkb "PMC write->read edge drawn" true (has "PMC write -> read edge (0x2000)");
  checkb "verdict rendered" true (has "VERDICT data-race (issue #13)");
  off ()

(* ---------------- end to end on a seeded buggy run ---------------- *)

let env = lazy (Exec.make_env Kernel.Config.all_buggy)

(* A buggy trial for issue #1 (msgget id race): explore the scenario
   under Snowboard hints until the issue fires, and keep the trial's
   recorded replay trace. *)
let buggy =
  lazy
    (let e = Lazy.force env in
     let s = Option.get (Scenarios.find 1) in
     let _, hints = Scenarios.identify e (Scenarios.progs s) in
     let rec hunt seed = function
       | [] -> Alcotest.fail "issue #1 did not reproduce (seed exhausted?)"
       | hint :: rest -> (
           let r =
             Explore.run e ~ident:None ~writer:s.Scenarios.writer
               ~reader:s.Scenarios.reader ~hint:(Some hint)
               ~kind:Explore.Snowboard ~trials:64 ~seed ~stop_on_bug:true
               ~target_issue:(Some 1) ()
           in
           match
             List.find_opt
               (fun (t : Explore.trial) -> List.mem 1 t.Explore.issues)
               r.Explore.trials
           with
           | Some t -> (s, t)
           | None -> hunt seed rest)
     in
     hunt 1001 hints)

(* Re-execute a replay trace with the recorder on; returns the verdict
   issues and the captured events. *)
let replay_with_recorder e (s : Scenarios.scenario) trace =
  E.configure ~enabled:true ();
  let c =
    Explore.check e
      ~progs:[| s.Scenarios.writer; s.Scenarios.reader |]
      ~policy:(Replay.replay trace) ()
  in
  let events = E.events () in
  off ();
  (Detectors.Oracle.issues c.Explore.findings, events)

let test_replay_reproduces_verdict () =
  let e = Lazy.force env in
  let s, trial = Lazy.force buggy in
  (* through the serialised form, as `snowboard explain` consumes it *)
  let trace =
    Option.get (Replay.of_string (Replay.to_string trial.Explore.replay))
  in
  let issues, events = replay_with_recorder e s trace in
  checkb "stored verdict reproduces" true (List.mem 1 issues);
  checkb "events were recorded" true (events <> []);
  checkb "a verdict event is in the trace" true
    (List.exists
       (fun (ev : E.t) ->
         match ev.E.kind with E.Verdict { issue; _ } -> issue = Some 1 | _ -> false)
       events);
  checkb "trial bracketed by begin/end" true
    (match (events, List.rev events) with
    | first :: _, last :: _ -> (
        (match first.E.kind with E.Trial_begin _ -> true | _ -> false)
        &&
        match last.E.kind with
        | E.Verdict _ | E.Trial_end _ -> true
        | _ -> false)
    | _ -> false)

let test_deterministic_trace_is_byte_stable () =
  let e = Lazy.force env in
  let s, trial = Lazy.force buggy in
  let render () =
    let _, events = replay_with_recorder e s trial.Explore.replay in
    E.configure ~enabled:true ();
    let chrome = J.to_string (Obs.Timeline.chrome_json events) in
    let text = Obs.Timeline.interleaving events in
    off ();
    (chrome, text)
  in
  let c1, t1 = render () in
  let c2, t2 = render () in
  checks "chrome trace byte-stable" c1 c2;
  checks "interleaving report byte-stable" t1 t2;
  checkb "chrome trace parses" true (J.of_string_opt c1 <> None)

let test_exploration_records_hint_events () =
  let e = Lazy.force env in
  let s, trial = Lazy.force buggy in
  let _, events = replay_with_recorder e s trial.Explore.replay in
  checkb "syscall events recorded" true
    (List.exists
       (fun (ev : E.t) ->
         match ev.E.kind with E.Syscall_enter _ -> true | _ -> false)
       events);
  checkb "shared accesses recorded with contexts" true
    (List.exists
       (fun (ev : E.t) ->
         match ev.E.kind with E.Access { ctx; _ } -> ctx <> "" | _ -> false)
       events);
  checkb "vclock is non-decreasing" true
    (let rec mono = function
       | (a : E.t) :: (b : E.t) :: rest ->
           a.E.vclock <= b.E.vclock && mono (b :: rest)
       | _ -> true
     in
     mono events)

let test_bug_report_carries_replay () =
  let e = Lazy.force env in
  let s, _ = Lazy.force buggy in
  let _, hints = Scenarios.identify e (Scenarios.progs s) in
  let r =
    Explore.run e ~ident:None ~writer:s.Scenarios.writer
      ~reader:s.Scenarios.reader
      ~hint:(Some (List.hd hints))
      ~kind:Explore.Snowboard ~trials:8 ~seed:1001 ~stop_on_bug:false ()
  in
  (* every trial carries a replay trace, buggy or not *)
  checkb "every trial records decisions" true
    (List.for_all
       (fun (t : Explore.trial) -> Replay.length t.Explore.replay >= 0)
       r.Explore.trials);
  match
    Harness.Pipeline.bug_of_result ~test_idx:1 ~writer:s.Scenarios.writer
      ~reader:s.Scenarios.reader r
  with
  | None -> ()  (* nothing fired in 8 trials: nothing to check *)
  | Some b ->
      checkb "bug report replay parses" true
        (Replay.of_string b.Harness.Pipeline.br_replay <> None);
      let j = Harness.Report.json_of_bug b in
      let s' = J.to_string j in
      checkb "bug JSON round-trips" true (J.of_string s' = j)

let () =
  Alcotest.run "flight"
    [
      ( "ring",
        [
          Alcotest.test_case "wraparound keeps newest" `Quick
            test_ring_wraparound;
          Alcotest.test_case "disabled is a no-op" `Quick test_disabled_noop;
          Alcotest.test_case "reset keeps config" `Quick test_reset_keeps_config;
          Alcotest.test_case "virtual clock stamps" `Quick
            test_virtual_clock_stamps;
        ] );
      ( "exporters",
        [
          Alcotest.test_case "chrome trace round-trips" `Quick
            test_chrome_roundtrip;
          Alcotest.test_case "timestamps rebased" `Quick
            test_chrome_rebased_timestamps;
          Alcotest.test_case "interleaving report" `Quick
            test_interleaving_report;
        ] );
      ( "end-to-end",
        [
          Alcotest.test_case "replay reproduces verdict" `Slow
            test_replay_reproduces_verdict;
          Alcotest.test_case "deterministic trace byte-stable" `Slow
            test_deterministic_trace_is_byte_stable;
          Alcotest.test_case "recorder sees executor events" `Slow
            test_exploration_records_hint_events;
          Alcotest.test_case "bug report carries replay" `Slow
            test_bug_report_carries_replay;
        ] );
    ]
