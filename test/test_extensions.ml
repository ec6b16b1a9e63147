(* Tests for the section 6 extensions: record/replay of interleavings,
   post-mortem race diagnosis, N-thread execution, PMC chains and the
   three-thread relay order violation. *)

module Abi = Kernel.Abi
module P = Fuzzer.Prog
module Exec = Sched.Exec

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let env = lazy (Exec.make_env Kernel.Config.all_buggy)

let relay op = { P.nr = Abi.sys_relay; args = [ P.Const op ] }

let producer : P.t = [ relay 1 ]
let forwarder : P.t = [ relay 2 ]
let consumer : P.t = [ relay 3 ]

(* ---------------- record / replay ---------------- *)

let test_replay_roundtrip () =
  let e = Lazy.force env in
  let s = List.nth Harness.Scenarios.all 11 (* #12 l2tp *) in
  let writer = s.Harness.Scenarios.writer and reader = s.Harness.Scenarios.reader in
  let rng = Random.State.make [| 77 |] in
  let st = Sched.Policies.snowboard_state None in
  let rec_ = Sched.Replay.record (Sched.Policies.snowboard rng st) in
  let r1 = Exec.run_conc e ~writer ~reader ~policy:rec_.Sched.Replay.policy () in
  let trace = rec_.Sched.Replay.finish () in
  checkb "trace non-empty" true (Sched.Replay.length trace > 0);
  let r2 = Exec.run_conc e ~writer ~reader ~policy:(Sched.Replay.replay trace) () in
  checkb "replay: same step count" true (r1.Exec.cc_steps = r2.Exec.cc_steps);
  checkb "replay: same switches" true (r1.Exec.cc_switches = r2.Exec.cc_switches);
  checkb "replay: same accesses" true (r1.Exec.cc_accesses = r2.Exec.cc_accesses);
  checkb "replay: same console" true (r1.Exec.cc_console = r2.Exec.cc_console)

let test_replay_serialisation () =
  let t = { Sched.Replay.t_first = 1; t_decisions = "101" } in
  (match Sched.Replay.of_string (Sched.Replay.to_string t) with
  | Some t' ->
      checkb "roundtrip" true (t' = t);
      checki "switch count" 2 (Sched.Replay.num_switches t')
  | None -> Alcotest.fail "serialisation roundtrip failed");
  checkb "garbage rejected" true (Sched.Replay.of_string "nonsense" = None);
  checkb "bad body rejected" true (Sched.Replay.of_string "1:01x" = None)

let test_replay_reproduces_bug () =
  (* find a bug-triggering interleaving, then replay it and get the same
     console line - the paper's deterministic reproduction claim *)
  let e = Lazy.force env in
  let s = List.nth Harness.Scenarios.all 0 (* #1 rhashtable *) in
  let _, hints = Harness.Scenarios.identify e (Harness.Scenarios.progs s) in
  let found = ref None in
  List.iter
    (fun hint ->
      for seed = 1 to 100 do
        if !found = None then begin
          let rng = Random.State.make [| seed |] in
          let st = Sched.Policies.snowboard_state (Some hint) in
          let rec_ = Sched.Replay.record (Sched.Policies.snowboard rng st) in
          let r =
            Exec.run_conc e ~writer:s.Harness.Scenarios.writer
              ~reader:s.Harness.Scenarios.reader
              ~policy:rec_.Sched.Replay.policy ()
          in
          if r.Exec.cc_panicked then
            found := Some (rec_.Sched.Replay.finish (), r)
        end
      done)
    hints;
  match !found with
  | None -> Alcotest.fail "bug not found within the recorded-trial budget"
  | Some (trace, orig) ->
      let r =
        Exec.run_conc e ~writer:s.Harness.Scenarios.writer
          ~reader:s.Harness.Scenarios.reader
          ~policy:(Sched.Replay.replay trace) ()
      in
      checkb "replayed panic" true r.Exec.cc_panicked;
      checkb "same console" true (r.Exec.cc_console = orig.Exec.cc_console)

(* ---------------- post-mortem ---------------- *)

let test_postmortem () =
  let e = Lazy.force env in
  let s = List.nth Harness.Scenarios.all 13 (* #14 tty *) in
  let ident, _ = Harness.Scenarios.identify e (Harness.Scenarios.progs s) in
  (* run dense random trials until tty races are among the reports; a
     write-write race on the flags word and the write-read race both map
     to #14, but only the write-read pair is a PMC verbatim *)
  let tty_races = ref [] in
  for seed = 1 to 50 do
    if !tty_races = [] then begin
      let rng = Random.State.make [| seed |] in
      let c =
        Sched.Explore.check e
          ~progs:[| s.Harness.Scenarios.writer; s.Harness.Scenarios.reader |]
          ~policy:(Sched.Policies.naive rng ~period:2)
          ()
      in
      tty_races :=
        List.filter
          (fun r -> Detectors.Oracle.issue_of_race r = Some 14)
          c.Sched.Explore.races
    end
  done;
  match !tty_races with
  | [] -> Alcotest.fail "tty race not among reports"
  | races ->
      let ds =
        List.map
          (fun r ->
            Detectors.Postmortem.diagnose ~image:e.Exec.kern.Kernel.image ~ident r)
          races
      in
      List.iter
        (fun d ->
          checkb "region named" true
            (d.Detectors.Postmortem.region = Some "uart_port");
          checkb "issue triaged" true (d.Detectors.Postmortem.issue = Some 14))
        ds;
      checkb "some report predicted by a PMC" true
        (List.exists (fun d -> d.Detectors.Postmortem.predicted) ds);
      let s = Format.asprintf "%a" Detectors.Postmortem.pp (List.hd ds) in
      checkb "report mentions the object" true
        (Testutil.Astring_contains.contains s "uart_port")

(* ---------------- N-thread execution ---------------- *)

let test_run_multi_three () =
  let e = Lazy.force env in
  (* switches after *every* instruction, including event-free ones, so
     it must keep the per-instruction loop *)
  let policy =
    {
      Exec.first = 0;
      decide = (fun _ _ -> true);
      event_only = false;
      on_plain = ignore;
    }
  in
  let progs =
    [|
      [ { P.nr = Abi.sys_msgget; args = [ P.Const 1 ] } ];
      [ { P.nr = Abi.sys_msgget; args = [ P.Const 2 ] } ];
      [ { P.nr = Abi.sys_msgget; args = [ P.Const 3 ] } ];
    |]
  in
  let res = Exec.run_multi e ~progs ~policy () in
  checkb "no deadlock" false res.Exec.cc_deadlocked;
  let ids = Array.to_list (Array.map (fun rv -> rv.(0)) res.Exec.cc_retvals) in
  checkb "three distinct msq ids" true
    (List.sort_uniq compare ids = List.sort compare ids);
  checkb "all threads traced" true
    (Array.for_all (fun l -> l <> []) res.Exec.cc_accesses)

let test_run_multi_bounds () =
  let e = Lazy.force env in
  let policy =
    {
      Exec.first = 0;
      decide = (fun _ _ -> false);
      event_only = true;
      on_plain = ignore;
    }
  in
  Alcotest.check_raises "too many threads"
    (Invalid_argument "exec: unsupported thread count") (fun () ->
      ignore
        (Exec.run_multi e
           ~progs:(Array.make (Vmm.Layout.max_threads + 1) producer)
           ~policy ()))

let test_race_detector_three_threads () =
  (* a write by t0 races with reads by both t1 and t2 *)
  let d = Detectors.Race.create ~nthreads:3 () in
  let acc ~t ~pc kind =
    {
      Vmm.Trace.thread = t;
      pc;
      addr = 0x200;
      size = 8;
      kind;
      value = 1;
      atomic = false;
      sp = Vmm.Layout.stack_top t - 64;
    }
  in
  Detectors.Race.on_access d (acc ~t:0 ~pc:1 Vmm.Trace.Write) ~ctx:"w";
  Detectors.Race.on_access d (acc ~t:1 ~pc:2 Vmm.Trace.Read) ~ctx:"r1";
  Detectors.Race.on_access d (acc ~t:2 ~pc:3 Vmm.Trace.Read) ~ctx:"r2";
  checki "both reader races reported" 2 (Detectors.Race.num_reports d)

(* ---------------- relay semantics + chains ---------------- *)

let test_relay_sequential () =
  let e = Lazy.force env in
  let r =
    Exec.run_seq e ~tid:0 [ relay 1; relay 2; relay 3; relay 0 ]
  in
  checkb "no panic" false r.Exec.sq_panicked;
  checki "forward found a message" 1 r.Exec.sq_retvals.(1);
  checkb "consume read a payload byte" true (r.Exec.sq_retvals.(2) > 0);
  checki "bad op" Abi.einval r.Exec.sq_retvals.(3)

let test_chain_identification () =
  let e = Lazy.force env in
  let profiles =
    List.mapi
      (fun i p ->
        Core.Profile.of_accesses ~test_id:i
          (Exec.run_seq ~accesses:true e ~tid:0 p).Exec.sq_accesses)
      [ producer; forwarder; consumer ]
  in
  let ident = Core.Identify.run profiles in
  let chains = Core.Chain.find ident in
  checkb "a chain exists" true (chains <> []);
  List.iter
    (fun (ch : Core.Chain.t) ->
      let a, b, c = ch.Core.Chain.tests in
      checkb "tests distinct" true (a <> b && b <> c && a <> c))
    chains;
  (* the relay chain: producer(0) -> forwarder(1) -> consumer(2) *)
  checkb "relay chain found" true
    (List.exists (fun ch -> ch.Core.Chain.tests = (0, 1, 2)) chains)

let test_two_threads_cannot_crash_relay () =
  let e = Lazy.force env in
  List.iter
    (fun (w, r) ->
      let res =
        Sched.Explore.run e ~ident:None ~writer:w ~reader:r ~hint:None
          ~kind:(Sched.Explore.Naive 2) ~trials:64 ~seed:5 ~stop_on_bug:false ()
      in
      checkb "two-thread relay clean" true
        (not (List.mem 18 (Sched.Explore.issues_found res))))
    [ (producer, forwarder); (producer, consumer); (forwarder, consumer) ]

let test_three_threads_crash_relay () =
  (* the chain hunt [snowboard three] and the bench run *)
  let h = Harness.Scenarios.hunt_relay (Lazy.force env) ~seed:100 in
  checkb "three-thread crash found via chain hints" true
    (match h.Harness.Scenarios.crash with
    | Some (_, res) -> List.mem 18 (Sched.Explore.issues_found res)
    | None -> false)

let test_three_threads_need_the_chain_hints () =
  (* without chain hints the Algorithm 2 policy has no switch points, so
     threads serialise and the window never opens: the hints do the work *)
  let e = Lazy.force env in
  let res =
    Sched.Explore.run_chain e
      ~progs:[| producer; forwarder; consumer |]
      ~chain:None ~trials:64 ~seed:77 ~stop_on_bug:true ()
  in
  checkb "hint-free three-thread run stays silent" true
    (not (List.mem 18 (Sched.Explore.issues_found res)))

let test_relay_fixed_clean () =
  let e = Exec.make_env Kernel.Config.all_fixed in
  let res =
    Sched.Explore.run_chain e
      ~progs:[| producer; forwarder; consumer |]
      ~chain:None ~trials:32 ~seed:9 ~stop_on_bug:false ()
  in
  checkb "fixed relay silent" true (Sched.Explore.issues_found res = [])

let tests =
  [
    Alcotest.test_case "replay roundtrip" `Quick test_replay_roundtrip;
    Alcotest.test_case "replay serialisation" `Quick test_replay_serialisation;
    Alcotest.test_case "replay reproduces a bug" `Slow test_replay_reproduces_bug;
    Alcotest.test_case "postmortem diagnosis" `Quick test_postmortem;
    Alcotest.test_case "run_multi three threads" `Quick test_run_multi_three;
    Alcotest.test_case "run_multi bounds" `Quick test_run_multi_bounds;
    Alcotest.test_case "race detector three threads" `Quick
      test_race_detector_three_threads;
    Alcotest.test_case "relay sequential" `Quick test_relay_sequential;
    Alcotest.test_case "chain identification" `Quick test_chain_identification;
    Alcotest.test_case "two threads cannot crash relay" `Slow
      test_two_threads_cannot_crash_relay;
    Alcotest.test_case "three threads crash relay" `Slow
      test_three_threads_crash_relay;
    Alcotest.test_case "three threads need the hints" `Quick
      test_three_threads_need_the_chain_hints;
    Alcotest.test_case "fixed relay clean" `Quick test_relay_fixed_clean;
  ]

let () = Alcotest.run "extensions" [ ("section6", tests) ]
