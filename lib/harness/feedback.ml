(* Feedback-based concurrent-test exploration - the future work the paper
   names at the end of section 4.4 ("our current design does not perform
   feedback-based exploration").

   The loop generalises sequential coverage-guided fuzzing to the
   concurrent setting:

     1. start from exemplar concurrent tests (S-INS-PAIR order);
     2. execute each and measure its *communication coverage*: the set of
        (write pc, read pc) instruction pairs that actually communicated
        across threads during the trials (the dynamic realisation of the
        instruction-pair coverage metric the paper borrows from Krace);
     3. tests that contributed new pairs are kept as parents; their
        writer/reader programs are mutated, re-profiled, re-identified,
        and the offspring join the queue with fresh PMC hints.

   The communication-coverage metric is computed from the per-thread
   shared-access lists of each trial, so it needs no new instrumentation. *)

module Exec = Sched.Exec
module Trace = Vmm.Trace

type t = {
  env : Exec.env;
  seen_pairs : (int * int, unit) Hashtbl.t;  (* (write pc, read pc) *)
  mutable executed : int;
  mutable issues : (int * int) list;  (* issue, test index *)
  mutable coverage_curve : int list;  (* coverage after each test, rev *)
}

let create env =
  {
    env;
    seen_pairs = Hashtbl.create 1024;
    executed = 0;
    issues = [];
    coverage_curve = [];
  }

let coverage t = Hashtbl.length t.seen_pairs

(* Communicating instruction pairs of one trial: cross-thread overlapping
   (write, read) accesses.  Quadratic in the per-thread access counts,
   which are small (hundreds). *)
let comm_pairs (res : Exec.conc_result) =
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

(* Execute one candidate and fold its coverage in; returns true if it
   contributed a new communicating pair. *)
let execute t ~writer ~reader ~hint ~ident ~trials ~seed =
  t.executed <- t.executed + 1;
  let st = Sched.Policies.snowboard_state hint in
  let novel = ref false in
  let progs = [| writer; reader |] in
  for trial = 0 to trials - 1 do
    let rng = Random.State.make [| seed + trial |] in
    let policy = Sched.Policies.snowboard rng st in
    let { Sched.Explore.run = res; findings; _ } =
      Sched.Explore.check t.env ~progs ~policy ()
    in
    Hashtbl.iter
      (fun pair () ->
        if not (Hashtbl.mem t.seen_pairs pair) then begin
          Hashtbl.replace t.seen_pairs pair ();
          novel := true
        end)
      (comm_pairs res);
    List.iter
      (fun id ->
        if not (List.mem_assoc id t.issues) then
          t.issues <- (id, t.executed) :: t.issues)
      (Detectors.Oracle.issues findings);
    (* grow the PMC set under test from what this trial observed *)
    match
      Core.Identify.find_incidental ident ~writes:res.Exec.cc_accesses.(0)
        ~reads:res.Exec.cc_accesses.(1)
        ~exclude:(fun p -> List.exists (Core.Pmc.equal p) st.Sched.Policies.current_pmcs)
    with
    | [] -> ()
    | p :: _ -> Sched.Policies.add_pmc st p
  done;
  t.coverage_curve <- coverage t :: t.coverage_curve;
  !novel

(* Derive offspring candidates from a parent pair: mutate both programs,
   profile the mutants and identify a fresh hint between them. *)
let mutate_pair t rng (writer, reader) =
  let mutate p = Fuzzer.Gen.mutate rng p in
  let w' = mutate writer and r' = mutate reader in
  let ident, hints = Scenarios.identify t.env [| w'; r' |] in
  ((w', r'), List.nth_opt hints 0, ident)

type result = {
  executed : int;
  comm_coverage : int;  (* distinct communicating instruction pairs *)
  issues : (int * int) list;
  coverage_curve : int list;  (* coverage after each executed test *)
}

(* The feedback loop: seed with a plan, then breed from coverage-novel
   parents until the budget is spent. *)
let run (p : Pipeline.t) ~budget ~trials ~seed =
  let t = create p.Pipeline.env in
  let rng = Random.State.make [| seed |] in
  let corpus_ids =
    List.map
      (fun (e : Fuzzer.Corpus.entry) -> e.Fuzzer.Corpus.id)
      (Fuzzer.Corpus.to_list p.Pipeline.corpus)
  in
  let plan =
    Core.Select.plan (Core.Select.Strategy Core.Cluster.S_INS_PAIR)
      p.Pipeline.ident
      ~clusters:(Frontier.clusters p.Pipeline.frontier)
      ~corpus_ids rng ~max:budget
  in
  let queue = Queue.create () in
  List.iter
    (fun (ct : Core.Select.conc_test) ->
      Queue.add
        ( (Pipeline.prog_of_id p ct.Core.Select.writer,
           Pipeline.prog_of_id p ct.Core.Select.reader),
          ct.Core.Select.hint,
          p.Pipeline.ident )
        queue)
    plan.Core.Select.tests;
  while t.executed < budget && not (Queue.is_empty queue) do
    let (writer, reader), hint, ident = Queue.pop queue in
    let novel =
      execute t ~writer ~reader ~hint ~ident ~trials
        ~seed:(seed + (1000 * t.executed))
    in
    if novel && t.executed < budget then begin
      (* coverage-novel parents breed two offspring *)
      for _ = 1 to 2 do
        let pair, hint, ident = mutate_pair t rng (writer, reader) in
        if hint <> None then Queue.add (pair, hint, ident) queue
      done
    end
  done;
  {
    executed = t.executed;
    comm_coverage = coverage t;
    issues = List.sort compare t.issues;
    coverage_curve = List.rev t.coverage_curve;
  }
