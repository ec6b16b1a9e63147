(* CHESS-style bounded exhaustive schedule enumeration.

   The paper's related work (section 7) credits CHESS and PCT with the
   theoretical foundations of schedule exploration; this module implements
   CHESS's iterative context bounding on top of the deterministic
   executor: every schedule with at most [preemption_bound] preemptions
   placed at shared-access boundaries is executed exactly once.

   Because the guest is deterministic, a schedule is fully described by
   the ordered set of global shared-access indices at which the running
   thread is preempted (plus which thread starts).  The search is a BFS
   over those vectors: running a vector reveals how many decision points
   the execution had, and its children append one later preemption each.

   Two uses:
   - as a *verifier*: on a patched kernel, exhausting the bound proves the
     absence of detector findings for every such schedule (the guarantee
     CHESS-style tools offer);
   - as a baseline: the number of executions it needs dwarfs Snowboard's
     PMC-guided handful, quantifying what the hints buy. *)

type result = {
  executions : int;
  decision_points : int;  (* of the preemption-free schedule *)
  issues : int list;
  first_bug_execution : int option;
  exhausted : bool;  (* the whole bounded space was covered *)
}

(* A policy that preempts exactly at the given global shared-access
   indices; returns the total decision points seen through [count]. *)
let vector_policy ~first ~(positions : int list) ~(count : int ref) : Exec.policy
    =
  let decide _tid (s : Vmm.Vm.sink) =
    let switch = ref false in
    for k = 0 to s.Vmm.Vm.sk_n_acc - 1 do
      if s.Vmm.Vm.sk_acc_shared.(k) then begin
        incr count;
        if List.mem !count positions then switch := true
      end
    done;
    !switch
  in
  (* counts *shared accesses*, not instructions, and reads nothing
     else: event-only, so batched blocks cannot skip a decision point *)
  { Exec.first = first; decide; event_only = true; on_plain = ignore }

let run (env : Exec.env) ~(writer : Fuzzer.Prog.t) ~(reader : Fuzzer.Prog.t)
    ?(preemption_bound = 2) ?(max_executions = 20_000) ?(stop_on_bug = false)
    () =
  let executions = ref 0 in
  let issues = ref [] in
  let first_bug = ref None in
  let exhausted = ref true in
  let base_points = ref 0 in
  let progs = [| writer; reader |] in
  (* queue of (first thread, preemption positions ascending) *)
  let queue = Queue.create () in
  Queue.add (0, []) queue;
  Queue.add (1, []) queue;
  (try
     while not (Queue.is_empty queue) do
       if !executions >= max_executions then begin
         exhausted := false;
         raise Exit
       end;
       let first, positions = Queue.pop queue in
       incr executions;
       let count = ref 0 in
       let policy = vector_policy ~first ~positions ~count in
       let found =
         Detectors.Oracle.issues
           (Explore.check env ~progs ~policy ()).Explore.findings
       in
       if found <> [] && !first_bug = None then begin
         first_bug := Some !executions;
         if stop_on_bug then begin
           issues := found @ !issues;
           raise Exit
         end
       end;
       issues := found @ !issues;
       if positions = [] && first = 0 then base_points := !count;
       (* children: one more preemption strictly after the last *)
       if List.length positions < preemption_bound then begin
         let from = match List.rev positions with p :: _ -> p + 1 | [] -> 1 in
         for p = from to !count do
           Queue.add (first, positions @ [ p ]) queue
         done
       end
     done
   with Exit -> ());
  {
    executions = !executions;
    decision_points = !base_points;
    issues = List.sort_uniq compare !issues;
    first_bug_execution = !first_bug;
    exhausted = !exhausted;
  }
