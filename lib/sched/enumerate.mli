(** CHESS-style bounded exhaustive schedule enumeration (iterative
    context bounding) over the deterministic executor: every schedule
    with at most [preemption_bound] preemptions at shared-access
    boundaries runs exactly once.  Use as a verifier (exhausting the
    bound proves absence of findings within it) or as a baseline
    quantifying what PMC hints buy. *)

type result = {
  executions : int;
  decision_points : int;  (** of the preemption-free schedule *)
  issues : int list;
  first_bug_execution : int option;
  exhausted : bool;  (** the whole bounded space was covered *)
}

val vector_policy :
  first:int -> positions:int list -> count:int ref -> Exec.policy
(** The policy {!run} executes one schedule under: thread [first] starts,
    and it preempts at exactly the given global shared-access indices
    (1-based), counting the shared accesses it sees in [count].
    Event-only: it reads nothing but the sink's shared accesses. *)

val run :
  Exec.env ->
  writer:Fuzzer.Prog.t ->
  reader:Fuzzer.Prog.t ->
  ?preemption_bound:int ->
  ?max_executions:int ->
  ?stop_on_bug:bool ->
  unit ->
  result
(** Raises [Invalid_argument] on a negative [preemption_bound] (default
    2), before running anything. *)
