(** Feedback-based concurrent-test exploration: the future work named at
    the end of the paper's section 4.4.  Coverage-guided fuzzing lifted to
    the concurrent setting: the fitness signal is *communication
    coverage* - distinct (write pc, read pc) instruction pairs observed
    to communicate across threads - and coverage-novel test pairs breed
    mutated offspring with freshly identified PMC hints. *)

type result = {
  executed : int;  (** concurrent tests executed *)
  comm_coverage : int;  (** distinct communicating instruction pairs *)
  issues : (int * int) list;  (** issue id, test index at discovery *)
  coverage_curve : int list;  (** coverage after each executed test *)
}

val run : Pipeline.t -> budget:int -> trials:int -> seed:int -> result
(** Seed the queue with S-INS-PAIR exemplars from the prepared pipeline,
    then execute/breed until [budget] concurrent tests have run. *)

val comm_pairs : Sched.Exec.conc_result -> (int * int, unit) Hashtbl.t
(** One trial's communicating instruction pairs: each (write pc, read
    pc) of a thread-0 write and a thread-1 read, or a thread-1 write and
    a thread-0 read, whose byte ranges overlap, read by index from the
    trial's log ([cc_log]).  Raises [Invalid_argument] if a later run
    has reused that log. *)
