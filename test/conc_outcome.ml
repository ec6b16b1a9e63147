(* What two concurrent runs' results must share to match: every field of
   [Sched.Exec.conc_result] but the log view, whose generation differs
   between any two runs ([run_conc]'s per-thread lists carry the log's
   entries). *)
let outcome (r : Sched.Exec.conc_result) =
  ( r.Sched.Exec.cc_console,
    r.Sched.Exec.cc_panicked,
    r.Sched.Exec.cc_deadlocked,
    r.Sched.Exec.cc_steps,
    r.Sched.Exec.cc_switches,
    r.Sched.Exec.cc_accesses,
    r.Sched.Exec.cc_retvals )
