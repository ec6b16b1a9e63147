(* Supervised trial execution (see supervise.mli for the model).

   The classification is deliberately conservative: only the explicitly
   transient taxonomy (injected crashes, truncated traces) is retried.
   A watchdog timeout is a pure function of the trial seed, so retrying
   it would burn the budget to learn nothing; an unknown exception could
   be a harness bug, so it is surfaced as Crashed rather than papered
   over with retries. *)

module Fault = Sched.Fault

let m_retries = Obs.Metrics.counter "snowboard.harness/retries"
let m_timeouts = Obs.Metrics.counter "snowboard.harness/watchdog_timeouts"
let m_crashes = Obs.Metrics.counter "snowboard.harness/crashes"
let m_quarantined = Obs.Metrics.counter "snowboard.harness/quarantined"

type outcome =
  | Ok
  | Timed_out of int
  | Crashed of string
  | Quarantined of string

let outcome_name = function
  | Ok -> "ok"
  | Timed_out _ -> "timeout"
  | Crashed _ -> "crashed"
  | Quarantined _ -> "quarantined"

let is_ok = function Ok -> true | _ -> false

let pp_outcome fmt = function
  | Ok -> Format.pp_print_string fmt "ok"
  | Timed_out steps -> Format.fprintf fmt "timeout after %d steps" steps
  | Crashed msg -> Format.fprintf fmt "crashed: %s" msg
  | Quarantined msg -> Format.fprintf fmt "quarantined: %s" msg

type policy = { step_budget : int option; max_retries : int }

let default = { step_budget = None; max_retries = 2 }

type 'a supervised = {
  sv_result : 'a option;
  sv_outcome : outcome;
  sv_retries : int;
}

let transient = function
  | Fault.Injected_crash _ | Fault.Trace_truncated _ -> true
  | _ -> false

let describe = Fault.describe

let emit_fault kind detail =
  if Obs.Event.enabled () then
    Obs.Event.emit ~tid:Obs.Event.sched_tid (Obs.Event.Fault { kind; detail })

let run ?(policy = default) f =
  let rec go ~attempt =
    match f ~attempt with
    | v -> { sv_result = Some v; sv_outcome = Ok; sv_retries = attempt }
    | exception Fault.Watchdog_timeout steps ->
        Obs.Metrics.incr m_timeouts;
        { sv_result = None; sv_outcome = Timed_out steps; sv_retries = attempt }
    | exception e when transient e ->
        if attempt >= policy.max_retries then begin
          Obs.Metrics.incr m_quarantined;
          emit_fault "quarantine" (describe e);
          {
            sv_result = None;
            sv_outcome = Quarantined (describe e);
            sv_retries = attempt;
          }
        end
        else begin
          let next = attempt + 1 in
          Obs.Metrics.incr m_retries;
          emit_fault "retry"
            (Printf.sprintf "attempt %d after %s" next (describe e));
          go ~attempt:next
        end
    | exception e ->
        Obs.Metrics.incr m_crashes;
        {
          sv_result = None;
          sv_outcome = Crashed (describe e);
          sv_retries = attempt;
        }
  in
  go ~attempt:0
