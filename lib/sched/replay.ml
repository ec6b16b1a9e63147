(* Deterministic bug reproduction (paper section 6, "Bug Diagnosis and
   Deterministic Reproduction").

   The guest machine is deterministic; the only non-determinism in a
   trial is the scheduling policy's switch decisions.  [record] wraps a
   policy and captures every decision; [replay] re-applies a captured
   trace verbatim, so a bug-triggering interleaving can be re-executed
   exactly - under a debugger, with extra observers, or against a
   patched kernel to confirm a fix. *)

type trace = { t_first : int; t_decisions : string; t_event_only : bool }
(* [t_decisions] holds one '0' (no switch) or '1' (switch) per [decide]
   call, the body of [to_string]: a recorder finishes a trace with one
   copy of its buffer.  [t_event_only] is the cadence the executor
   consulted the recorded policy at: once per concurrent block (the
   policy's [event_only]) or once per instruction. *)

type recorder = { policy : Exec.policy; finish : unit -> trace }

(* Wrap a policy, capturing one byte per consultation. *)
let record (inner : Exec.policy) =
  let buf = Buffer.create 256 in
  let decide tid evs =
    let d = inner.Exec.decide tid evs in
    Buffer.add_char buf (if d then '1' else '0');
    d
  in
  {
    policy = { inner with Exec.decide };
    finish =
      (fun () ->
        {
          t_first = inner.Exec.first;
          t_decisions = Buffer.contents buf;
          t_event_only = inner.Exec.event_only;
        });
  }

(* Re-apply a captured trace at the cadence it was recorded at, so the
   executor consults the replayer exactly where it consulted the
   recorded policy.  Decisions beyond the trace length default to "no
   switch" (they can only be reached if the execution diverged, which
   the deterministic guest rules out for an unchanged kernel). *)
let replay (t : trace) : Exec.policy =
  let idx = ref 0 in
  let decide _tid _evs =
    if !idx < String.length t.t_decisions then begin
      let d = t.t_decisions.[!idx] = '1' in
      incr idx;
      d
    end
    else false
  in
  { Exec.first = t.t_first; decide; event_only = t.t_event_only }

let length t = String.length t.t_decisions

let num_switches t =
  let n = ref 0 in
  String.iter (fun c -> if c = '1' then incr n) t.t_decisions;
  !n

(* Serialise for storage alongside a bug report: ["FIRST:BITS"] per
   instruction, the only form older reports hold, and ["FIRST;BITS"]
   per block, which an older reader rejects rather than misreplays. *)
let to_string t =
  Printf.sprintf "%d%c%s" t.t_first
    (if t.t_event_only then ';' else ':')
    t.t_decisions

let of_string s =
  let parse i t_event_only =
    let body = String.sub s (i + 1) (String.length s - i - 1) in
    match int_of_string_opt (String.sub s 0 i) with
    | Some t_first when String.for_all (fun c -> c = '0' || c = '1') body ->
        Some { t_first; t_decisions = body; t_event_only }
    | _ -> None
  in
  match (String.index_opt s ':', String.index_opt s ';') with
  | Some i, None -> parse i false
  | None, Some i -> parse i true
  | _ -> None
