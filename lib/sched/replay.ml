(* Deterministic bug reproduction (paper section 6, "Bug Diagnosis and
   Deterministic Reproduction").

   The guest machine is deterministic; the only non-determinism in a
   trial is the scheduling policy's switch decisions.  [record] wraps a
   policy and captures every decision; [replay] re-applies a captured
   trace verbatim, so a bug-triggering interleaving can be re-executed
   exactly - under a debugger, with extra observers, or against a
   patched kernel to confirm a fix. *)

type trace = { t_first : int; t_decisions : string }
(* [t_decisions] holds one '0' (no switch) or '1' (switch) per decision,
   the body of [to_string]: a recorder finishes a trace with one copy of
   its buffer. *)

type recorder = { policy : Exec.policy; finish : unit -> trace }

(* Wrap a policy, capturing its decisions.  Under a block-batching
   executor ([inner.event_only]), the instructions a block runs past
   skip the [decide] call; [on_plain] records the '0' each skipped
   consultation would have produced (in bulk, from [zeros]), so a trace
   recorded under batching is byte-identical to one recorded per-step —
   replaying either on either loop reproduces the same schedule. *)
let zeros = String.make 256 '0'

let record (inner : Exec.policy) =
  let buf = Buffer.create 256 in
  let decide tid evs =
    let d = inner.Exec.decide tid evs in
    Buffer.add_char buf (if d then '1' else '0');
    d
  in
  let on_plain k =
    let left = ref k in
    while !left > 0 do
      let m = if !left < String.length zeros then !left else String.length zeros in
      Buffer.add_substring buf zeros 0 m;
      left := !left - m
    done;
    inner.Exec.on_plain k
  in
  {
    policy =
      {
        Exec.first = inner.Exec.first;
        decide;
        event_only = inner.Exec.event_only;
        on_plain;
      };
    finish =
      (fun () ->
        { t_first = inner.Exec.first; t_decisions = Buffer.contents buf });
  }

(* Re-apply a captured trace.  Decisions beyond the trace length default
   to "no switch" (they can only be reached if the execution diverged,
   which the deterministic guest rules out for an unchanged kernel).
   The trace is indexed per instruction — including the '0's recorded
   for the instructions a batched block ran past — so replay declares [event_only =
   false], and the executor consults it after every instruction. *)
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
  { Exec.first = t.t_first; decide; event_only = false; on_plain = ignore }

let length t = String.length t.t_decisions

let num_switches t =
  let n = ref 0 in
  String.iter (fun c -> if c = '1' then incr n) t.t_decisions;
  !n

(* Serialise for storage alongside a bug report. *)
let to_string t = Printf.sprintf "%d:%s" t.t_first t.t_decisions

let of_string s =
  match String.index_opt s ':' with
  | None -> None
  | Some i -> (
      let body = String.sub s (i + 1) (String.length s - i - 1) in
      match int_of_string_opt (String.sub s 0 i) with
      | Some t_first when String.for_all (fun c -> c = '0' || c = '1') body ->
          Some { t_first; t_decisions = body }
      | _ -> None)
