(* Deterministic fault injection (see fault.mli for the model).

   Draws are a pure function of (seed, test, trial, attempt) via a
   splitmix-style integer hash, so fault schedules reproduce exactly
   across re-runs and across checkpoint/resume boundaries, and keying on
   the attempt makes injected failures transient under retry. *)

type spec = {
  timeout_rate : float;
  crash_rate : float;
  truncate_rate : float;
}

let none = { timeout_rate = 0.; crash_rate = 0.; truncate_rate = 0. }

let is_none s = s = none

let rate_ok r = r >= 0. && r <= 1.

let of_string s =
  let parse_field acc field =
    match acc with
    | Error _ as e -> e
    | Ok spec -> (
        match String.index_opt field ':' with
        | None -> Error (Printf.sprintf "expected NAME:RATE, got %S" field)
        | Some i -> (
            let name = String.trim (String.sub field 0 i) in
            let rate_s =
              String.trim (String.sub field (i + 1) (String.length field - i - 1))
            in
            match float_of_string_opt rate_s with
            | None -> Error (Printf.sprintf "bad rate %S for fault %S" rate_s name)
            | Some r when not (rate_ok r) ->
                Error (Printf.sprintf "rate %g for fault %S outside [0, 1]" r name)
            | Some r -> (
                match name with
                | "timeout" -> Ok { spec with timeout_rate = r }
                | "crash" -> Ok { spec with crash_rate = r }
                | "truncate" -> Ok { spec with truncate_rate = r }
                | _ ->
                    Error
                      (Printf.sprintf
                         "unknown fault %S (expected timeout, crash or truncate)"
                         name))))
  in
  let fields = String.split_on_char ',' (String.trim s) in
  match fields with
  | [] | [ "" ] -> Error "empty fault spec"
  | _ -> (
      match List.fold_left parse_field (Ok none) fields with
      | Error _ as e -> e
      | Ok spec ->
          if spec.timeout_rate +. spec.crash_rate +. spec.truncate_rate > 1. then
            Error "fault rates sum to more than 1"
          else Ok spec)

let to_string s =
  Printf.sprintf "timeout:%g,crash:%g,truncate:%g" s.timeout_rate s.crash_rate
    s.truncate_rate

type plan = { seed : int; spec : spec }

let plan ~seed spec = { seed; spec }

let disabled = { seed = 0; spec = none }

type verdict = No_fault | Timeout | Crash of int | Truncate of int

(* splitmix-style finalizer on the native int; overflow wraps, which is
   exactly what a mixing function wants.  The 64-bit multipliers exceed
   OCaml's 63-bit int literals, so truncated variants are used — the
   avalanche is plenty for fault scheduling. *)
let m1 = 0x3F58476D1CE4E5B9
let m2 = 0x14D049BB133111EB

let mix x =
  let x = x lxor (x lsr 30) in
  let x = x * m1 in
  let x = x lxor (x lsr 27) in
  let x = x * m2 in
  x lxor (x lsr 31)

let hash p ~test ~trial ~attempt =
  mix (p.seed + mix (test + mix (trial + mix (attempt + 0x9E3779B9))))

(* 24 uniform bits -> [0, 1) *)
let unit_float h = float_of_int ((h lsr 3) land 0xFFFFFF) /. 16777216.

(* Injected crashes / truncations fire a deterministic number of steps
   into the trial - late enough that the run is clearly underway. *)
let fault_step h = 50 + ((h lsr 27) land 0x1FF)

let draw p ~test ~trial ~attempt =
  if is_none p.spec then No_fault
  else
    let h = hash p ~test ~trial ~attempt in
    let u = unit_float h in
    if u < p.spec.timeout_rate then Timeout
    else if u < p.spec.timeout_rate +. p.spec.crash_rate then
      Crash (fault_step h)
    else if
      u < p.spec.timeout_rate +. p.spec.crash_rate +. p.spec.truncate_rate
    then Truncate (fault_step h)
    else No_fault

exception Injected_crash of string
exception Trace_truncated of string
exception Watchdog_timeout of int

let describe = function
  | Injected_crash msg -> "vm crash: " ^ msg
  | Trace_truncated msg -> "trace truncated: " ^ msg
  | Watchdog_timeout steps ->
      Printf.sprintf "watchdog timeout after %d guest steps" steps
  | e -> Printexc.to_string e
