(** Nested wall-clock phase spans with parent attribution and per-span
    counter deltas.  Spans belong to the main domain (the orchestration
    layer): [start]/[stop] from worker domains are silent no-ops and
    [with_span] just runs its body there, so the main domain's span tree
    stays intact under concurrency; workers should only touch
    {!Metrics}. *)

type span = {
  name : string;
  dur_us : int;  (** wall-clock duration in microseconds, always >= 1 *)
  children : span list;  (** in execution order *)
  deltas : (string * int) list;
      (** counters that grew while the span was open, with their growth,
          sorted by name *)
}

val start : string -> unit
(** Open a span; it becomes a child of the innermost open span, if any.
    A no-op on a worker domain. *)

val stop : unit -> unit
(** Close the innermost open span (no-op on an empty stack). *)

val with_span : string -> (unit -> 'a) -> 'a
(** [with_span name f] runs [f] inside a span; the span is closed even if
    [f] raises.  On a worker domain this is exactly [f ()]. *)

val roots : unit -> span list
(** All finished top-level spans, oldest first. *)

val reset : unit -> unit
(** Drop all finished spans and abandon any open ones. *)

val depth : span -> int
(** Height of a span tree (a leaf has depth 1). *)
