(** Rendering the registry as an aligned text table and as deterministic
    JSON, plus the tiny JSON value type other layers use to build
    machine-readable artifacts through the same printer. *)

type json =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of json list
  | Obj of (string * json) list

val to_string : json -> string
(** Pretty-print with 2-space indentation, fields in the given order, and
    a trailing newline. *)

val to_line : json -> string
(** Compact single-line form (no whitespace, no trailing newline) used
    for NDJSON streams; parseable by {!of_string}. *)

exception Parse_error of string

val of_string : string -> json
(** Parse a JSON document; inverse of [to_string] up to whitespace.
    Any malformed input — trailing garbage, unterminated strings or
    containers, bad escapes — raises {!Parse_error} and nothing else. *)

val of_string_opt : string -> json option
(** [of_string] with the {!Parse_error} mapped to [None]. *)

val is_nondeterministic_unit : string -> bool
(** True for units whose values derive from the wall clock — elapsed time
    (["us"], ["ms"], ["ns"], ["s"]) and any per-second rate (a unit
    ending in ["/s"], e.g. ["instr/s"], ["trials/s"], ["pages/s"]) — and
    for units with a leading ['~'], the opt-in marker for metrics whose
    values depend on OS scheduling timing without being clocks (the
    ["~page"] count of pages a restore copies).  Deterministic artifacts
    scrub metrics carrying such units. *)

val metrics_json : ?deterministic:bool -> unit -> json
(** The registry as a JSON list, sorted by metric name.  In deterministic
    mode, metrics whose unit satisfies {!is_nondeterministic_unit} are
    omitted so the output is a pure function of the seed. *)

val openmetrics : ?deterministic:bool -> unit -> string
(** The registry as OpenMetrics/Prometheus text exposition: counters as
    [name_total], gauges plain, histograms with cumulative power-of-two
    [_bucket{le="..."}] series plus [_sum]/[_count], each family preceded
    by a [# TYPE] line, terminated by [# EOF].  Deterministic mode scrubs
    the same units as {!metrics_json}. *)

val openmetrics_valid : string -> bool
(** Structural validity check for an OpenMetrics exposition (used by
    tests and the bench harness): legal names, numeric values, families
    declared by [# TYPE] before their samples, counters sampled via
    [_total], cumulative histogram buckets, mandatory [# EOF]
    terminator with nothing after it. *)

val registry_json :
  ?deterministic:bool -> ?extra:(string * json) list -> unit -> json
(** The full artifact: schema tag, metrics, spans and any [extra]
    top-level fields (e.g. a campaign summary). *)

val table : unit -> string
(** Aligned text table of every metric followed by the span tree. *)

val write_file : ?site:string -> string -> json -> unit
(** Atomically write the rendered JSON through
    {!Storage.write_atomic} at crashpoint [site] (default
    ["artifact"]).  Raises [Sys_error] only after the storage layer's
    bounded retries are exhausted (the degradation is also recorded in
    {!Storage.degraded}). *)
