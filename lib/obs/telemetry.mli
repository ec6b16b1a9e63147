(** Live campaign telemetry: periodic registry+coverage snapshots
    streamed as NDJSON (one compact JSON object per line) plus an
    optional progress display on stderr.

    Cadence rule: in deterministic mode snapshots are driven by the
    virtual clock (guest instructions retired), so the stream is a pure
    function of the seed and two runs of the same configuration produce
    byte-identical files; otherwise a wall-clock period drives them.
    Phase boundaries always produce a snapshot.  All entry points are
    main-domain facilities and no-ops elsewhere, which is what keeps the
    deterministic stream stable under [--jobs] parallelism:
    workers merely feed the sharded metrics that the main domain
    snapshots at join points.

    Deterministic mode scrubs metrics with wall-derived units
    ({!Export.is_nondeterministic_unit}) and omits wall stamps/rates from
    the stream; the HUD may still show wall-derived rates because it
    writes to stderr, never into the artifact. *)

type progress =
  | Off
  | Plain  (** one plain line per snapshot (non-TTY fallback) *)
  | Hud  (** ANSI live panel redrawn in place *)

val default_interval : int
(** Deterministic cadence: guest instructions between snapshots. *)

val default_period : float
(** Wall cadence: seconds between snapshots. *)

val configure :
  ?out:string ->
  ?progress:progress ->
  ?deterministic:bool ->
  ?interval:int ->
  ?period:float ->
  enabled:bool ->
  unit ->
  unit
(** Reset the pipeline.  [out] is the NDJSON destination (opened eagerly,
    truncating, through {!Storage.open_chan} at crashpoint
    ["telemetry.line"]); omitting it streams nowhere but still drives
    the progress display.  Every snapshot line is written and fsynced
    as one durable unit, so a mid-stream kill leaves only whole,
    parseable lines (at most the final line is torn).  Storage failures
    drop the stream gracefully — the campaign continues and the
    degradation is recorded in {!Storage.degraded}.  [deterministic]
    (default [true]) selects the cadence rule. *)

val enabled : unit -> bool

val set_clock : (unit -> int) option -> unit
(** Virtual-clock source; defaults to the merged
    [snowboard.vmm/instructions_retired] counter, [None] restores that
    default. *)

val set_source : (unit -> (string * Export.json) list) option -> unit
(** Extra top-level fields appended to every snapshot line — the harness
    plugs the coverage-frontier JSON in here.  [None] clears it. *)

val set_hud : (unit -> string list) option -> unit
(** Extra lines appended to the HUD panel (per-strategy coverage bars).
    [None] clears it. *)

val set_total : int option -> unit
(** Planned test count, for the HUD's progress percentage and ETA. *)

val phase : string -> unit
(** Enter a named phase; always emits a snapshot (reason ["phase"]). *)

val tick : ?tests:int -> unit -> unit
(** Progress heartbeat from the orchestration loop; [tests] counts
    completed concurrent tests.  Emits a snapshot when the configured
    cadence has elapsed.  No-op on worker domains. *)

val snapshot : ?reason:string -> unit -> unit
(** Force a snapshot now. *)

val snapshots : unit -> int
(** Snapshots emitted since [configure]. *)

val close : unit -> unit
(** Emit a final snapshot (reason ["final"]), close the stream and
    disable the pipeline. *)
