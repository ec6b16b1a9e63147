(** Process-wide metrics registry: named counters, gauges and log-scale
    histograms (stdlib-only, no ocaml-metrics dependency).

    Registration is idempotent per (name, kind): registering an existing
    name returns the existing handle; registering it under a different
    kind raises [Invalid_argument].  The registry is always on:
    instrumented code updates it at run boundaries, never per guest
    instruction, and needs no guard of its own.

    Counter and histogram storage is sharded per domain (see {!Shard}):
    updates go to the calling domain's private shard, and every read API
    here merges across shards on demand.  Totals are exact once worker
    domains are joined, and monotone (possibly slightly stale) while they
    run.  Gauges are a single last-writer-wins atomic cell. *)

(** {1 Counters} *)

type counter

val counter : ?unit_:string -> string -> counter

val unlisted_counter : unit -> int
(** A fresh raw {!Shard} cell id from the same id space as counters, but
    with no registry entry: it never appears in [dump] or the exporters.
    For subsystems (e.g. the guest profiler) that want sharded
    exact-on-join accumulation under their own export format, updating
    via [Shard.add] and reading via [Shard.counter_total].  [reset]
    zeroes it like any other cell. *)

val incr : counter -> unit

val add : counter -> int -> unit

val counter_value : counter -> int

(** {1 Gauges} *)

type gauge

val gauge : ?unit_:string -> string -> gauge

val set : gauge -> int -> unit

val gauge_value : gauge -> int

(** {1 Histograms}

    Log-scale (power-of-two buckets): an observation [v] lands in the
    first bucket whose upper bound [2^i] is >= [v].  Suited to latency /
    size / step-count distributions spanning orders of magnitude. *)

type histogram

val histogram : ?unit_:string -> string -> histogram

val observe : histogram -> int -> unit

val hist_count : histogram -> int

val hist_sum : histogram -> int

val hist_min : histogram -> int

val hist_max : histogram -> int

val hist_mean : histogram -> float

val quantile : histogram -> float -> int
(** [quantile h q] is the upper bound of the first bucket whose cumulative
    population reaches [q * count], clamped to the observed maximum - an
    upper bound within one power of two of the exact q-quantile. *)

(** {1 Registry snapshots} *)

type hist_snapshot = {
  count : int;
  sum : int;
  min_ : int;
  max_ : int;
  p50 : int;
  p90 : int;
  p99 : int;
}

type sample_value =
  | Sample_counter of int
  | Sample_gauge of int
  | Sample_hist of hist_snapshot

type sample = { name : string; unit_ : string option; value : sample_value }

val dump : unit -> sample list
(** All registered metrics with their current values, sorted by name. *)

type hist_buckets = { hb_buckets : int array; hb_count : int; hb_sum : int }
(** Raw merged log-scale buckets; [hb_buckets.(i)] counts values
    [v <= 2^i]. *)

val hist_buckets_by_name : string -> hist_buckets option
(** The merged raw buckets of the histogram registered under this name,
    or [None] if the name is unregistered or not a histogram.  Used by
    the OpenMetrics exporter, which needs per-bucket counts. *)

val value_by_name : string -> int option
(** The current merged value of the counter — or gauge — registered
    under this name.  Used by {!Telemetry} for its virtual-clock source
    and HUD tallies without holding handles. *)

val counter_values : unit -> (string * int) list
(** Current counter values only (unsorted); used for span deltas. *)

val reset : unit -> unit
(** Zero every registered metric; existing handles remain valid. *)
