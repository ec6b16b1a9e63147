(** Guest profiler: exact per-function instruction and shared-access
    attribution, split by campaign phase.

    Function names are interned into small ids ([intern]); the executor
    caches one fid per pc, making per-step attribution an array read and
    two int adds into a run-local {!type-collector}.  Collector counts are
    flushed into per-domain {!Shard} cells, so merged totals are exact
    after [Domain.join] for any [--jobs].

    Flush discipline (what makes artifacts byte-identical across
    [--jobs]/[--resume]): profile-phase counts flush live (the prepare
    phase always re-runs in full); explore-phase counts are [drain]ed
    into per-test rows that ride in test results and the checkpoint
    journal, then [add_rows]ed exactly once per test by the harness. *)

type phase = Profile | Explore

val enabled : unit -> bool

val set_enabled : bool -> unit
(** Disabled by default; campaigns opt in via [--flame-out] /
    [--provenance-out].  When disabled, [collector] returns an inactive
    collector and all accumulation is a no-op. *)

val set_phase : phase option -> unit
(** Global current phase; worker domains spawned inside a phase inherit
    it.  [None] = outside any profiled phase. *)

val phase : unit -> phase option

val intern : string -> int
(** Stable id for a function name; first-intern order, never recycled
    (fids survive [reset], so cached per-image fid arrays stay valid). *)

val reset : unit -> unit
(** Zero all accumulated counts and clear the phase; interned fids keep
    their values. *)

(** {1 Collectors} *)

type collector
(** Run-local accumulation buffer; not thread-safe (one per run). *)

val null_collector : collector
(** Never active; for callers that don't profile. *)

val collector : unit -> collector
(** A fresh collector, active iff the profiler is enabled. *)

val active : collector -> bool

val collect : collector -> fid:int -> steps:int -> shared:int -> unit
(** Two int adds when active; no-op when not.  Negative fids ignored. *)

val drain : collector -> (string * int * int) list
(** Nonzero rows as [(function, instr, shared)], sorted by name; clears
    the collector. *)

val add_rows : phase -> (string * int * int) list -> unit
(** Accumulate rows into the sharded per-phase cells (interning unseen
    names).  No-op while disabled. *)

val flush : collector -> phase -> unit
(** [add_rows p (drain c)]. *)

(** {1 Read side — deterministic exports} *)

type row = {
  r_name : string;
  r_profile_instr : int;
  r_profile_shared : int;
  r_explore_instr : int;
  r_explore_shared : int;
}

val rows : unit -> row list
(** Merged nonzero rows, sorted by function name. *)

val flame_lines : unit -> string list
(** Collapsed-stack flamegraph lines ["phase;function count"], sorted
    lexicographically. *)

val write_flame : string -> unit
(** Write [flame_lines] to a file, one per line. *)
