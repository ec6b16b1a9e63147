(** Online coverage-frontier tracking: the PMC-cluster coverage table
    (every Table 1 strategy), untested-cluster frontier sizes and the
    tests-to-find curve, maintained as concurrent tests complete.

    Deterministic: cluster tables are pure functions of the
    identification, notes arrive in plan order and all renderings are
    sorted, so frontier blocks are byte-stable across runs and worker
    counts. *)

type t

val create : Core.Identify.t -> t
(** Cluster the identification under every {!Core.Cluster.all} strategy
    and start with an empty tested set.  These tables are the campaign's
    only clustering: selection and provenance read them through
    {!clusters}. *)

val clusters : t -> Core.Cluster.strategy -> Core.Cluster.t
(** The strategy's cluster table, built once by {!create}. *)

val note :
  t -> ?hint:Core.Pmc.t -> issues:int list -> trials:int -> unit -> unit
(** Record one completed concurrent test: marks the hinted PMC's
    clusters tested under every strategy (hint-less tests only advance
    the test/trial tallies), and extends the tests-to-find curve with
    any newly seen issue ids. *)

val tests : t -> int

val trials : t -> int

val frontier : t -> (Core.Cluster.strategy * int) list
(** Untested clusters remaining per strategy, in {!Core.Cluster.all}
    order. *)

val is_tested : t -> Core.Cluster.strategy -> int -> bool
(** Has the cluster with this id been covered by any noted test, under
    any method?  The provenance layer's "why is this cluster untested"
    queries start here. *)

val tests_to_find : t -> (int * int) list
(** Issue id paired with the ordinal of the noted test that first found
    it, sorted by issue id. *)

val json : t -> Obs.Export.json
(** Deterministic rendering: tallies, the tests-to-find curve and the
    per-strategy coverage table. *)

val hud_lines : ?width:int -> t -> string list
(** Per-strategy coverage bars for the live HUD. *)
