(** PMC provenance store: records, for every identified PMC, where it
    came from and what the campaign did with it — writer/reader
    instructions attributed to [function+offset], stored test pairs, the
    Table 1 cluster assignments, the per-strategy selection verdict
    (selected / deduplicated / beyond-budget / filtered /
    method-not-run) and the Algorithm 2 hint outcomes (hit and
    classified-miss tallies) — and renders it all as one
    [snowboard-provenance/1] JSON artifact that [snowboard why] reads.

    The runners call [note_plan] once per method and [note_test] once
    per completed test (notes are keyed, so resumed results replace
    rather than duplicate); everything else is joined at export time.
    PMC ids are ranks in a canonical structural sort of the
    identification, taken at export, and cluster ids are the ids of the
    frontier's tables ({!Frontier.clusters}), so the artifact is
    byte-identical across [--jobs] and [--resume]. *)

type t

val schema : string
(** ["snowboard-provenance/1"]. *)

val create : image:Vmm.Asm.image -> ident:Core.Identify.t -> t

val num_pmcs : t -> int

val note_plan : t -> method_:string -> plan:Core.Select.plan -> unit
(** Record a method's selection plan (idempotent per method). *)

val note_test :
  t ->
  method_:string ->
  index:int ->
  writer:int ->
  reader:int ->
  hint:Core.Pmc.t option ->
  outcome:string ->
  retries:int ->
  exercised:bool ->
  issues:int list ->
  trials:int ->
  hits:int ->
  miss_no_write:int ->
  miss_no_read:int ->
  miss_value:int ->
  unit
(** Record one completed (or failed) concurrent test.  Keyed by
    [(method_, index)]: re-noting replaces, so resumed campaigns stay
    byte-identical. *)

val json : t -> frontier:Frontier.t -> Obs.Export.json
(** The full artifact.  [frontier] supplies the cluster tables (it must
    be the campaign's, built from the same identification) and answers
    "is this cluster tested"; the untested ones additionally carry a
    why —
    ["method-not-run"], ["beyond-budget"] or
    ["planned-but-not-executed"]. *)

val write : t -> frontier:Frontier.t -> string -> unit
(** [json] serialized to a file. *)
