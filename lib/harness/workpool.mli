(** Execution of an indexed batch over OCaml domains: the scheduling
    substrate under both phases that fan out over [--jobs]
    ({!Pipeline.profile_corpus} and {!Pipeline.run_method}).

    Workers pull items from one shared queue, the paper's work queue
    feeding its VMs (section 4.4.1): an atomic cursor over the item
    array, from which each worker claims the next unclaimed index.
    That is greedy list scheduling, and it needs nothing more.  Items
    are independent and known up front, and each one is a whole guest
    execution that restores the boot snapshot first, so which worker
    runs an item changes only timing.

    {b Determinism.}  [f] receives the item's global index (per-test
    seeds derive from it) and its result lands in a per-index slot, so
    the returned array is in item order for any worker count or claim
    interleaving.  Everything order-sensitive downstream (summary,
    checkpoint, provenance) reads that array, which is why campaign
    artifacts stay byte-identical across [--jobs N].

    Failure containment: an exception from [f] is caught per item and
    the item's slot is filled by [fallback] on the caller after the
    joins, so one poisoned test costs one result, not a worker.  A
    worker whose [worker] call raises (e.g. a failed VM boot) claims
    nothing and the others drain the batch; only if {e every} worker
    fails do the items fall through to [fallback]. *)

val run :
  jobs:int ->
  worker:(int -> 'w) ->
  ?finish:(int -> 'w -> unit) ->
  f:('w -> int -> 'a -> 'b) ->
  fallback:(int -> 'a -> exn -> 'b) ->
  'a array ->
  'b array
(** [run ~jobs ~worker ~f ~fallback items] executes [f ctx i items.(i)]
    exactly once for every [i], distributing items over [max 1 jobs]
    domains (never more domains than items), and returns the results in
    item order.

    [worker w] builds worker [w]'s context on its own domain (lease a
    VM, open a scratch file, ...); [finish w ctx] runs on every worker
    that built a context, before it exits, even on failure.
    [fallback i item exn] supplies the result for an item whose [f]
    raised ([exn] is what it raised) or that no worker could run
    ([Failure]); it runs on the caller, after the joins.

    [jobs <= 1] (or fewer than two items) runs inline on the calling
    domain: no domains are spawned, an exception from [worker 0]
    propagates, and [fallback] still applies per item. *)
