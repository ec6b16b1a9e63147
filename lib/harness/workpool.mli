(** Work-stealing execution of an indexed batch over OCaml domains: the
    scheduling substrate under both parallel phases (corpus profiling in
    {!Pipeline} and the explore fan-out in {!Parallel}).

    Static round-robin sharding (the design this replaced) loses the
    tail: one shard that drew the long tests idles every other domain.
    Here
    each worker owns a {e deque} — a contiguous index range over the
    shared item array — and pops work from its front; a worker whose
    deque runs dry picks victims in a seeded deterministic order and
    {e steals the upper half} of a victim's remaining range, keeping
    stolen work stealable in turn.  Items are heavyweight (a full guest
    execution each), so deques are mutex-guarded ranges rather than
    lock-free CHASE-LEV structures: the lock is taken once per item or
    steal, never per guest instruction.

    {b Determinism.}  Stealing changes {e which domain} runs an item and
    {e when}, never {e what} the item computes: [f] receives the item's
    global index (per-test seeds derive from it) and writes its result
    into a per-index slot, so the returned array is in item order for
    any worker count, victim seed or steal interleaving.  Everything
    order-sensitive downstream (summary, checkpoint, provenance) reads
    that array, which is why campaign artifacts stay byte-identical
    across [--jobs N].

    {b Completion} is barrier-free: there is no round structure and no
    coordinator wake-ups.  Work only ever shrinks (ranges split, never
    grow), so a worker that scans every deque empty a few times simply
    exits; the caller's joins are the only synchronisation.

    Failure containment: an exception from [f] is caught per item and
    the item's slot is filled by [fallback] on the coordinator after the
    joins — one poisoned test costs one result, not a worker (let alone
    a shard, as static sharding did).  An exception from [worker] (e.g.
    a failed VM boot) retires that worker; its range is stolen by the
    survivors, and only if {e every} worker fails do the unexecuted
    items fall through to [fallback].

    Counters (registry: [snowboard.harness/]): [steals],
    [steal_items] and the [steal_size]/[idle_scans] histograms, all
    carrying the ["~"-prefixed] timing-dependent unit so deterministic
    artifacts scrub them. *)

val run :
  jobs:int ->
  ?seed:int ->
  worker:(int -> 'w) ->
  ?finish:(int -> 'w -> unit) ->
  f:('w -> int -> 'a -> 'b) ->
  fallback:(int -> 'a -> exn -> 'b) ->
  'a array ->
  'b array
(** [run ~jobs ~worker ~f ~fallback items] executes [f ctx i items.(i)]
    for every [i], distributing items over [max 1 jobs] domains (never
    more domains than items), and returns the results in item order.

    [worker w] builds worker [w]'s context on its own domain (lease a
    VM, open a scratch file, ...); [finish w ctx] always runs before the
    worker exits, even on failure.  [seed] (default 0) drives the victim
    permutation — any value yields the same results, by construction.
    [fallback i item exn] supplies the result for an item whose [f]
    raised ([exn] is what it raised) or that no surviving worker could
    run ([Failure]); it runs on the coordinator, after the joins.

    [jobs <= 1] (or fewer than two items) runs inline on the calling
    domain — no domains, no locks; [fallback] still applies per item. *)
