(* Warm pool of pre-booted execution resources; see the interface for
   the lease/affinity discipline.  The free list is tiny (one
   entry per worker domain ever seen) so linear scans under the mutex
   are cheaper than any indexed structure would be. *)

(* Reuse accounting.  Hits versus boots depend on how warm the
   process-wide pool already was, not on the workload, so the
   "~"-prefixed units make deterministic artifacts scrub them like any
   wall-clock metric (Obs.Export.is_nondeterministic_unit). *)
let m_reuse_hits =
  Obs.Metrics.counter ~unit_:"~vm" "snowboard.vmm/vm_reuse_hits"

let m_reuse_misses =
  Obs.Metrics.counter ~unit_:"~vm" "snowboard.vmm/vm_reuse_misses"

type 'v entry = { v : 'v; last_worker : int }

type 'v t = {
  boot : unit -> 'v;
  on_release : 'v -> unit;
  lock : Mutex.t;
  mutable free : 'v entry list;
  mutable booted : int;
}

let create ~boot ?(on_release = fun _ -> ()) () =
  {
    boot;
    on_release;
    lock = Mutex.create ();
    free = [];
    booted = 0;
  }

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

(* Remove the first entry satisfying [p], preserving the order of the
   rest (released machines are taken most-recently-released first). *)
let take_first p l =
  let rec go acc = function
    | [] -> None
    | e :: rest when p e -> Some (e, List.rev_append acc rest)
    | e :: rest -> go (e :: acc) rest
  in
  go [] l

let lease t ~worker =
  let found =
    locked t (fun () ->
        match take_first (fun e -> e.last_worker = worker) t.free with
        | Some (e, rest) ->
            t.free <- rest;
            Obs.Metrics.incr m_reuse_hits;
            Some e.v
        | None ->
            (* Taking another worker's just-released machine instead of
               booting would make the boot count — and hence
               instruction-clock telemetry — depend on OS scheduling of
               lease/release races, breaking run-to-run byte-identity.
               Boot outside the lock, on this worker's domain. *)
            t.booted <- t.booted + 1;
            Obs.Metrics.incr m_reuse_misses;
            None)
  in
  match found with
  | Some v -> v
  | None -> (
      try t.boot ()
      with exn ->
        locked t (fun () -> t.booted <- t.booted - 1);
        raise exn)

let release t ~worker v =
  (* outside the lock: the hook may do real work (flush stats, ...) *)
  t.on_release v;
  locked t (fun () -> t.free <- { v; last_worker = worker } :: t.free)

let booted t = locked t (fun () -> t.booted)
let available t = locked t (fun () -> List.length t.free)
