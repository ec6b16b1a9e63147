(** Algorithm 1: PMC identification.

    Shared accesses from all profiles are deduplicated into access entries
    keyed by (instruction, range, value), indexed by range start address
    (the paper's ordered nested index) and swept for write/read overlaps
    with differing projected values.  Each PMC carries a bounded set of
    (writer test, reader test) pairs.  The sweep also builds a flat index
    of the PMCs by write instruction, with their read ranges by read
    instruction, which {!find_incidental} scans. *)

val max_tests_per_entry : int
(** Representative tests remembered per deduplicated access entry. *)

val max_pairs_per_pmc : int
(** Test pairs stored per PMC (a few suffice; one is drawn at random); [npairs] still counts all of them. *)

type info = {
  mutable pairs : (int * int) list;  (** (writer test, reader test) *)
  mutable stored : int;  (** [List.length pairs], kept so the bounded
                             insert in the sweep stays O(1) *)
  mutable npairs : int;  (** total potential pairs, not just stored ones *)
}

type index
(** The flat index {!find_incidental} scans; read only. *)

type t = {
  table : (Pmc.t, info) Hashtbl.t;
  index : index;
  num_write_entries : int;
  num_read_entries : int;
}

val run : Profile.t list -> t

val num_pmcs : t -> int

val pairs : t -> Pmc.t -> (int * int) list
(** Stored test pairs of a PMC ([] if unknown). *)

val fold : (Pmc.t -> info -> 'a -> 'a) -> t -> 'a -> 'a

val iter : (Pmc.t -> info -> unit) -> t -> unit

val pmcs_at_write : t -> int -> Pmc.t list
(** [pmcs_at_write t pc]: the PMCs whose write instruction is [pc], in
    index order, newest discovered first; [[]] for a pc outside the
    index. *)

val find_incidental_log :
  t ->
  Vmm.Trace.view ->
  writer:int ->
  reader:int ->
  exclude:(Pmc.t -> bool) ->
  Pmc.t list ->
  Pmc.t list
(** [find_incidental_log t v ~writer ~reader ~exclude found]: the
    incidental-PMC search over a run's shared-access log
    ({!Vmm.Trace.view}), reading it by index: {!find_incidental} with
    thread [writer]'s entries as [writes] and thread [reader]'s as
    [reads], in log order, its result consed onto [found].  So
    [find_incidental_log t v ~writer:0 ~reader:1 ~exclude
    (find_incidental_log t v ~writer:1 ~reader:0 ~exclude [])] is the
    list search's [(0 -> 1) @ (1 -> 0)], order and multiplicity
    included.  Allocates 3 words per PMC found and nothing else.
    Raises [Invalid_argument] if a later run has reused the view's
    log. *)

val find_incidental :
  t ->
  writes:Vmm.Trace.access list ->
  reads:Vmm.Trace.access list ->
  exclude:(Pmc.t -> bool) ->
  Pmc.t list
(** Incidental-PMC discovery for Algorithm 2 line 26: identified PMCs,
    not excluded, whose write side matches one of [writes] and whose read
    side matches one of [reads].  Either list may mix kinds: only the
    writes of [writes] and the reads of [reads] count, so a caller can
    pass each thread's accesses unfiltered.

    Order and multiplicity are part of the contract, because a caller
    draws from the list by index: a PMC appears once per write in
    [writes] it matches (so a write repeated in [writes] repeats its
    PMCs), and the list is the reverse of the enumeration [writes] in
    order, then, for each write, its pc's PMCs in {!pmcs_at_write} order.
    [exclude] must be pure; it is consulted only for PMCs that pass both
    match tests.  Safe to call from several domains on one [t].

    The list-shaped form of {!find_incidental_log}: it copies both lists
    into a per-domain scratch log and runs the same search. *)
