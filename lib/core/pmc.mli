(** Potential memory communication (PMC), the paper's central concept
    (section 2.2): a (write, read) access pair profiled from two
    sequential tests whose ranges overlap and whose values projected onto
    the overlap differ.  Under an interleaving that schedules the write
    before the read, the writer's data flows into the reader. *)

type side = {
  ins : int;  (** instruction address *)
  addr : int;  (** memory-range start address *)
  size : int;  (** memory-range length in bytes *)
  value : int;  (** value written or read during profiling *)
}
(** One side of a PMC: Algorithm 1's read_key/write_key features. *)

type t = {
  write : side;
  read : side;
  df_leader : bool;
      (** the read is the first fetch of a double fetch (section 4.3) *)
}

val side_of_access : Vmm.Trace.access -> side

val overlap_range : side -> side -> (int * int) option
(** Intersection of the two byte ranges, if non-empty. *)

val project : int -> base:int -> lo:int -> hi:int -> int
(** [project v ~base ~lo ~hi] restricts the little-endian value [v] of an
    access starting at [base] to the byte range [\[lo, hi)]. *)

val values_differ : side -> side -> bool
(** The filter of Algorithm 1 lines 9-11: do the projected values differ
    on the overlap?  [false] when the ranges are disjoint. *)

val make : write:side -> read:side -> df_leader:bool -> t

val matches_write : t -> Vmm.Trace.access -> bool
(** Does a live access perform this PMC's write?  Matching is by
    instruction and range overlap; the value is deliberately ignored
    because concurrent runs shift heap contents (section 5.3.2). *)

val matches_read : t -> Vmm.Trace.access -> bool

val matches_write_at : t -> pc:int -> addr:int -> size:int -> write:bool -> bool
(** {!matches_write} on raw fields; lets the scheduler's sink path test a
    live access without materialising a record. *)

val matches_read_at : t -> pc:int -> addr:int -> size:int -> write:bool -> bool

val matches_at : t -> pc:int -> addr:int -> size:int -> write:bool -> bool
(** [matches_write_at] or [matches_read_at]: the scheduler's
    performed_pmc_access test. *)

val equal : t -> t -> bool

val hash : t -> int

val pp_side : Format.formatter -> side -> unit

val pp : Format.formatter -> t -> unit
