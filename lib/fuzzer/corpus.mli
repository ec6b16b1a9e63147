(** Coverage-guided corpus selection: keep the subset of generated tests
    that contributes new control-flow edges - "high coverage but low
    overlap of exercised behaviors" (paper section 4.1). *)

type entry = { id : int; prog : Prog.t; new_edges : int }

type t

val create : unit -> t

val consider : t -> Prog.t -> edges:(int * int) list -> int option
(** Offer a program with the edges its sequential run covered; returns
    its corpus id if it was kept (structurally new and coverage-novel).
    A kept entry's [new_edges] counts every listed edge that was absent
    before the call, repeats included; a rejected program adds no edge.
    Raises [Invalid_argument], before changing anything, on an edge with
    a pc outside [[0, Vmm.Vm.edge_pc_max]] ({!Vmm.Vm.Edge_set.mem}); the
    edges of a program already seen are not read. *)

val size : t -> int

val total_edges : t -> int
(** The number of distinct edges the kept entries covered. *)

val to_list : t -> entry list
(** Entries in insertion (id) order. *)

val nth : t -> int -> entry
(** O(1) positional access (position = corpus id, ids are dense from 0).
    Raises [Invalid_argument] when out of range. *)

val sample : t -> Random.State.t -> entry
(** Uniform O(1) pick, drawing one [Random.State.int] on the corpus
    size (the same draw the fuzzing loop used to spend on [List.nth]).
    Raises [Invalid_argument] on an empty corpus. *)

val find : t -> int -> entry option
(** O(1) lookup by corpus id (the dense id space doubles as the index).
    A plain array read, so worker domains share it while the corpus is
    not growing. *)

val save : t -> string -> (unit, string) result
(** Write the corpus programs to a file, one per line, atomically
    ({!Obs.Storage.write_atomic} at site ["corpus"]).  [Error] names the
    path and the storage error. *)

val load_programs : string -> (Prog.t list, string) result
(** Parse a corpus file back into programs (blank lines are skipped);
    feed them to [Pipeline.fuzz]'s [seeds] to rebuild a corpus with
    coverage metadata.  [Error] carries the [Sys_error] message of a
    file that cannot be read, or names the [path:line] of the first line
    {!Prog.of_line} rejects. *)
