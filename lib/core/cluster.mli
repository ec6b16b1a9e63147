(** PMC clustering strategies (Table 1 of the paper): a clustering key
    plus a filter, both over PMC features.  PMCs with equal keys share a
    cluster; filtered PMCs belong to no cluster.  S-INS is the paper's
    strategy pair: it clusters writes by write instruction and reads by
    read instruction, so a PMC can belong to two clusters. *)

type strategy =
  | S_FULL  (** all eight features; the no-clustering baseline *)
  | S_CH  (** instructions + ranges, values ignored *)
  | S_CH_NULL  (** S-CH restricted to zero-writing PMCs *)
  | S_CH_UNALIGNED  (** S-CH restricted to mismatched ranges *)
  | S_CH_DOUBLE  (** S-CH restricted to double-fetch leaders *)
  | S_INS  (** write instruction and, separately, read instruction *)
  | S_INS_PAIR  (** (write instruction, read instruction) *)
  | S_MEM  (** the two memory ranges *)

val all : strategy list

val name : strategy -> string

val of_name : string -> strategy option

type key = int list

val keys : strategy -> Pmc.t -> key list
(** Cluster keys of a PMC under a strategy; [] means filtered out. *)

type cluster = {
  key : key;
  members : Pmc.t array;
      (** the PMCs with this key, in reverse {!Identify.iter} order *)
}

type t
(** One strategy's clusters of one identification. *)

val run : strategy -> Identify.t -> t
(** Cluster every identified PMC, least to most populous (the paper's
    uncommon-first order), ties broken by key; a cluster's id is its
    rank in that order.  Observes each cluster's size in the
    [snowboard.core/cluster_size.<S>] histogram. *)

val clusters : t -> cluster array
(** The clusters, indexed by id.  Shared by every reader of the table:
    copy it before reordering. *)

val num_clusters : t -> int

val ids : t -> Pmc.t -> int list
(** Ids of the clusters holding a PMC, ascending; [] if the strategy
    filters it out or the table never saw it. *)
