(** Concurrent-test generation methods (section 4.4, Table 3): pair a
    writer test with a reader test from the corpus, optionally with a PMC
    scheduling hint.  Covers the paper's eleven methods: the eight
    clustering strategies (one exemplar per cluster, least-populous
    first), Random S-INS-PAIR, and the PMC-free Random/Duplicate pairing
    baselines. *)

type conc_test = {
  writer : int;  (** corpus test id running on vCPU 0 *)
  reader : int;  (** corpus test id running on vCPU 1 *)
  hint : Pmc.t option;
}

type method_ =
  | Strategy of Cluster.strategy  (** uncommon-first cluster order *)
  | Random_order of Cluster.strategy  (** randomised cluster order *)
  | Random_pairing
  | Duplicate_pairing

val method_name : method_ -> string

val all_paper_methods : method_ list
(** The eleven generation methods evaluated in Table 3. *)

type plan = {
  method_ : method_;
  tests : conc_test list;
  num_clusters : int;  (** Table 3's "Exemplar PMCs" column; 0 = NA *)
}

val plan :
  method_ ->
  Identify.t ->
  clusters:(Cluster.strategy -> Cluster.t) ->
  corpus_ids:int list ->
  Random.State.t ->
  max:int ->
  plan
(** Build an ordered list of at most [max] concurrent tests.  Strategy
    methods walk the strategy's table from [clusters] (built from the
    same identification), uncommon-first or, for {!Random_order}, in a
    shuffled copy, and draw one exemplar PMC per cluster and one of its
    test pairs at random; baselines draw uniformly from [corpus_ids]. *)
