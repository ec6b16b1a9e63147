(* PMC clustering strategies (Table 1 of the paper).

   A strategy is a clustering key plus a filter, both over PMC features:
   instruction addresses (ins), range start addresses (addr), range
   lengths (byte), access values (value) and the df_leader flag.  PMCs
   with the same key under a strategy fall in the same cluster; filtered
   PMCs fall in no cluster.  S-INS is the paper's "strategy pair" - it
   clusters writes by write instruction and reads by read instruction, so
   one PMC can belong to two clusters. *)

type strategy =
  | S_FULL
  | S_CH
  | S_CH_NULL
  | S_CH_UNALIGNED
  | S_CH_DOUBLE
  | S_INS
  | S_INS_PAIR
  | S_MEM

let all = [ S_FULL; S_CH; S_CH_NULL; S_CH_UNALIGNED; S_CH_DOUBLE; S_INS; S_INS_PAIR; S_MEM ]

let name = function
  | S_FULL -> "S-FULL"
  | S_CH -> "S-CH"
  | S_CH_NULL -> "S-CH-NULL"
  | S_CH_UNALIGNED -> "S-CH-UNALIGNED"
  | S_CH_DOUBLE -> "S-CH-DOUBLE"
  | S_INS -> "S-INS"
  | S_INS_PAIR -> "S-INS-PAIR"
  | S_MEM -> "S-MEM"

let of_name s =
  List.find_opt (fun st -> String.equal (name st) s) all

(* A cluster key is a small integer vector; keys from different strategies
   never mix because clustering tables are per-strategy. *)
type key = int list

let ch_key (p : Pmc.t) =
  [
    p.Pmc.write.Pmc.ins;
    p.Pmc.write.Pmc.addr;
    p.Pmc.write.Pmc.size;
    p.Pmc.read.Pmc.ins;
    p.Pmc.read.Pmc.addr;
    p.Pmc.read.Pmc.size;
  ]

(* The clustering keys of a PMC under a strategy; [] means filtered out. *)
let keys strategy (p : Pmc.t) : key list =
  let w = p.Pmc.write and r = p.Pmc.read in
  match strategy with
  | S_FULL ->
      [
        [
          w.Pmc.ins; w.Pmc.addr; w.Pmc.size; w.Pmc.value; r.Pmc.ins; r.Pmc.addr;
          r.Pmc.size; r.Pmc.value;
        ];
      ]
  | S_CH -> [ ch_key p ]
  | S_CH_NULL -> if w.Pmc.value = 0 then [ ch_key p ] else []
  | S_CH_UNALIGNED ->
      if w.Pmc.addr <> r.Pmc.addr || w.Pmc.size <> r.Pmc.size then [ ch_key p ]
      else []
  | S_CH_DOUBLE -> if p.Pmc.df_leader then [ ch_key p ] else []
  | S_INS -> [ [ 0; w.Pmc.ins ]; [ 1; r.Pmc.ins ] ]
  | S_INS_PAIR -> [ [ w.Pmc.ins; r.Pmc.ins ] ]
  | S_MEM -> [ [ w.Pmc.addr; w.Pmc.size; r.Pmc.addr; r.Pmc.size ] ]

type cluster = { key : key; members : Pmc.t array }

type t = {
  strategy : strategy;
  clusters : cluster array;  (* uncommon-first; index = cluster id *)
  ids : (key, int) Hashtbl.t;  (* key -> cluster id *)
}

let by_size_then_key a b =
  let n = Int.compare (Array.length a.members) (Array.length b.members) in
  if n <> 0 then n else List.compare Int.compare a.key b.key

(* Cluster all identified PMCs under a strategy, least to most populous
   (the paper's uncommon-first order), ties broken by key.  A cluster's
   id is its rank in that order.  Each run feeds the per-strategy
   cluster-size histogram (Table 3's population shape). *)
let run strategy (ident : Identify.t) =
  let table = Hashtbl.create 1024 in
  Identify.iter
    (fun pmc _info ->
      List.iter
        (fun key ->
          match Hashtbl.find_opt table key with
          | Some l -> l := pmc :: !l
          | None -> Hashtbl.replace table key (ref [ pmc ]))
        (keys strategy pmc))
    ident;
  let clusters =
    Hashtbl.fold
      (fun key pmcs acc -> { key; members = Array.of_list !pmcs } :: acc)
      table []
    |> Array.of_list
  in
  (* keys are unique, so any sort gives this order; a merge sort makes
     the fewest comparisons *)
  Array.stable_sort by_size_then_key clusters;
  let h =
    Obs.Metrics.histogram ~unit_:"pmcs"
      ("snowboard.core/cluster_size." ^ name strategy)
  in
  let ids = Hashtbl.create (Array.length clusters) in
  Array.iteri
    (fun id c ->
      Obs.Metrics.observe h (Array.length c.members);
      Hashtbl.replace ids c.key id)
    clusters;
  { strategy; clusters; ids }

let clusters t = t.clusters
let num_clusters t = Array.length t.clusters

let ids t pmc =
  List.filter_map (Hashtbl.find_opt t.ids) (keys t.strategy pmc)
  |> List.sort_uniq compare
