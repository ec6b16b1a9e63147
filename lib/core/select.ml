(* Concurrent-test generation methods (section 4.4 and Table 3).

   A concurrent test pairs a writer test and a reader test from the
   sequential corpus, optionally with a PMC scheduling hint.  The paper
   evaluates eleven methods: the eight clustering strategies (exemplar per
   cluster, least-populous cluster first), Random S-INS-PAIR (random
   cluster order) and two PMC-free baselines, Random pairing and
   Duplicate pairing. *)

type conc_test = {
  writer : int;  (* corpus test id running on vCPU 0 *)
  reader : int;  (* corpus test id running on vCPU 1 *)
  hint : Pmc.t option;
}

type method_ =
  | Strategy of Cluster.strategy  (* uncommon-first cluster order *)
  | Random_order of Cluster.strategy  (* random cluster order *)
  | Random_pairing
  | Duplicate_pairing

let method_name = function
  | Strategy s -> Cluster.name s
  | Random_order s -> "Random " ^ Cluster.name s
  | Random_pairing -> "Random pairing"
  | Duplicate_pairing -> "Duplicate pairing"

let all_paper_methods =
  List.map (fun s -> Strategy s) Cluster.all
  @ [ Random_order Cluster.S_INS_PAIR; Random_pairing; Duplicate_pairing ]

type plan = {
  method_ : method_;
  tests : conc_test list;
  num_clusters : int;  (* "Exemplar PMCs" column of Table 3; 0 = NA *)
}

let shuffle rng arr =
  for i = Array.length arr - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done

let pick rng l = List.nth l (Random.State.int rng (List.length l))

(* Build the ordered test list for a clustering strategy from its
   prebuilt table, in the table's uncommon-first order or, for a
   random-order method, in a shuffled copy of it.  One exemplar PMC is
   drawn per cluster (line 2 of Algorithm 2); a PMC already chosen for
   an earlier cluster (possible under S-INS, whose clusters overlap) is
   skipped. *)
let plan_strategy method_ ~random_order (clusters : Cluster.t)
    (ident : Identify.t) rng ~max =
  let order = Cluster.clusters clusters in
  let order =
    if random_order then begin
      let arr = Array.copy order in
      shuffle rng arr;
      arr
    end
    else order
  in
  let chosen = Hashtbl.create 256 in
  let tests = ref [] in
  let count = ref 0 in
  (try
     Array.iter
       (fun (c : Cluster.cluster) ->
         if !count >= max then raise Exit;
         let members = c.Cluster.members in
         let pmc = members.(Random.State.int rng (Array.length members)) in
         if not (Hashtbl.mem chosen pmc) then begin
           Hashtbl.replace chosen pmc ();
           match Identify.pairs ident pmc with
           | [] -> ()
           | pairs ->
               let w, r = pick rng pairs in
               tests := { writer = w; reader = r; hint = Some pmc } :: !tests;
               incr count
         end)
       order
   with Exit -> ());
  {
    method_;
    tests = List.rev !tests;
    num_clusters = Cluster.num_clusters clusters;
  }

let plan_random_pairing ~duplicate (corpus_ids : int list) rng ~max =
  let ids = Array.of_list corpus_ids in
  let n = Array.length ids in
  let tests =
    if n = 0 then []
    else
      List.init max (fun _ ->
          let w = ids.(Random.State.int rng n) in
          let r = if duplicate then w else ids.(Random.State.int rng n) in
          { writer = w; reader = r; hint = None })
  in
  {
    method_ = (if duplicate then Duplicate_pairing else Random_pairing);
    tests;
    num_clusters = 0;
  }

let plan method_ (ident : Identify.t) ~clusters ~corpus_ids rng ~max =
  match method_ with
  | Strategy s ->
      plan_strategy method_ ~random_order:false (clusters s) ident rng ~max
  | Random_order s ->
      plan_strategy method_ ~random_order:true (clusters s) ident rng ~max
  | Random_pairing -> plan_random_pairing ~duplicate:false corpus_ids rng ~max
  | Duplicate_pairing -> plan_random_pairing ~duplicate:true corpus_ids rng ~max
