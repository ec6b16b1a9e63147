(* PMC provenance store: why every identified PMC ended up where it did.

   The campaign runners note plans and per-test outcomes as they go; at
   export time this module joins those notes with the identification
   (writer/reader instructions attributed to function+offset) and the
   coverage frontier, whose Table 1 cluster tables give each PMC's
   cluster ids and whose tested marks leave a why to find for each
   untested cluster, and renders one self-contained
   `snowboard-provenance/1` JSON artifact.  `snowboard why` is a pure
   reader of that artifact.

   Determinism: PMC ids are ranks in a canonical structural sort, taken
   at export; cluster ids are the frontier's (ranks in the
   uncommon-first order), notes are keyed (so re-noting a resumed test
   replaces rather than duplicates) and every list in the artifact is
   sorted — the artifact is byte-identical across --jobs and --resume
   given the same campaign. *)

module J = Obs.Export
module Cluster = Core.Cluster
module Select = Core.Select
module Pmc = Core.Pmc

let schema = "snowboard-provenance/1"

(* Verdict / status vocabulary (also grepped by CI; keep stable). *)
let v_selected = "selected"
let v_deduplicated = "deduplicated"
let v_beyond_budget = "beyond-budget"
let v_filtered = "filtered"
let v_method_not_run = "method-not-run"
let u_planned_not_executed = "planned-but-not-executed"

type test_note = {
  tn_method : string;
  tn_index : int;  (* 1-based index in its method's plan *)
  tn_writer : int;
  tn_reader : int;
  tn_hint : Pmc.t option;
  tn_outcome : string;
  tn_retries : int;
  tn_exercised : bool;
  tn_issues : int list;
  tn_trials : int;
  tn_hits : int;
  tn_miss_no_write : int;
  tn_miss_no_read : int;
  tn_miss_value : int;
}

type t = {
  image : Vmm.Asm.image;
  ident : Core.Identify.t;
  mutable methods : string list;  (* noted methods, reversed *)
  plans : (string, Select.plan) Hashtbl.t;
  tests : (string * int, test_note) Hashtbl.t;  (* (method, index) *)
}

let create ~image ~(ident : Core.Identify.t) =
  {
    image;
    ident;
    methods = [];
    plans = Hashtbl.create 16;
    tests = Hashtbl.create 256;
  }

let num_pmcs t = Core.Identify.num_pmcs t.ident

(* function+offset attribution of an instruction address, e.g.
   "tunnel_ioctl+0x12"; total thanks to Asm.func_name's unknown form. *)
let func_offset t pc =
  let name = Vmm.Asm.func_name t.image pc in
  match Hashtbl.find_opt t.image.Vmm.Asm.entries name with
  | Some start when pc >= start -> Printf.sprintf "%s+0x%x" name (pc - start)
  | _ -> name

let note_plan t ~method_ ~(plan : Select.plan) =
  if not (List.mem method_ t.methods) then t.methods <- method_ :: t.methods;
  Hashtbl.replace t.plans method_ plan

let note_test t ~method_ ~index ~writer ~reader ~hint ~outcome ~retries
    ~exercised ~issues ~trials ~hits ~miss_no_write ~miss_no_read ~miss_value
    =
  Hashtbl.replace t.tests (method_, index)
    {
      tn_method = method_;
      tn_index = index;
      tn_writer = writer;
      tn_reader = reader;
      tn_hint = hint;
      tn_outcome = outcome;
      tn_retries = retries;
      tn_exercised = exercised;
      tn_issues = issues;
      tn_trials = trials;
      tn_hits = hits;
      tn_miss_no_write = miss_no_write;
      tn_miss_no_read = miss_no_read;
      tn_miss_value = miss_value;
    }

(* ------------------------------------------------------------------ *)
(* Export-time joins.                                                  *)

let noted_methods t = List.rev t.methods

(* All test notes in campaign order (methods as noted, plan index
   within), each paired with its global 1-based test id. *)
let ordered_tests t =
  let by_method m =
    Hashtbl.fold
      (fun (m', _) tn acc -> if m' = m then tn :: acc else acc)
      t.tests []
    |> List.sort (fun a b -> compare a.tn_index b.tn_index)
  in
  List.concat_map by_method (noted_methods t)
  |> List.mapi (fun i tn -> (i + 1, tn))

let strategy_method s = Select.method_name (Select.Strategy s)

let json_of_side t (s : Pmc.side) =
  J.Obj
    [
      ("ins", J.Int s.Pmc.ins);
      ("fn", J.String (func_offset t s.Pmc.ins));
      ("addr", J.Int s.Pmc.addr);
      ("size", J.Int s.Pmc.size);
      ("value", J.Int s.Pmc.value);
    ]

let json_of_test (gid, tn, pid) =
  J.Obj
    [
      ("id", J.Int gid);
      ("method", J.String tn.tn_method);
      ("index", J.Int tn.tn_index);
      ("writer", J.Int tn.tn_writer);
      ("reader", J.Int tn.tn_reader);
      ("pmc", match pid with None -> J.Null | Some p -> J.Int p);
      ("outcome", J.String tn.tn_outcome);
      ("retries", J.Int tn.tn_retries);
      ("exercised", J.Bool tn.tn_exercised);
      ("issues", J.List (List.map (fun i -> J.Int i) tn.tn_issues));
      ("trials", J.Int tn.tn_trials);
      ("hint_hits", J.Int tn.tn_hits);
      ("miss_no_write", J.Int tn.tn_miss_no_write);
      ("miss_no_read", J.Int tn.tn_miss_no_read);
      ("miss_value", J.Int tn.tn_miss_value);
    ]

let json t ~(frontier : Frontier.t) =
  (* canonical PMC ids: ranks in a structural sort of the all-scalar
     record, so ids depend only on the identification, never on hash
     layout *)
  let pmcs =
    Core.Identify.fold (fun pmc _ acc -> pmc :: acc) t.ident []
    |> List.sort compare |> Array.of_list
  in
  let pmc_ids = Hashtbl.create (Array.length pmcs) in
  Array.iteri (fun i p -> Hashtbl.replace pmc_ids p i) pmcs;
  let pmc_id pmc = Hashtbl.find_opt pmc_ids pmc in
  let tests =
    List.map
      (fun (gid, tn) -> (gid, tn, Option.bind tn.tn_hint pmc_id))
      (ordered_tests t)
  in
  (* per strategy: the frontier's table and, if the strategy's method
     ran, its plan's hints with the cluster ids they fall in *)
  let strategies =
    List.map
      (fun strategy ->
        let table = Frontier.clusters frontier strategy in
        let hinted =
          Option.map
            (fun (plan : Select.plan) ->
              let hints =
                List.filter_map
                  (fun (ct : Select.conc_test) -> ct.Select.hint)
                  plan.Select.tests
              in
              let ids = Array.make (Cluster.num_clusters table) false in
              List.iter
                (fun h ->
                  List.iter (fun id -> ids.(id) <- true) (Cluster.ids table h))
                hints;
              (hints, ids))
            (Hashtbl.find_opt t.plans (strategy_method strategy))
        in
        (strategy, table, hinted))
      Cluster.all
  in
  (* selection verdict of one PMC, in clusters [ids] of a strategy *)
  let verdict pmc ids hinted =
    match (ids, hinted) with
    | [], _ -> v_filtered
    | _, None -> v_method_not_run
    | _, Some (hints, hinted_ids) ->
        if List.mem pmc hints then v_selected
        else if List.exists (fun id -> hinted_ids.(id)) ids then
          v_deduplicated
        else v_beyond_budget
  in
  let pmc_json pid pmc =
    let hinted = List.filter (fun (_, _, p) -> p = Some pid) tests in
    let sum f = List.fold_left (fun n (_, tn, _) -> n + f tn) 0 hinted in
    let per_strategy =
      List.map
        (fun (strategy, table, hinted) ->
          (Cluster.name strategy, Cluster.ids table pmc, hinted))
        strategies
    in
    J.Obj
      [
        ("id", J.Int pid);
        ("write", json_of_side t pmc.Pmc.write);
        ("read", json_of_side t pmc.Pmc.read);
        ("df_leader", J.Bool pmc.Pmc.df_leader);
        ( "pairs",
          J.List
            (List.map
               (fun (w, r) ->
                 J.Obj [ ("writer", J.Int w); ("reader", J.Int r) ])
               (Core.Identify.pairs t.ident pmc)) );
        ( "clusters",
          J.Obj
            (List.filter_map
               (fun (name, ids, _) ->
                 if ids = [] then None
                 else Some (name, J.List (List.map (fun i -> J.Int i) ids)))
               per_strategy) );
        ( "verdicts",
          J.Obj
            (List.map
               (fun (name, ids, hinted) ->
                 (name, J.String (verdict pmc ids hinted)))
               per_strategy) );
        ( "tests",
          J.List (List.map (fun (gid, _, _) -> J.Int gid) hinted) );
        ("hint_hits", J.Int (sum (fun tn -> tn.tn_hits)));
        ( "misses",
          J.Obj
            [
              ("no_write", J.Int (sum (fun tn -> tn.tn_miss_no_write)));
              ("no_read", J.Int (sum (fun tn -> tn.tn_miss_no_read)));
              ("value", J.Int (sum (fun tn -> tn.tn_miss_value)));
            ] );
        ( "exercised",
          J.Bool (List.exists (fun (_, tn, _) -> tn.tn_exercised) hinted) );
      ]
  in
  (* why is an untested cluster untested?  The frontier saw every
     executed test; the noted plan says whether a hint was meant for it. *)
  let why_untested cid = function
    | None -> v_method_not_run
    | Some (_, hinted_ids) ->
        if hinted_ids.(cid) then u_planned_not_executed else v_beyond_budget
  in
  let cluster_block (strategy, table, hinted) =
    J.Obj
      [
        ("strategy", J.String (Cluster.name strategy));
        ("total", J.Int (Cluster.num_clusters table));
        ( "clusters",
          J.List
            (Array.to_list
               (Array.mapi
                  (fun cid (c : Cluster.cluster) ->
                    let tested = Frontier.is_tested frontier strategy cid in
                    J.Obj
                      ([
                         ("id", J.Int cid);
                         ( "key",
                           J.List (List.map (fun k -> J.Int k) c.Cluster.key) );
                         ("size", J.Int (Array.length c.Cluster.members));
                         ( "pmcs",
                           J.List
                             (Array.to_list c.Cluster.members
                             |> List.filter_map pmc_id
                             |> List.sort_uniq compare
                             |> List.map (fun i -> J.Int i)) );
                         ("tested", J.Bool tested);
                       ]
                      @
                      if tested then []
                      else [ ("why", J.String (why_untested cid hinted)) ]))
                  (Cluster.clusters table))) );
      ]
  in
  let profiler_rows =
    List.map
      (fun (r : Obs.Profguest.row) ->
        J.Obj
          [
            ("fn", J.String r.Obs.Profguest.r_name);
            ("profile_instr", J.Int r.Obs.Profguest.r_profile_instr);
            ("profile_shared", J.Int r.Obs.Profguest.r_profile_shared);
            ("explore_instr", J.Int r.Obs.Profguest.r_explore_instr);
            ("explore_shared", J.Int r.Obs.Profguest.r_explore_shared);
          ])
      (Obs.Profguest.rows ())
  in
  J.Obj
    [
      ("schema", J.String schema);
      ("num_pmcs", J.Int (Array.length pmcs));
      ( "methods",
        J.List
          (List.map
             (fun m ->
               let plan = Hashtbl.find t.plans m in
               J.Obj
                 [
                   ("method", J.String m);
                   ("num_clusters", J.Int plan.Select.num_clusters);
                   ("planned", J.Int (List.length plan.Select.tests));
                 ])
             (noted_methods t)) );
      ("tests", J.List (List.map json_of_test tests));
      ("pmcs", J.List (List.mapi pmc_json (Array.to_list pmcs)));
      ("clusters", J.List (List.map cluster_block strategies));
      ( "profiler",
        J.Obj
          [
            ("enabled", J.Bool (Obs.Profguest.enabled ()));
            ("functions", J.List profiler_rows);
          ] );
    ]

let write t ~frontier path =
  J.write_file ~site:"provenance" path (json t ~frontier)
