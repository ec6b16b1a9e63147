(* Online coverage-frontier tracking.

   Snowboard's product is coverage of the PMC-cluster space, so progress
   is best read as "how many clusters has the campaign tested under each
   Table 1 strategy, and how many remain" — the untested remainder is
   the frontier.  This module maintains that table online: [create]
   clusters the identification output once under every strategy, and
   [note] marks the hinted PMC's clusters tested as each concurrent test
   completes, also recording the tests-to-find curve (which test first
   found each issue).

   Everything here is deterministic: the cluster tables are pure
   functions of the identification, notes arrive in plan order (the
   runner notes joined results in plan order), and the JSON
   rendering is sorted — so frontier blocks embedded in summaries and
   telemetry streams are byte-stable across runs and worker counts. *)

type strat_cov = {
  sc_strategy : Core.Cluster.strategy;
  sc_total : int;
  sc_member : (Core.Cluster.key, unit) Hashtbl.t;  (* existing cluster keys *)
  sc_seen : (Core.Cluster.key, unit) Hashtbl.t;  (* keys tested so far *)
}

type t = {
  strategies : strat_cov list;  (* in Core.Cluster.all order *)
  mutable tests : int;  (* concurrent tests noted *)
  mutable trials : int;  (* interleavings explored by noted tests *)
  mutable found : (int * int) list;  (* issue id, test ordinal; reversed *)
}

let create (ident : Core.Identify.t) =
  let strategies =
    List.map
      (fun strategy ->
        let clusters = Core.Cluster.run strategy ident in
        let member = Hashtbl.create 64 in
        Hashtbl.iter
          (fun key _ -> Hashtbl.replace member key ())
          clusters.Core.Cluster.table;
        {
          sc_strategy = strategy;
          sc_total = Core.Cluster.num_clusters clusters;
          sc_member = member;
          sc_seen = Hashtbl.create 64;
        })
      Core.Cluster.all
  in
  { strategies; tests = 0; trials = 0; found = [] }

let note t ?hint ~issues ~trials () =
  t.tests <- t.tests + 1;
  t.trials <- t.trials + trials;
  List.iter
    (fun id ->
      if not (List.mem_assoc id t.found) then
        t.found <- (id, t.tests) :: t.found)
    issues;
  match hint with
  | None -> ()
  | Some pmc ->
      List.iter
        (fun sc ->
          List.iter
            (fun key ->
              if Hashtbl.mem sc.sc_member key then
                Hashtbl.replace sc.sc_seen key ())
            (Core.Cluster.keys sc.sc_strategy pmc))
        t.strategies

let tests t = t.tests
let trials t = t.trials
let tested sc = Hashtbl.length sc.sc_seen
let frontier_of sc = sc.sc_total - tested sc

let find_strat t strategy =
  List.find_opt (fun sc -> sc.sc_strategy = strategy) t.strategies

(* Point queries for the provenance layer: has this cluster key been
   covered by any noted test (under any method)? *)
let is_tested t strategy key =
  match find_strat t strategy with
  | None -> false
  | Some sc -> Hashtbl.mem sc.sc_seen key

let untested_keys t strategy =
  match find_strat t strategy with
  | None -> []
  | Some sc ->
      Hashtbl.fold
        (fun key () acc ->
          if Hashtbl.mem sc.sc_seen key then acc else key :: acc)
        sc.sc_member []
      |> List.sort compare

let frontier t =
  List.map (fun sc -> (sc.sc_strategy, frontier_of sc)) t.strategies

let tests_to_find t = List.sort compare t.found

let json t =
  Obs.Export.Obj
    [
      ("tests", Obs.Export.Int t.tests);
      ("trials", Obs.Export.Int t.trials);
      ( "issues",
        Obs.Export.List
          (List.map
             (fun (id, at) ->
               Obs.Export.Obj
                 [ ("id", Obs.Export.Int id); ("at_test", Obs.Export.Int at) ])
             (tests_to_find t)) );
      ( "strategies",
        Obs.Export.List
          (List.map
             (fun sc ->
               Obs.Export.Obj
                 [
                   ( "strategy",
                     Obs.Export.String (Core.Cluster.name sc.sc_strategy) );
                   ("clusters", Obs.Export.Int sc.sc_total);
                   ("tested", Obs.Export.Int (tested sc));
                   ("frontier", Obs.Export.Int (frontier_of sc));
                 ])
             t.strategies) );
    ]

(* Per-strategy coverage bars for the live HUD. *)
let hud_lines ?(width = 22) t =
  List.map
    (fun sc ->
      let name = Core.Cluster.name sc.sc_strategy in
      if sc.sc_total = 0 then Printf.sprintf "  %-15s (no clusters)" name
      else begin
        let seen = tested sc in
        let filled =
          min width (width * seen / max 1 sc.sc_total)
        in
        let bar =
          String.concat ""
            (List.init width (fun i -> if i < filled then "█" else "░"))
        in
        Printf.sprintf "  %-15s %s %d/%d (frontier %d)" name bar seen
          sc.sc_total (frontier_of sc)
      end)
    t.strategies
