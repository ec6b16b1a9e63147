(* Online coverage-frontier tracking.

   Snowboard's product is coverage of the PMC-cluster space, so progress
   is best read as "how many clusters has the campaign tested under each
   Table 1 strategy, and how many remain" — the untested remainder is
   the frontier.  This module maintains that table online: [create]
   clusters the identification output once under every strategy (the
   campaign's only clustering: selection and provenance read the tables
   back through [clusters]), and [note] marks the hinted PMC's cluster
   ids tested as each concurrent test completes, also recording the
   tests-to-find curve (which test first found each issue).

   Everything here is deterministic: the cluster tables are pure
   functions of the identification, notes arrive in plan order (the
   runner notes joined results in plan order), and the JSON
   rendering is sorted — so frontier blocks embedded in summaries and
   telemetry streams are byte-stable across runs and worker counts. *)

type strat_cov = {
  sc_strategy : Core.Cluster.strategy;
  sc_clusters : Core.Cluster.t;
  sc_tested : bool array;  (* by cluster id *)
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
        {
          sc_strategy = strategy;
          sc_clusters = clusters;
          sc_tested = Array.make (Core.Cluster.num_clusters clusters) false;
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
            (fun id -> sc.sc_tested.(id) <- true)
            (Core.Cluster.ids sc.sc_clusters pmc))
        t.strategies

let tests t = t.tests
let trials t = t.trials
let total sc = Array.length sc.sc_tested

let tested sc =
  Array.fold_left (fun n b -> if b then n + 1 else n) 0 sc.sc_tested

let frontier_of sc = total sc - tested sc

let find_strat t strategy =
  List.find (fun sc -> sc.sc_strategy = strategy) t.strategies

let clusters t strategy = (find_strat t strategy).sc_clusters
let is_tested t strategy id = (find_strat t strategy).sc_tested.(id)

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
                   ("clusters", Obs.Export.Int (total sc));
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
      if total sc = 0 then Printf.sprintf "  %-15s (no clusters)" name
      else begin
        let seen = tested sc in
        let filled =
          min width (width * seen / max 1 (total sc))
        in
        let bar =
          String.concat ""
            (List.init width (fun i -> if i < filled then "█" else "░"))
        in
        Printf.sprintf "  %-15s %s %d/%d (frontier %d)" name bar seen
          (total sc) (frontier_of sc)
      end)
    t.strategies
