(* Nested wall-clock phase spans.

   A span covers one pipeline phase (fuzz, profile, identify, select,
   execute, ...).  Spans nest: a span started while another is open
   becomes its child, which is how the pipeline's Figure 2 structure
   appears in exports.  Each finished span also records its counter
   deltas - how much every registered counter grew while it was open - so
   a phase's share of e.g. guest instructions is attributed without any
   extra plumbing in the instrumented code.

   Spans are meant for the orchestration layer: the mutable stack below
   belongs to the main domain.  Calls from worker domains are silent
   no-ops ([with_span] still runs its body), so instrumented code shared
   between the pipeline and parallel workers needs no guard of its own;
   workers should only touch Metrics (which is domain-sharded). *)

type span = {
  name : string;
  dur_us : int;  (* wall-clock duration, microseconds, >= 1 *)
  children : span list;  (* in execution order *)
  deltas : (string * int) list;  (* non-zero counter deltas, sorted *)
}

type live = {
  l_name : string;
  l_start : float;
  l_counters : (string * int) list;
  mutable l_children : span list;  (* reversed *)
}

let stack : live list ref = ref []
let finished : span list ref = ref []  (* reversed roots *)

let start name =
  if Domain.is_main_domain () then
    stack :=
      {
        l_name = name;
        l_start = Unix.gettimeofday ();
        l_counters = Metrics.counter_values ();
        l_children = [];
      }
      :: !stack

let compute_deltas at_start =
  let now = Metrics.counter_values () in
  List.filter_map
    (fun (name, v) ->
      let v0 = match List.assoc_opt name at_start with Some v0 -> v0 | None -> 0 in
      if v = v0 then None else Some (name, v - v0))
    now
  |> List.sort compare

let stop () =
  if not (Domain.is_main_domain ()) then ()
  else
  match !stack with
  | [] -> ()
  | live :: rest ->
      stack := rest;
      let dur_us =
        max 1 (int_of_float ((Unix.gettimeofday () -. live.l_start) *. 1e6))
      in
      let sp =
        {
          name = live.l_name;
          dur_us;
          children = List.rev live.l_children;
          deltas = compute_deltas live.l_counters;
        }
      in
      (match !stack with
      | parent :: _ -> parent.l_children <- sp :: parent.l_children
      | [] -> finished := sp :: !finished)

let with_span name f =
  if not (Domain.is_main_domain ()) then f ()
  else begin
    start name;
    Fun.protect ~finally:stop f
  end

let roots () = List.rev !finished

let reset () =
  stack := [];
  finished := []

let rec depth sp =
  1 + List.fold_left (fun d c -> max d (depth c)) 0 sp.children
