(* The reference for the incidental-PMC search: each live write walks
   its pc's PMCs in index order, tests [exclude] first and finds the
   read side by a scan of every live read. *)

module Trace = Vmm.Trace
module Identify = Core.Identify
module Pmc = Core.Pmc

let find_incidental (t : Identify.t) ~(writes : Trace.access list)
    ~(reads : Trace.access list) ~(exclude : Pmc.t -> bool) =
  let found = ref [] in
  List.iter
    (fun (w : Trace.access) ->
      List.iter
        (fun pmc ->
          if (not (exclude pmc)) && Pmc.matches_write pmc w
             && List.exists (fun r -> Pmc.matches_read pmc r) reads
          then found := pmc :: !found)
        (Identify.pmcs_at_write t w.Trace.pc))
    writes;
  !found
