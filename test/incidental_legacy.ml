(* The parent commit's [Core.Identify.find_incidental], kept as the
   reference for the incidental-PMC search: the same index, with
   [exclude] tested first and the read side found by a list scan. *)

module Trace = Vmm.Trace
module Identify = Core.Identify
module Pmc = Core.Pmc

let find_incidental (t : Identify.t) ~(writes : Trace.access list)
    ~(reads : Trace.access list) ~(exclude : Pmc.t -> bool) =
  let found = ref [] in
  List.iter
    (fun (w : Trace.access) ->
      match Hashtbl.find_opt t.Identify.write_index w.Trace.pc with
      | None -> ()
      | Some pmcs ->
          List.iter
            (fun pmc ->
              if (not (exclude pmc)) && Pmc.matches_write pmc w
                 && List.exists (fun r -> Pmc.matches_read pmc r) reads
              then found := pmc :: !found)
            !pmcs)
    writes;
  !found
