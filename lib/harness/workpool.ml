(* Batch execution over a shared work queue; see the interface for the
   contract.

   The queue is one atomic cursor over the item array: a worker claims
   the next unclaimed index with a fetch-and-add, so every index is
   handed out exactly once.  Results go into a per-index slot array:
   each slot is written by exactly one domain and read by the caller
   only after the joins, so Domain.join's happens-before is the only
   synchronisation the results need. *)

let run ~jobs ~worker ?(finish = fun _ _ -> ()) ~f ~fallback items =
  let n = Array.length items in
  let results = Array.make n None in
  let next = Atomic.make 0 in
  let drain w ctx =
    Fun.protect
      ~finally:(fun () -> finish w ctx)
      (fun () ->
        let rec loop () =
          let i = Atomic.fetch_and_add next 1 in
          if i < n then begin
            results.(i) <- Some (try Ok (f ctx i items.(i)) with e -> Error e);
            loop ()
          end
        in
        loop ())
  in
  let jobs = max 1 (min jobs n) in
  if jobs <= 1 then (if n > 0 then drain 0 (worker 0))
  else begin
    (* A worker whose context build fails claims nothing; the others
       drain the batch.  Items fall through to [fallback] only if every
       worker fails. *)
    let body w = match worker w with ctx -> drain w ctx | exception _ -> () in
    let doms = Array.init jobs (fun w -> Domain.spawn (fun () -> body w)) in
    (* [body] contains its own failures; a join that raises anyway (a
       [finish] that raised) costs at most that worker's unwritten
       slots, which [fallback] fills below. *)
    Array.iter (fun d -> try Domain.join d with _ -> ()) doms
  end;
  Array.mapi
    (fun i slot ->
      match slot with
      | Some (Ok v) -> v
      | Some (Error e) -> fallback i items.(i) e
      | None ->
          fallback i items.(i)
            (Failure "workpool: no surviving worker could run this item"))
    results
