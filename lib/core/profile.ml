(* Per-test memory-access profiles (paper section 4.1).

   A profile is the shared subset of a sequential test's kernel memory
   accesses, in execution order, with the double-fetch leader feature
   computed: a read is a df_leader when a later read by a *different*
   instruction covers the same range, returns the same value, and no write
   to that range intervenes (section 4.3, S-CH-DOUBLE). *)

module Trace = Vmm.Trace

let m_profiles = Obs.Metrics.counter "snowboard.core/profiles_built"

let h_profile_len =
  Obs.Metrics.histogram ~unit_:"accesses" "snowboard.core/profile_length"

type entry = { access : Trace.access; df_leader : bool }

type t = { test_id : int; entries : entry array }

(* Compute df_leader flags.  Pending reads are tracked per exact
   (addr, size) range; overlapping-but-unequal ranges are approximated by
   clearing pending reads on any overlapping write. *)
let compute_df (accesses : Trace.access list) =
  let pending : (int * int, int * int) Hashtbl.t = Hashtbl.create 64 in
  (* (addr,size) -> (index, ins) of the latest unpaired read *)
  let arr = Array.of_list accesses in
  let df = Array.make (Array.length arr) false in
  Array.iteri
    (fun i (a : Trace.access) ->
      let key = (a.Trace.addr, a.Trace.size) in
      match a.Trace.kind with
      | Trace.Write ->
          (* a write invalidates pending reads it overlaps *)
          Hashtbl.iter
            (fun (addr, size) _ ->
              if addr < a.Trace.addr + a.Trace.size && a.Trace.addr < addr + size
              then Hashtbl.remove pending (addr, size))
            (Hashtbl.copy pending)
      | Trace.Read -> (
          match Hashtbl.find_opt pending key with
          | Some (j, ins) when ins <> a.Trace.pc ->
              let prev = arr.(j) in
              if prev.Trace.value = a.Trace.value then df.(j) <- true;
              Hashtbl.replace pending key (i, a.Trace.pc)
          | _ -> Hashtbl.replace pending key (i, a.Trace.pc)))
    arr;
  (arr, df)

(* Build a profile from a raw trace: keep only shared accesses (kernel
   space, non-stack) and annotate double-fetch leaders. *)
let of_accesses ~test_id (accesses : Trace.access list) =
  let shared = List.filter Trace.is_shared accesses in
  let arr, df = compute_df shared in
  Obs.Metrics.incr m_profiles;
  Obs.Metrics.observe h_profile_len (Array.length arr);
  {
    test_id;
    entries = Array.mapi (fun i a -> { access = a; df_leader = df.(i) }) arr;
  }

(* Fast-path builder for traces that are already shared-only (the
   [Sched.Exec.run_seq] runner filters during execution).  Same
   pairing semantics as [compute_df], but the pending-read table is a
   pair of flat arrays scanned linearly - the live set (distinct read
   ranges since the last overlapping write) is small, so a scan beats a
   hash table and an overlapping write compacts in place instead of
   copying a table.  [of_accesses] above is kept verbatim as the
   behavioural oracle. *)
let of_shared ~test_id (shared : Trace.access list) =
  let arr = Array.of_list shared in
  let df = Array.make (Array.length arr) false in
  (* pending read [k]: range key [pk_key.(k)] (addr lsl 8 lor size,
     injective for sizes <= 8), index and instruction [pk_at.(k)]
     (i lsl 24 lor ins); first [n_pending] slots live *)
  let cap = ref 32 in
  let pk_key = ref (Array.make !cap 0) in
  let pk_at = ref (Array.make !cap 0) in
  let n_pending = ref 0 in
  Array.iteri
    (fun i (a : Trace.access) ->
      match a.Trace.kind with
      | Trace.Write ->
          (* drop pending reads the write overlaps, compacting in place *)
          let keep = ref 0 in
          for k = 0 to !n_pending - 1 do
            let key = !pk_key.(k) in
            let addr = key lsr 8 and size = key land 0xff in
            if addr < a.Trace.addr + a.Trace.size && a.Trace.addr < addr + size
            then ()
            else begin
              !pk_key.(!keep) <- key;
              !pk_at.(!keep) <- !pk_at.(k);
              incr keep
            end
          done;
          n_pending := !keep
      | Trace.Read ->
          let key = (a.Trace.addr lsl 8) lor a.Trace.size in
          let slot = ref (-1) in
          for k = 0 to !n_pending - 1 do
            if !pk_key.(k) = key then slot := k
          done;
          let at = (i lsl 24) lor a.Trace.pc in
          if !slot >= 0 then begin
            let prev_at = !pk_at.(!slot) in
            let j = prev_at lsr 24 and ins = prev_at land 0xffffff in
            if ins <> a.Trace.pc && arr.(j).Trace.value = a.Trace.value then
              df.(j) <- true;
            !pk_at.(!slot) <- at
          end
          else begin
            if !n_pending = !cap then begin
              let c2 = 2 * !cap in
              let k2 = Array.make c2 0 and a2 = Array.make c2 0 in
              Array.blit !pk_key 0 k2 0 !cap;
              Array.blit !pk_at 0 a2 0 !cap;
              pk_key := k2;
              pk_at := a2;
              cap := c2
            end;
            !pk_key.(!n_pending) <- key;
            !pk_at.(!n_pending) <- at;
            incr n_pending
          end)
    arr;
  Obs.Metrics.incr m_profiles;
  Obs.Metrics.observe h_profile_len (Array.length arr);
  {
    test_id;
    entries = Array.mapi (fun i a -> { access = a; df_leader = df.(i) }) arr;
  }

let length t = Array.length t.entries

let num_writes t =
  Array.fold_left
    (fun n e -> if e.access.Trace.kind = Trace.Write then n + 1 else n)
    0 t.entries

let num_reads t = length t - num_writes t

let num_df_leaders t =
  Array.fold_left (fun n e -> if e.df_leader then n + 1 else n) 0 t.entries
