(* Algorithm 1: PMC identification.

   All shared accesses from every profiled test are first deduplicated
   into "access entries" keyed by (instruction, range, value) - the exact
   features that make up a PMC side - remembering up to [max_tests]
   exhibiting tests per entry.  Entries are then indexed by range start
   (the paper's ordered nested index, section 4.2.1) and swept for
   write/read overlaps; each overlap whose projected values differ yields
   a PMC, stored with a bounded set of (writer test, reader test) pairs.

   The sweep also builds the flat index that Algorithm 2's incidental-PMC
   search scans after every trial (see [find_incidental]). *)

module Trace = Vmm.Trace

let m_considered = Obs.Metrics.counter "snowboard.core/pmc_pairs_considered"
let m_kept = Obs.Metrics.counter "snowboard.core/pmcs_kept"
let m_runs = Obs.Metrics.counter "snowboard.core/identify_runs"

let max_tests_per_entry = 3
let max_pairs_per_pmc = 8

type entry = {
  side : Pmc.side;
  mutable df : bool;  (* reads only: any occurrence was a df leader *)
  mutable tests : int list;
  mutable ntests : int;
}

type info = {
  mutable pairs : (int * int) list;  (* (writer test, reader test) *)
  mutable stored : int;  (* List.length pairs, tracked to keep the
                            bounded-insert check O(1) in the sweep *)
  mutable npairs : int;  (* total potential pairs, not just stored ones *)
}

(* The flat index of every PMC, for [find_incidental]: parallel int
   arrays, so that a search does no hashing, no sorting and no
   allocation besides its result.

   Write side: the PMCs whose write instruction is [w_base + k] sit at
   positions [w_lo.(k)] to [w_lo.(k + 1) - 1], newest discovered first,
   each with its write range [[w_addr, w_end)] and the id of its read
   range.  Read side: the distinct read ranges (instruction, start,
   size) of all PMCs; those of read instruction [r_base + k] have the
   ids [r_lo.(k)] to [r_lo.(k + 1) - 1], each with its byte range
   [[r_addr, r_end)]. *)
type index = {
  w_base : int;
  w_lo : int array;
  w_addr : int array;
  w_end : int array;
  w_rid : int array;
  w_pmc : Pmc.t array;
  r_base : int;
  r_lo : int array;
  r_addr : int array;
  r_end : int array;
}

type t = {
  table : (Pmc.t, info) Hashtbl.t;
  index : index;
  num_write_entries : int;
  num_read_entries : int;
}

let add_entry tbl (side : Pmc.side) ~df ~test =
  let key = (side.Pmc.ins, side.Pmc.addr, side.Pmc.size, side.Pmc.value) in
  match Hashtbl.find_opt tbl key with
  | Some e ->
      e.df <- e.df || df;
      if e.ntests < max_tests_per_entry && not (List.mem test e.tests) then begin
        e.tests <- test :: e.tests;
        e.ntests <- e.ntests + 1
      end
  | None -> Hashtbl.replace tbl key { side; df; tests = [ test ]; ntests = 1 }

(* Indices [0 .. n - 1] grouped by instruction [ins i], by a counting
   sort: returns [base], the order and [lo], where [lo.(k)] to
   [lo.(k + 1) - 1] are the positions of the indices whose instruction
   is [base + k].  Filling each group from its end, last index first,
   keeps a group's indices in increasing order. *)
let group_by_ins ins n =
  let base = ref (if n = 0 then 0 else ins 0) in
  let top = ref (!base - 1) in
  for i = 0 to n - 1 do
    base := Int.min !base (ins i);
    top := Int.max !top (ins i)
  done;
  let base = !base and span = !top - !base + 1 in
  let lo = Array.make (span + 1) 0 in
  for i = 0 to n - 1 do
    lo.(ins i - base) <- lo.(ins i - base) + 1
  done;
  for k = 1 to span do
    lo.(k) <- lo.(k) + lo.(k - 1)
  done;
  let order = Array.make n 0 in
  for i = n - 1 downto 0 do
    let pos = lo.(ins i - base) - 1 in
    lo.(ins i - base) <- pos;
    order.(pos) <- i
  done;
  (base, order, lo)

(* The index over [pmcs], which are newest discovered first. *)
let build_index (pmcs : Pmc.t array) =
  let np = Array.length pmcs in
  let read i = pmcs.(i).Pmc.read and write i = pmcs.(i).Pmc.write in
  (* read side: group the PMCs by read instruction, then number each
     group's distinct ranges; an instruction reads few ranges, so a scan
     of the group's ranges so far finds a repeat.  Once group [k] is
     numbered, [r_lo.(k)] holds its first range id. *)
  let r_base, by_read, r_lo = group_by_ins (fun i -> (read i).Pmc.ins) np in
  let rid = Array.make np 0 and first_of = Array.make np 0 in
  let nranges = ref 0 in
  for k = 0 to Array.length r_lo - 2 do
    let first = !nranges in
    for q = r_lo.(k) to r_lo.(k + 1) - 1 do
      let i = by_read.(q) in
      let r = read i in
      let id = ref first in
      while
        !id < !nranges
        &&
        let r' = read first_of.(!id) in
        r'.Pmc.addr <> r.Pmc.addr || r'.Pmc.size <> r.Pmc.size
      do
        incr id
      done;
      if !id = !nranges then begin
        first_of.(!id) <- i;
        incr nranges
      end;
      rid.(i) <- !id
    done;
    r_lo.(k) <- first
  done;
  r_lo.(Array.length r_lo - 1) <- !nranges;
  let r_addr = Array.init !nranges (fun id -> (read first_of.(id)).Pmc.addr) in
  let r_end =
    Array.init !nranges (fun id ->
        let r = read first_of.(id) in
        r.Pmc.addr + r.Pmc.size)
  in
  (* write side: grouped by write instruction, each group newest first *)
  let w_base, by_write, w_lo = group_by_ins (fun i -> (write i).Pmc.ins) np in
  let w_addr = Array.map (fun i -> (write i).Pmc.addr) by_write in
  let w_end =
    Array.map
      (fun i ->
        let w = write i in
        w.Pmc.addr + w.Pmc.size)
      by_write
  in
  let w_rid = Array.map (fun i -> rid.(i)) by_write in
  let w_pmc = Array.map (fun i -> pmcs.(i)) by_write in
  { w_base; w_lo; w_addr; w_end; w_rid; w_pmc; r_base; r_lo; r_addr; r_end }

(* Identify PMCs across a list of profiles. *)
let run (profiles : Profile.t list) =
  let writes : (int * int * int * int, entry) Hashtbl.t = Hashtbl.create 4096 in
  let reads : (int * int * int * int, entry) Hashtbl.t = Hashtbl.create 4096 in
  List.iter
    (fun (p : Profile.t) ->
      Array.iter
        (fun (e : Profile.entry) ->
          let side = Pmc.side_of_access e.access in
          match e.access.Trace.kind with
          | Trace.Write -> add_entry writes side ~df:false ~test:p.test_id
          | Trace.Read -> add_entry reads side ~df:e.df_leader ~test:p.test_id)
        p.entries)
    profiles;
  let warr = Array.of_seq (Hashtbl.to_seq_values writes) in
  let rarr = Array.of_seq (Hashtbl.to_seq_values reads) in
  let by_addr (a : entry) (b : entry) = compare a.side.Pmc.addr b.side.Pmc.addr in
  Array.sort by_addr warr;
  Array.sort by_addr rarr;
  let table = Hashtbl.create 4096 in
  let found = ref [] in
  let nr = Array.length rarr in
  (* For each write entry, scan read entries whose start address can
     overlap: starts in (w.addr - 8, w.addr + w.size). *)
  let lower_bound target =
    let lo = ref 0 and hi = ref nr in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if rarr.(mid).side.Pmc.addr < target then lo := mid + 1 else hi := mid
    done;
    !lo
  in
  let considered = ref 0 in
  Array.iter
    (fun (w : entry) ->
      let ws = w.side in
      let start = lower_bound (ws.Pmc.addr - 7) in
      let i = ref start in
      while !i < nr && rarr.(!i).side.Pmc.addr < ws.Pmc.addr + ws.Pmc.size do
        let r = rarr.(!i) in
        incr i;
        incr considered;
        let rs = r.side in
        if Pmc.values_differ ws rs then begin
          let pmc = Pmc.make ~write:ws ~read:rs ~df_leader:r.df in
          let info =
            match Hashtbl.find_opt table pmc with
            | Some info -> info
            | None ->
                let info = { pairs = []; stored = 0; npairs = 0 } in
                Hashtbl.replace table pmc info;
                found := pmc :: !found;
                info
          in
          List.iter
            (fun wt ->
              List.iter
                (fun rt ->
                  info.npairs <- info.npairs + 1;
                  if info.stored < max_pairs_per_pmc then begin
                    info.pairs <- (wt, rt) :: info.pairs;
                    info.stored <- info.stored + 1
                  end)
                r.tests)
            w.tests
        end
      done)
    warr;
  Obs.Metrics.incr m_runs;
  Obs.Metrics.add m_considered !considered;
  Obs.Metrics.add m_kept (Hashtbl.length table);
  {
    table;
    index = build_index (Array.of_list !found);
    num_write_entries = Array.length warr;
    num_read_entries = nr;
  }

let num_pmcs t = Hashtbl.length t.table

let pairs t pmc =
  match Hashtbl.find_opt t.table pmc with Some i -> i.pairs | None -> []

let fold f t init = Hashtbl.fold f t.table init

let iter f t = Hashtbl.iter f t.table

let pmcs_at_write t pc =
  let ix = t.index in
  let k = pc - ix.w_base in
  if k < 0 || k >= Array.length ix.w_lo - 1 then []
  else
    List.init (ix.w_lo.(k + 1) - ix.w_lo.(k)) (fun i ->
        ix.w_pmc.(ix.w_lo.(k) + i))

(* Incidental-PMC discovery for Algorithm 2 line 26: PMCs (other than
   those already under test) whose write side appears among one thread's
   accesses and whose read side appears among the other thread's.  The
   search reads a run's shared-access log by index.

   First the read ranges that some live read hits are marked with a
   fresh stamp; then each live write scans its pc's slice of the index,
   testing the write range, the read range's stamp and, last,
   [exclude], the caller's scan of the PMCs under test.  The tests are
   pure, so their order does not change the result.

   The stamps live in a per-domain array, since worker domains share one
   [t]: a stamp is never reused on a domain, so marks left by an earlier
   search, of this index or another, never match. *)
type marks = {
  mutable stamp : int array;
  mutable now : int;
  mutable scratch : Trace.log option;  (* the list form's, made on demand *)
}

let marks =
  Domain.DLS.new_key (fun () -> { stamp = [||]; now = 0; scratch = None })

let search t (lg : Trace.log) ~writer ~reader ~exclude found =
  let ix = t.index in
  let m = Domain.DLS.get marks in
  if Array.length m.stamp < Array.length ix.r_addr then
    m.stamp <- Array.make (Array.length ix.r_addr) 0;
  m.now <- m.now + 1;
  let stamp = m.stamp and now = m.now in
  let nr = Array.length ix.r_lo - 1 and nw = Array.length ix.w_lo - 1 in
  for i = 0 to lg.Trace.len - 1 do
    if lg.Trace.l_thread.(i) = reader && not lg.Trace.l_write.(i) then begin
      let k = lg.Trace.l_pc.(i) - ix.r_base in
      if k >= 0 && k < nr then begin
        let lo = lg.Trace.l_addr.(i) in
        let hi = lo + lg.Trace.l_size.(i) in
        for id = ix.r_lo.(k) to ix.r_lo.(k + 1) - 1 do
          if ix.r_addr.(id) < hi && lo < ix.r_end.(id) then stamp.(id) <- now
        done
      end
    end
  done;
  (* each write's slice in index order, consed onto [found] *)
  let found = ref found in
  for i = 0 to lg.Trace.len - 1 do
    if lg.Trace.l_thread.(i) = writer && lg.Trace.l_write.(i) then begin
      let k = lg.Trace.l_pc.(i) - ix.w_base in
      if k >= 0 && k < nw then begin
        let lo = lg.Trace.l_addr.(i) in
        let hi = lo + lg.Trace.l_size.(i) in
        for j = ix.w_lo.(k) to ix.w_lo.(k + 1) - 1 do
          if
            ix.w_addr.(j) < hi
            && lo < ix.w_end.(j)
            && stamp.(ix.w_rid.(j)) = now
            && not (exclude ix.w_pmc.(j))
          then found := ix.w_pmc.(j) :: !found
        done
      end
    end
  done;
  !found

let find_incidental_log t view ~writer ~reader ~exclude found =
  search t (Trace.read_view view) ~writer ~reader ~exclude found

(* The list form fills a per-domain scratch log, the writes as thread 0
   and the reads as thread 1, and runs the same search. *)
let rec fill lg thread = function
  | [] -> ()
  | a :: rest ->
      Trace.push lg a ~ctx:"";
      lg.Trace.l_thread.(lg.Trace.len - 1) <- thread;
      fill lg thread rest

let find_incidental t ~(writes : Trace.access list) ~(reads : Trace.access list)
    ~(exclude : Pmc.t -> bool) =
  let m = Domain.DLS.get marks in
  let lg =
    match m.scratch with
    | Some lg -> lg
    | None ->
        let lg = Trace.make_log () in
        m.scratch <- Some lg;
        lg
  in
  lg.Trace.len <- 0;
  fill lg 0 writes;
  fill lg 1 reads;
  search t lg ~writer:0 ~reader:1 ~exclude []
