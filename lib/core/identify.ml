(* Algorithm 1: PMC identification.

   All shared accesses from every profiled test are first deduplicated
   into "access entries" keyed by (instruction, range, value) - the exact
   features that make up a PMC side - remembering up to [max_tests]
   exhibiting tests per entry.  Entries are then indexed by range start
   (the paper's ordered nested index, section 4.2.1) and swept for
   write/read overlaps; each overlap whose projected values differ yields
   a PMC, stored with a bounded set of (writer test, reader test) pairs. *)

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

type t = {
  table : (Pmc.t, info) Hashtbl.t;
  write_index : (int, Pmc.t list ref) Hashtbl.t;  (* write ins -> PMCs *)
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
  let write_index = Hashtbl.create 1024 in
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
                (match Hashtbl.find_opt write_index ws.Pmc.ins with
                | Some l -> l := pmc :: !l
                | None -> Hashtbl.replace write_index ws.Pmc.ins (ref [ pmc ]));
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
    write_index;
    num_write_entries = Array.length warr;
    num_read_entries = nr;
  }

let num_pmcs t = Hashtbl.length t.table

let pairs t pmc =
  match Hashtbl.find_opt t.table pmc with Some i -> i.pairs | None -> []

let fold f t init = Hashtbl.fold f t.table init

let iter f t = Hashtbl.iter f t.table

(* Incidental-PMC discovery for Algorithm 2 line 26: PMCs (other than
   those already under test) whose write side appears among one thread's
   accesses and whose read side appears among the other thread's.

   Cheapest test first: the write range (most PMCs indexed under a live
   write's pc miss it), then the read side, a binary search over [reads]
   sorted by pc, then [exclude], the caller's scan of the PMCs under test.
   The tests are pure, so their order does not change the result. *)

(* Insertion sort by pc: [reads] holds a few dozen accesses, and this
   allocates nothing, unlike [Array.sort]. *)
let sort_by_pc (rd : Trace.access array) =
  for i = 1 to Array.length rd - 1 do
    let x = rd.(i) in
    let j = ref (i - 1) in
    while !j >= 0 && rd.(!j).Trace.pc > x.Trace.pc do
      rd.(!j + 1) <- rd.(!j);
      decr j
    done;
    rd.(!j + 1) <- x
  done

(* Does an access of [rd] (sorted by pc) perform [pmc]'s read? *)
let read_seen (rd : Trace.access array) (pmc : Pmc.t) =
  let ins = pmc.Pmc.read.Pmc.ins in
  let n = Array.length rd in
  let lo = ref 0 and hi = ref n in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if rd.(mid).Trace.pc < ins then lo := mid + 1 else hi := mid
  done;
  let i = ref !lo and seen = ref false in
  while (not !seen) && !i < n && rd.(!i).Trace.pc = ins do
    seen := Pmc.matches_read pmc rd.(!i);
    incr i
  done;
  !seen

let rec scan_pmcs (w : Trace.access) rd exclude found = function
  | [] -> found
  | pmc :: rest ->
      let found =
        if Pmc.matches_write pmc w && read_seen rd pmc && not (exclude pmc)
        then pmc :: found
        else found
      in
      scan_pmcs w rd exclude found rest

let rec scan_writes t rd exclude found = function
  | [] -> found
  | (w : Trace.access) :: rest ->
      let found =
        match Hashtbl.find t.write_index w.Trace.pc with
        | pmcs -> scan_pmcs w rd exclude found !pmcs
        | exception Not_found -> found
      in
      scan_writes t rd exclude found rest

let find_incidental t ~(writes : Trace.access list) ~(reads : Trace.access list)
    ~(exclude : Pmc.t -> bool) =
  let rd = Array.of_list reads in
  sort_by_pc rd;
  scan_writes t rd exclude [] writes
