(* Happens-before data-race detection over the serialized event stream.

   Plays the role of the paper's stock race detector (DataCollider / the
   SKI runtime detector).  The executor serializes the kernel threads, so
   true simultaneity never occurs; instead every one of [nthreads]
   threads carries a full vector clock, and every shared guest byte keeps
   its last write and, per thread, its last read, each with the clock,
   marked flag, pc and attributed function of the access.  Conflicting
   accesses that are not ordered by synchronization are reported:

   - marked (atomic) store -> marked load of the same cell creates a
     release/acquire edge.  This covers spinlocks (CAS acquire loops and
     marked release stores), RCU publish (rcu_assign_pointer followed by
     rcu_dereference) and READ_ONCE/WRITE_ONCE pairs, so correctly
     synchronised code produces no reports;
   - conflicting accesses (overlapping ranges, at least one write) that
     are unordered AND not both marked are data races, mirroring the
     kernel's KCSAN convention that marked-vs-marked conflicts are
     intentional.

   Reads keep one entry per thread (not FastTrack's adaptive read epoch),
   so a write is checked against every thread's last read, in thread
   order, which fixes the [other_pc] each report names.

   Byte state lives in a flat open-addressed table keyed by the byte's
   8-byte granule, one array per field, with a generation stamp per slot
   so that starting a detector empties the table in O(1).

   A slot is uniform while its eight bytes hold the same state, which
   then lives in byte 0 alone.  Kernel accesses are mostly aligned
   words, and an aligned 8-byte access to a uniform slot checks and
   records byte 0 only: bytes 1-7 would see byte 0's state, make byte
   0's update, and name byte 0's (write pc, other pc) pairs, which the
   report deduplication drops.  Any other access first splits the slots
   it touches, giving every byte byte 0's state, and then works byte by
   byte.

   Each domain caches one table and lends it to one detector at a time;
   [reports] ends the detector's feed and hands the table back to the
   domain that built it.  A detector that finds the cached table still
   lent out (another live detector, or one abandoned mid-trial) builds a
   private table, which then replaces the cached one. *)

module Trace = Vmm.Trace

type report = {
  addr : int;
  write_pc : int;
  other_pc : int;
  other_kind : Trace.kind;  (* the second access's kind *)
  write_ctx : string;  (* attributed kernel function of the write *)
  other_ctx : string;
}

(* A slot's write epoch packs (clock, thread, marked) and a read epoch
   (clock, marked) into one int each; 0 means "no such access yet", since
   a thread's own clock starts at 1. *)
let write_epoch ~clk ~tid ~marked =
  (clk lsl 8) lor (tid lsl 1) lor Bool.to_int marked

let read_epoch ~clk ~marked = (clk lsl 1) lor Bool.to_int marked

let write_clk e = e lsr 8

let write_tid e = (e lsr 1) land 0x7f

let read_clk e = e lsr 1

let marked e = e land 1 = 1

(* The table a domain lends out, if any. *)
type cache = { mutable cached : table option }

and table = {
  nth : int;
  home : cache;  (* the creating domain's: the only cache it may enter *)
  vcs : int array;  (* per-thread vector clocks, row [tid] at [tid * nth] *)
  mutable busy : bool;  (* lent to a detector that has not finished *)
  mutable gen : int;  (* a slot is live iff its stamp equals [gen] *)
  mutable shift : int;  (* 63 - log2 [cap]: the hash keeps the top bits *)
  mutable cap : int;  (* slots, a power of two *)
  mutable used : int;  (* live slots *)
  mutable stamp : int array;
  mutable key : int array;  (* granule: byte address / 8 *)
  mutable uni : bool array;  (* the slot's bytes all hold byte 0's state *)
  (* per-byte fields: byte [addr] of slot [s] at [b = 8 s + addr mod 8] *)
  mutable w_ep : int array;  (* last write: epoch, pc, function id *)
  mutable w_pc : int array;
  mutable w_fn : int array;
  (* per-byte, per-thread fields: thread [j] of byte [b] at [b nth + j] *)
  mutable r_ep : int array;  (* last read by each thread *)
  mutable r_pc : int array;
  mutable r_fn : int array;
  mutable rel : int array;  (* release clock (marked stores), 0 if none *)
  mutable fns : string array;  (* function id -> attributed function *)
  mutable nfns : int;
}

(* A slot holds the 8-byte granule around a byte: kernel accesses are
   mostly aligned words, so one probe serves all bytes of an access and
   their state shares cache lines.  An untouched byte of a claimed
   granule reads as a byte with no accesses, which it is: a claimed slot
   is uniform, with byte 0 cleared. *)
let initial_cap = 128

(* Tables that grew past this are not cached: a campaign trial touches
   at most ~110 granules, which [max_kept_cap] holds at the 3/4 load
   bound; a larger table would only pin memory. *)
let max_kept_cap = 256

let log2 n =
  let rec go k = if 1 lsl k >= n then k else go (k + 1) in
  go 0

let alloc_slots tb cap =
  let bytes = 8 * cap and n = tb.nth in
  tb.cap <- cap;
  tb.shift <- 63 - log2 cap;
  tb.used <- 0;
  tb.stamp <- Array.make cap 0;
  tb.key <- Array.make cap 0;
  tb.uni <- Array.make cap true;
  tb.w_ep <- Array.make bytes 0;
  tb.w_pc <- Array.make bytes 0;
  tb.w_fn <- Array.make bytes 0;
  tb.r_ep <- Array.make (bytes * n) 0;
  tb.r_pc <- Array.make (bytes * n) 0;
  tb.r_fn <- Array.make (bytes * n) 0;
  tb.rel <- Array.make (bytes * n) 0

let cache = Domain.DLS.new_key (fun () -> { cached = None })

let new_table nth =
  let tb =
    {
      nth;
      home = Domain.DLS.get cache;
      vcs = Array.make (nth * nth) 0;
      busy = false;
      gen = 1;
      shift = 0;
      cap = 0;
      used = 0;
      stamp = [||];
      key = [||];
      uni = [||];
      w_ep = [||];
      w_pc = [||];
      w_fn = [||];
      r_ep = [||];
      r_pc = [||];
      r_fn = [||];
      rel = [||];
      fns = Array.make 32 "";
      nfns = 0;
    }
  in
  alloc_slots tb initial_cap;
  tb

let hash tb g = (g * 0x2545F4914F6CDD1D) lsr tb.shift

(* Linear probing: the slot holding granule [g], or the free slot where
   it would go.  The 3/4 load bound guarantees a free slot. *)
let probe tb g =
  let mask = tb.cap - 1 in
  let i = ref (hash tb g) in
  while tb.stamp.(!i) = tb.gen && tb.key.(!i) <> g do
    i := (!i + 1) land mask
  done;
  !i

(* The slot holding granule [g], or -1 if none of its bytes has state. *)
let find tb g =
  let s = probe tb g in
  if tb.stamp.(s) = tb.gen then s else -1

let rec grow tb =
  (* a shallow copy keeps the old arrays while [tb] gets new ones *)
  let old = { tb with cap = tb.cap } in
  let n8 = 8 * tb.nth in
  alloc_slots tb (2 * old.cap);
  for s = 0 to old.cap - 1 do
    if old.stamp.(s) = tb.gen then begin
      let d = claim tb old.key.(s) in
      tb.uni.(d) <- old.uni.(s);
      Array.blit old.w_ep (8 * s) tb.w_ep (8 * d) 8;
      Array.blit old.w_pc (8 * s) tb.w_pc (8 * d) 8;
      Array.blit old.w_fn (8 * s) tb.w_fn (8 * d) 8;
      Array.blit old.r_ep (n8 * s) tb.r_ep (n8 * d) n8;
      Array.blit old.r_pc (n8 * s) tb.r_pc (n8 * d) n8;
      Array.blit old.r_fn (n8 * s) tb.r_fn (n8 * d) n8;
      Array.blit old.rel (n8 * s) tb.rel (n8 * d) n8
    end
  done

(* The slot holding granule [g], claimed (uniform, no byte with any
   access) if it is new; grows the table past 3/4 load. *)
and claim tb g =
  let s = probe tb g in
  if tb.stamp.(s) = tb.gen then s
  else if 4 * (tb.used + 1) > 3 * tb.cap then begin
    grow tb;
    claim tb g
  end
  else begin
    tb.stamp.(s) <- tb.gen;
    tb.key.(s) <- g;
    tb.used <- tb.used + 1;
    tb.uni.(s) <- true;
    tb.w_ep.(8 * s) <- 0;
    let n = tb.nth in
    for k = 8 * s * n to (8 * s * n) + n - 1 do
      tb.r_ep.(k) <- 0;
      tb.rel.(k) <- 0
    done;
    s
  end

(* Give every byte of slot [s] byte 0's state, if the slot is uniform,
   before an access works on its bytes one by one. *)
let split tb s =
  if tb.uni.(s) then begin
    tb.uni.(s) <- false;
    let b0 = 8 * s and n = tb.nth in
    for b = b0 + 1 to b0 + 7 do
      tb.w_ep.(b) <- tb.w_ep.(b0);
      tb.w_pc.(b) <- tb.w_pc.(b0);
      tb.w_fn.(b) <- tb.w_fn.(b0);
      for j = 0 to n - 1 do
        tb.r_ep.((b * n) + j) <- tb.r_ep.((b0 * n) + j);
        tb.r_pc.((b * n) + j) <- tb.r_pc.((b0 * n) + j);
        tb.r_fn.((b * n) + j) <- tb.r_fn.((b0 * n) + j);
        tb.rel.((b * n) + j) <- tb.rel.((b0 * n) + j)
      done
    done
  end

type t = {
  tb : table;
  mutable live : bool;  (* false once [reports] has run *)
  mutable reports : report list;  (* newest first *)
  mutable last_ctx : string;  (* the last function interned, and its id *)
  mutable last_fn : int;
}

let create ?(nthreads = 2) () =
  if nthreads < 1 || nthreads > 0x7f then invalid_arg "Race.create: nthreads";
  let tb =
    match (Domain.DLS.get cache).cached with
    | Some tb when (not tb.busy) && tb.nth = nthreads ->
        tb.gen <- tb.gen + 1;
        tb.used <- 0;
        tb.nfns <- 0;
        tb
    | _ -> new_table nthreads
  in
  tb.busy <- true;
  for i = 0 to nthreads - 1 do
    for j = 0 to nthreads - 1 do
      tb.vcs.((i * nthreads) + j) <- (if i = j then 1 else 0)
    done
  done;
  { tb; live = true; reports = []; last_ctx = ""; last_fn = -1 }

(* Byte state names functions by small ids, so that recording an access
   stores ints only.  Attributed names are shared strings, so physical
   equality finds a function's id; a fresh copy of a name just gets a
   second id, which resolves to the same text. *)
let fn_id t ctx =
  if ctx == t.last_ctx && t.last_fn >= 0 then t.last_fn
  else begin
    let tb = t.tb in
    let i = ref 0 in
    while !i < tb.nfns && tb.fns.(!i) != ctx do
      incr i
    done;
    if !i = tb.nfns then begin
      if tb.nfns = Array.length tb.fns then begin
        let fns = Array.make (2 * tb.nfns) "" in
        Array.blit tb.fns 0 fns 0 tb.nfns;
        tb.fns <- fns
      end;
      tb.fns.(!i) <- ctx;
      tb.nfns <- tb.nfns + 1
    end;
    t.last_ctx <- ctx;
    t.last_fn <- !i;
    !i
  end

let rec reported ~write_pc ~other_pc = function
  | [] -> false
  | r :: rest ->
      (r.write_pc = write_pc && r.other_pc = other_pc)
      || reported ~write_pc ~other_pc rest

(* Reports are deduplicated by (write pc, other pc); a trial yields a
   handful, so a scan of the list beats hashing the pair. *)
let add_report t ~addr ~write_pc ~other_pc ~other_kind ~write_ctx ~other_ctx =
  if not (reported ~write_pc ~other_pc t.reports) then
    t.reports <-
      { addr; write_pc; other_pc; other_kind; write_ctx; other_ctx }
      :: t.reports

(* The acquire edge on byte [b]: a marked read joins the byte's release
   clock into the clock of its thread, row [vc] of [vcs]. *)
let acquire tb b vc =
  let n = tb.nth and vcs = tb.vcs in
  let rb = b * n in
  for j = 0 to n - 1 do
    let r = tb.rel.(rb + j) in
    if r > vcs.(vc + j) then vcs.(vc + j) <- r
  done

(* The release edge on byte [b]: a marked write deposits the clock of
   its thread on the byte. *)
let release tb b vc =
  let n = tb.nth and vcs = tb.vcs in
  let rb = b * n in
  for j = 0 to n - 1 do
    let v = vcs.(vc + j) in
    if v > tb.rel.(rb + j) then tb.rel.(rb + j) <- v
  done

(* Check byte [b], at guest address [addr], against an access of thread
   [tid] at clock [clk], then record the access on it. *)
let check t tb b ~addr ~tid ~clk ~mk ~write ~pc ~fn ~ctx =
  let n = tb.nth and vcs = tb.vcs and fns = tb.fns in
  let vc = tid * n and rb = b * n in
  (* the last write, if another thread's, unordered and not both
     marked, conflicts with this access whatever its kind *)
  let w = tb.w_ep.(b) in
  let w_races =
    w <> 0
    && write_tid w <> tid
    && write_clk w > vcs.(vc + write_tid w)
    && not (mk && marked w)
  in
  if write then begin
    if w_races then
      add_report t ~addr ~write_pc:pc ~other_pc:tb.w_pc.(b)
        ~other_kind:Trace.Write ~write_ctx:ctx ~other_ctx:fns.(tb.w_fn.(b));
    for other = 0 to n - 1 do
      let r = tb.r_ep.(rb + other) in
      if other <> tid && read_clk r > vcs.(vc + other) && not (mk && marked r)
      then
        add_report t ~addr ~write_pc:pc ~other_pc:tb.r_pc.(rb + other)
          ~other_kind:Trace.Read ~write_ctx:ctx
          ~other_ctx:fns.(tb.r_fn.(rb + other))
    done;
    tb.w_ep.(b) <- write_epoch ~clk ~tid ~marked:mk;
    tb.w_pc.(b) <- pc;
    tb.w_fn.(b) <- fn
  end
  else begin
    if w_races then
      add_report t ~addr ~write_pc:tb.w_pc.(b) ~other_pc:pc
        ~other_kind:Trace.Read ~write_ctx:fns.(tb.w_fn.(b)) ~other_ctx:ctx;
    tb.r_ep.(rb + tid) <- read_epoch ~clk ~marked:mk;
    tb.r_pc.(rb + tid) <- pc;
    tb.r_fn.(rb + tid) <- fn
  end

(* Feed one shared kernel access, by its fields, with its attributed
   function: the entry point for the executor's log, which holds shared
   accesses only. *)
let on_shared t ~thread:tid ~pc ~addr:first ~size ~write ~atomic:mk ~ctx =
  if not t.live then invalid_arg "Race.on_shared: reports already taken";
  let tb = t.tb in
  let vc = tid * tb.nth in
  let fn = fn_id t ctx in
  let last = first + size - 1 in
  let s =
    if size = 8 && first land 7 = 0 then claim tb (first lsr 3)
    else -1
  in
  if s >= 0 && tb.uni.(s) then begin
    (* the whole granule: byte 0 stands for all eight *)
    let b = 8 * s in
    if mk && not write then acquire tb b vc;
    check t tb b ~addr:first ~tid ~clk:tb.vcs.(vc + tid) ~mk ~write ~pc ~fn
      ~ctx;
    if mk && write then release tb b vc
  end
  else begin
    for g = first lsr 3 to last lsr 3 do
      split tb (claim tb g)
    done;
    (* acquire edge: a marked read joins the cell's release clock *)
    if mk && not write then
      for addr = first to last do
        acquire tb ((8 * find tb (addr lsr 3)) + (addr land 7)) vc
      done;
    let clk = tb.vcs.(vc + tid) in
    (* an access spans at most two granules: probe once per granule *)
    let s = ref (find tb (first lsr 3)) in
    for addr = first to last do
      if addr land 7 = 0 && addr <> first then s := find tb (addr lsr 3);
      check t tb ((8 * !s) + (addr land 7)) ~addr ~tid ~clk ~mk ~write ~pc
        ~fn ~ctx
    done;
    (* release edge: a marked write deposits its clock on the cell *)
    if mk && write then
      for addr = first to last do
        release tb ((8 * find tb (addr lsr 3)) + (addr land 7)) vc
      done
  end;
  if mk && write then tb.vcs.(vc + tid) <- tb.vcs.(vc + tid) + 1

(* Feed one access record; non-shared ones are ignored. *)
let on_access t (a : Trace.access) ~ctx =
  if not t.live then invalid_arg "Race.on_access: reports already taken";
  if Trace.is_shared a then
    on_shared t ~thread:a.Trace.thread ~pc:a.Trace.pc ~addr:a.Trace.addr
      ~size:a.Trace.size ~write:(a.Trace.kind = Trace.Write)
      ~atomic:a.Trace.atomic ~ctx

let reports t =
  if t.live then begin
    t.live <- false;
    let tb = t.tb in
    tb.busy <- false;
    let c = tb.home in
    if c == Domain.DLS.get cache then
      match c.cached with
      | Some cached when cached == tb ->
          if tb.cap > max_kept_cap then c.cached <- None
      | _ -> if tb.cap <= max_kept_cap then c.cached <- Some tb
  end;
  List.rev t.reports

let num_reports t = List.length t.reports
