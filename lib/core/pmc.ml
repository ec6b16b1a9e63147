(* Potential memory communication (PMC), the paper's central concept
   (section 2.2): a pair of one write access and one read access, profiled
   from two sequential tests, whose memory ranges overlap and whose values
   projected onto the overlap differ.  When the two tests run concurrently
   from the same kernel snapshot under an interleaving that schedules the
   write before the read, the write's data flows into the reader. *)

module Trace = Vmm.Trace

(* One side of a PMC: the features of Algorithm 1's read_key/write_key. *)
type side = {
  ins : int;  (* instruction address *)
  addr : int;  (* memory-range start address *)
  size : int;  (* memory-range length in bytes *)
  value : int;  (* value written or read during profiling *)
}

type t = {
  write : side;
  read : side;
  df_leader : bool;
      (* the read is the first fetch of a double fetch (section 4.3) *)
}

let side_of_access (a : Trace.access) =
  { ins = a.Trace.pc; addr = a.Trace.addr; size = a.Trace.size; value = a.Trace.value }

let overlap_range (w : side) (r : side) =
  let lo = max w.addr r.addr and hi = min (w.addr + w.size) (r.addr + r.size) in
  if lo < hi then Some (lo, hi) else None

let project v ~base ~lo ~hi =
  let shift = (lo - base) * 8 in
  let width = (hi - lo) * 8 in
  let mask = if width >= 63 then -1 else (1 lsl width) - 1 in
  (v lsr shift) land mask

(* Do the projected values differ on the overlap?  This is the filter of
   Algorithm 1 lines 9-11: a "communication" that would not change the
   reader's view is not a PMC. *)
let values_differ (w : side) (r : side) =
  match overlap_range w r with
  | None -> false
  | Some (lo, hi) ->
      project w.value ~base:w.addr ~lo ~hi <> project r.value ~base:r.addr ~lo ~hi

let make ~write ~read ~df_leader = { write; read; df_leader }

(* Does a live access match one side of this PMC?  Used by the scheduler's
   performed_pmc_access: the instruction and an overlapping range identify
   the access; the value is deliberately not compared because concurrent
   runs shift heap values (section 5.3.2 discusses such divergences).

   The [_at] forms take the raw fields, so the scheduler's sink path can
   test a live access without materialising a record for it. *)
let matches_write_at (p : t) ~pc ~addr ~size ~write =
  write && pc = p.write.ins
  && addr < p.write.addr + p.write.size
  && p.write.addr < addr + size

let matches_read_at (p : t) ~pc ~addr ~size ~write =
  (not write) && pc = p.read.ins
  && addr < p.read.addr + p.read.size
  && p.read.addr < addr + size

let matches_at p ~pc ~addr ~size ~write =
  matches_write_at p ~pc ~addr ~size ~write
  || matches_read_at p ~pc ~addr ~size ~write

let matches_write (p : t) (a : Trace.access) =
  matches_write_at p ~pc:a.Trace.pc ~addr:a.Trace.addr ~size:a.Trace.size
    ~write:(a.Trace.kind = Trace.Write)

let matches_read (p : t) (a : Trace.access) =
  matches_read_at p ~pc:a.Trace.pc ~addr:a.Trace.addr ~size:a.Trace.size
    ~write:(a.Trace.kind = Trace.Write)

(* Field by field: every field is an int or a bool, so this is the
   structural equality, without the polymorphic compare's dispatch. *)
let equal_side (a : side) (b : side) =
  a.ins = b.ins && a.addr = b.addr && a.size = b.size && a.value = b.value

let equal (a : t) (b : t) =
  equal_side a.write b.write && equal_side a.read b.read
  && Bool.equal a.df_leader b.df_leader

let hash (p : t) = Hashtbl.hash p

let pp_side ppf s =
  Format.fprintf ppf "ins=%d addr=0x%x+%d val=%d" s.ins s.addr s.size s.value

let pp ppf p =
  Format.fprintf ppf "PMC{W[%a] R[%a]%s}" pp_side p.write pp_side p.read
    (if p.df_leader then " df" else "")
