(* Memory-access records produced by the hypervisor.

   These are the raw material of Snowboard's whole pipeline: the profiler
   collects them per sequential test, Algorithm 1 pairs them into PMCs, and
   Algorithm 2 matches live accesses against PMC accesses. *)

type kind = Read | Write

type access = {
  thread : int;  (* guest thread (vCPU) performing the access *)
  pc : int;  (* instruction address *)
  addr : int;  (* start of the accessed range *)
  size : int;  (* range length in bytes: 1, 2, 4 or 8 *)
  kind : kind;
  value : int;  (* value read or written, zero-extended *)
  atomic : bool;  (* marked access (READ_ONCE/WRITE_ONCE analogue) *)
  sp : int;  (* stack pointer at access time, for the stack filter *)
}

(* Snowboard's shared-access filter (section 4.1.1): only kernel-space,
   non-stack accesses are candidates for inter-thread communication.
   [is_shared_at] is the raw-field form, so the executor's sink path can
   filter without materialising an access record.  It runs for every
   access a run makes, so it spells out [Layout.is_kernel addr && not
   (Layout.in_stack_of_sp sp addr)] instead of calling them: without
   cross-module inlining (dune's default profile) each call is an
   indirect one. *)
let is_shared_at ~addr ~sp =
  let lo = sp land lnot (Layout.stack_size - 1) in
  addr >= 0 && addr < Layout.kmem_size
  && not (addr >= lo && addr < lo + Layout.stack_size)

let is_shared a = is_shared_at ~addr:a.addr ~sp:a.sp

let overlaps a b =
  a.addr < b.addr + b.size && b.addr < a.addr + a.size

(* Project the bytes of [a]'s value onto the byte range [lo, hi).
   Values are little-endian, so byte i of the value corresponds to address
   [a.addr + i]. *)
let project_value a ~lo ~hi =
  assert (lo >= a.addr && hi <= a.addr + a.size && lo < hi);
  let shift = (lo - a.addr) * 8 in
  let width = (hi - lo) * 8 in
  let mask = if width >= 63 then -1 else (1 lsl width) - 1 in
  (a.value lsr shift) land mask

(* The overlap of two accesses, as a byte range. *)
let overlap_range a b =
  let lo = max a.addr b.addr and hi = min (a.addr + a.size) (b.addr + b.size) in
  if lo < hi then Some (lo, hi) else None
