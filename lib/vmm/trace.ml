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

(* The per-domain log of a concurrent run's shared accesses: one array
   per field, in execution order across threads, so that recording an
   access writes nine array slots and allocates nothing once the arrays
   are large enough.  A campaign trial makes ~105 shared accesses. *)
type log = {
  mutable gen : int;
  mutable len : int;
  mutable l_thread : int array;
  mutable l_pc : int array;
  mutable l_addr : int array;
  mutable l_size : int array;
  mutable l_write : bool array;
  mutable l_atomic : bool array;
  mutable l_value : int array;
  mutable l_sp : int array;
  mutable l_ctx : string array;
}

let initial_log_cap = 256

let make_log () =
  let n = initial_log_cap in
  {
    gen = 0;
    len = 0;
    l_thread = Array.make n 0;
    l_pc = Array.make n 0;
    l_addr = Array.make n 0;
    l_size = Array.make n 0;
    l_write = Array.make n false;
    l_atomic = Array.make n false;
    l_value = Array.make n 0;
    l_sp = Array.make n 0;
    l_ctx = Array.make n "";
  }

let grow lg =
  let cap = 2 * Array.length lg.l_pc in
  let widen a fill =
    let b = Array.make cap fill in
    Array.blit a 0 b 0 lg.len;
    b
  in
  lg.l_thread <- widen lg.l_thread 0;
  lg.l_pc <- widen lg.l_pc 0;
  lg.l_addr <- widen lg.l_addr 0;
  lg.l_size <- widen lg.l_size 0;
  lg.l_write <- widen lg.l_write false;
  lg.l_atomic <- widen lg.l_atomic false;
  lg.l_value <- widen lg.l_value 0;
  lg.l_sp <- widen lg.l_sp 0;
  lg.l_ctx <- widen lg.l_ctx ""

let push lg a ~ctx =
  if lg.len = Array.length lg.l_pc then grow lg;
  let i = lg.len in
  lg.l_thread.(i) <- a.thread;
  lg.l_pc.(i) <- a.pc;
  lg.l_addr.(i) <- a.addr;
  lg.l_size.(i) <- a.size;
  lg.l_write.(i) <- a.kind = Write;
  lg.l_atomic.(i) <- a.atomic;
  lg.l_value.(i) <- a.value;
  lg.l_sp.(i) <- a.sp;
  lg.l_ctx.(i) <- ctx;
  lg.len <- i + 1

let entry lg i =
  if i < 0 || i >= lg.len then invalid_arg "Trace.entry: index";
  {
    thread = lg.l_thread.(i);
    pc = lg.l_pc.(i);
    addr = lg.l_addr.(i);
    size = lg.l_size.(i);
    kind = (if lg.l_write.(i) then Write else Read);
    value = lg.l_value.(i);
    atomic = lg.l_atomic.(i);
    sp = lg.l_sp.(i);
  }

(* A view pins the generation it was taken at: the log's next run bumps
   [gen], and every reader goes through [read_view] first. *)
type view = { v_log : log; v_gen : int }

let view lg = { v_log = lg; v_gen = lg.gen }

let read_view v =
  if v.v_log.gen <> v.v_gen then
    invalid_arg "Trace.read_view: a later run reused the log";
  v.v_log
