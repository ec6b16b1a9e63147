(* The guest machine (hypervisor side).

   Two design constraints come straight from the paper: execution must be
   deterministic given the sequence of scheduling decisions (checkpoint-
   based replay, section 3.2.1), and every kernel memory access must be
   observable with its address range, size, value and instruction address
   (section 4.1).  The machine runs one vCPU at a time, and has two
   interpreters with the same semantics.  [step] executes exactly one
   instruction and returns every event it produced as a list; it is the
   oracle.  [run_tcode] executes pre-decoded threaded code into a
   caller-owned sink, up to a quantum of instructions per call; a
   quantum of 1 retires exactly one, which is how schedulers interleave
   the threads at instruction granularity.  Every production path runs
   on [run_tcode]. *)

let src = Logs.Src.create "snowboard.vmm" ~doc:"Guest machine (hypervisor side)"

module Log = (val Logs.src_log src : Logs.LOG)

(* Host-side statistics.  The hot loop only ever bumps plain int fields
   (like the pre-existing step counter); the atomic registry counters are
   touched at run boundaries (snapshot/restore), so disabled collection
   costs nothing measurable per instruction. *)
let m_instructions = Obs.Metrics.counter "snowboard.vmm/instructions_retired"
let m_accesses = Obs.Metrics.counter "snowboard.vmm/accesses_traced"
let m_events_sunk = Obs.Metrics.counter "snowboard.vmm/events_sunk"
let m_snapshot_saves = Obs.Metrics.counter "snowboard.vmm/snapshot_saves"
let m_snapshot_restores = Obs.Metrics.counter "snowboard.vmm/snapshot_restores"

(* How many pages a restore copies depends on what last ran on this
   machine — under work stealing that is a scheduling accident, so the
   counter carries the "~" unit marking it timing-dependent and
   deterministic artifacts scrub it (Obs.Export.is_nondeterministic_unit).
   [pages_total] counts full blits' worth of pages per restore and stays
   deterministic. *)
let m_pages_restored =
  Obs.Metrics.counter ~unit_:"~page" "snowboard.vmm/pages_restored"

let m_pages_total = Obs.Metrics.counter "snowboard.vmm/pages_total"

type mode = Kernel | User | Dead

type cpu = { regs : int array; mutable pc : int; mutable mode : mode }

type event =
  | Eaccess of Trace.access
  | Econsole of string
  | Epanic of string
  | Elock of [ `Acq | `Rel ] * int  (* lock address *)
  | Ercu of [ `Lock | `Unlock ]
  | Eret_to_user
  | Epause
  | Ehalt
  | Efault of int  (* faulting data address *)
  | Ecall of int  (* entered the function at this program address *)
  | Ereturn  (* returned from the current function *)

(* Dirty-page tracking: guest memory is partitioned into fixed-size
   pages (kernel pages first, then each thread's user segment), writes
   mark their page, and [restore] copies back only the dirty pages when
   the VM is still delta-tracked against the snapshot being restored.
   Any other (snapshot, VM) pairing falls back to a full blit.  Page
   granularity trades marking cost against copy savings: a short test
   touches a handful of globals, one kernel stack and a user buffer -
   a few pages out of hundreds. *)

let page_bits = 12
let page_size = 1 lsl page_bits
let kpages = Layout.kmem_size lsr page_bits
let upages = Layout.user_size lsr page_bits
let num_pages = kpages + (Layout.max_threads * upages)

(* Direct-mapped cache in front of the coverage table: recording an
   already-known edge (the common case - loop backedges, repeated calls)
   must not pay a Hashtbl lookup per branch.  8192 slots of one tagged
   int each (64 KiB per VM). *)
let edge_cache_slots = 8192

(* Snapshot identities: a restore may only take the dirty-page shortcut
   against the exact snapshot the VM last synchronized with. *)
let snap_ids = Atomic.make 0

type t = {
  image : Asm.image;
  kmem : Bytes.t;
  umem : Bytes.t array;
  cpus : cpu array;
  mutable console : string list;  (* reversed *)
  mutable panicked : bool;
  coverage : (int, unit) Hashtbl.t;
  edge_cache : int array;  (* direct-mapped filter in front of [coverage] *)
  mutable cov_gen : int;  (* generation tag validating [edge_cache] entries *)
  mutable edge_log : int array;  (* keys inserted via [record_edge_fast] *)
  mutable n_edge_log : int;
  mutable steps : int;
  mutable accesses : int;  (* traced accesses since creation *)
  mutable events_sunk : int;  (* events written into caller sinks *)
  mutable steps_flushed : int;  (* already forwarded to the registry *)
  mutable accesses_flushed : int;
  mutable events_sunk_flushed : int;
  mutable tracking : bool;  (* dirty-page tracking enabled *)
  mutable last_snap : int;  (* snap id the memory is delta-tracked against *)
  dirty : Bytes.t;  (* one flag byte per page *)
  dirty_pages : int array;  (* the marked page indices, first [n_dirty] *)
  mutable n_dirty : int;
}

exception Fault of int

let ret_sentinel = -1

let make_cpu () = { regs = Array.make Isa.num_regs 0; pc = 0; mode = Dead }

let create image =
  let kmem = Bytes.make Layout.kmem_size '\000' in
  List.iter
    (fun (addr, w) -> Bytes.set_int64_le kmem addr (Int64.of_int w))
    image.Asm.data_init;
  {
    image;
    kmem;
    umem = Array.init Layout.max_threads (fun _ -> Bytes.make Layout.user_size '\000');
    cpus = Array.init Layout.max_threads (fun _ -> make_cpu ());
    console = [];
    panicked = false;
    coverage = Hashtbl.create 4096;
    edge_cache = Array.make edge_cache_slots (-1);
    cov_gen = 0;
    edge_log = Array.make 1024 0;
    n_edge_log = 0;
    steps = 0;
    accesses = 0;
    events_sunk = 0;
    steps_flushed = 0;
    accesses_flushed = 0;
    events_sunk_flushed = 0;
    tracking = true;
    last_snap = -1;
    dirty = Bytes.make num_pages '\000';
    dirty_pages = Array.make num_pages 0;
    n_dirty = 0;
  }

let clear_dirty t =
  for i = 0 to t.n_dirty - 1 do
    Bytes.unsafe_set t.dirty t.dirty_pages.(i) '\000'
  done;
  t.n_dirty <- 0

(* Turning tracking on or off invalidates the delta: the next restore
   does a full blit and re-arms (or stays full-copy forever). *)
let set_dirty_tracking t b =
  t.tracking <- b;
  t.last_snap <- -1;
  clear_dirty t

(* Drop the delta without touching the tracking flag: the next restore
   full-blits and re-arms against its snapshot.  The VM pool calls this
   when a machine changes hands — the new leaseholder's snapshot is not
   the one the memory is delta-tracked against, and trusting a stale
   [last_snap] id across owners would restore too few pages. *)
let invalidate_delta t =
  t.last_snap <- -1;
  clear_dirty t

let dirty_page_count t = t.n_dirty

let mark_page t p =
  if Bytes.unsafe_get t.dirty p = '\000' then begin
    Bytes.unsafe_set t.dirty p '\001';
    t.dirty_pages.(t.n_dirty) <- p;
    t.n_dirty <- t.n_dirty + 1
  end

(* Mark the pages of a written range, given as its first and last
   global page index (a write of up to 8 bytes spans at most two). *)
let mark_range t first last =
  if t.tracking then begin
    mark_page t first;
    if last <> first then mark_page t last
  end

(* Forward the per-machine deltas to the process-wide registry; called at
   run boundaries only. *)
let flush_stats t =
  Obs.Metrics.add m_instructions (t.steps - t.steps_flushed);
  Obs.Metrics.add m_accesses (t.accesses - t.accesses_flushed);
  Obs.Metrics.add m_events_sunk (t.events_sunk - t.events_sunk_flushed);
  t.steps_flushed <- t.steps;
  t.accesses_flushed <- t.accesses;
  t.events_sunk_flushed <- t.events_sunk

(* Snapshots copy all guest-visible state: kernel memory, user memories,
   vCPU registers and modes, console and panic flag.  Coverage and the
   step counter are host-side statistics and survive restores. *)
type snap = {
  s_id : int;  (* identity for the dirty-page restore shortcut *)
  s_kmem : Bytes.t;
  s_umem : Bytes.t array;
  s_cpus : (int array * int * mode) array;
  s_console : string list;
  s_panicked : bool;
}

let snapshot t =
  flush_stats t;
  Obs.Metrics.incr m_snapshot_saves;
  Log.debug (fun m -> m "snapshot taken at %d steps" t.steps);
  let s =
    {
      s_id = Atomic.fetch_and_add snap_ids 1;
      s_kmem = Bytes.copy t.kmem;
      s_umem = Array.map Bytes.copy t.umem;
      s_cpus =
        Array.map (fun c -> (Array.copy c.regs, c.pc, c.mode)) t.cpus;
      s_console = t.console;
      s_panicked = t.panicked;
    }
  in
  (* the VM now equals the snapshot exactly: future writes delta-track
     against it, so the next restore can copy dirty pages only *)
  clear_dirty t;
  t.last_snap <- (if t.tracking then s.s_id else -1);
  s

(* Copy one page (by global page index) from the snapshot's buffers. *)
let restore_page t s p =
  if p < kpages then
    let off = p lsl page_bits in
    Bytes.blit s.s_kmem off t.kmem off page_size
  else begin
    let q = p - kpages in
    let tid = q / upages in
    let off = (q mod upages) lsl page_bits in
    Bytes.blit s.s_umem.(tid) off t.umem.(tid) off page_size
  end

let restore_cpus_and_flags t s =
  Array.iteri
    (fun i (regs, pc, mode) ->
      Array.blit regs 0 t.cpus.(i).regs 0 Isa.num_regs;
      t.cpus.(i).pc <- pc;
      t.cpus.(i).mode <- mode)
    s.s_cpus;
  t.console <- s.s_console;
  t.panicked <- s.s_panicked

let full_blit t s =
  Bytes.blit s.s_kmem 0 t.kmem 0 Layout.kmem_size;
  Array.iteri (fun i u -> Bytes.blit u 0 t.umem.(i) 0 Layout.user_size) s.s_umem;
  clear_dirty t;
  t.last_snap <- (if t.tracking then s.s_id else -1)

let restore t s =
  flush_stats t;
  Obs.Metrics.incr m_snapshot_restores;
  Obs.Metrics.add m_pages_total num_pages;
  if t.tracking && t.last_snap = s.s_id then begin
    (* every non-dirty page is still byte-identical to the snapshot *)
    Obs.Metrics.add m_pages_restored t.n_dirty;
    for i = 0 to t.n_dirty - 1 do
      let p = t.dirty_pages.(i) in
      restore_page t s p;
      Bytes.unsafe_set t.dirty p '\000'
    done;
    t.n_dirty <- 0
  end
  else begin
    Obs.Metrics.add m_pages_restored num_pages;
    full_blit t s
  end;
  restore_cpus_and_flags t s

(* The pre-dirty-tracking behaviour: unconditionally blit everything.
   Kept as the benchmark baseline and the test oracle for the
   observational-equivalence property. *)
let restore_full t s =
  flush_stats t;
  Obs.Metrics.incr m_snapshot_restores;
  Obs.Metrics.add m_pages_total num_pages;
  Obs.Metrics.add m_pages_restored num_pages;
  full_blit t s;
  restore_cpus_and_flags t s

let size_mask = function
  | 1 -> 0xff
  | 2 -> 0xffff
  | 4 -> 0xffffffff
  | 8 -> -1
  | _ -> invalid_arg "vm: bad access size"

let raw_read buf off size =
  match size with
  | 1 -> Char.code (Bytes.get buf off)
  | 2 -> Bytes.get_uint16_le buf off
  | 4 -> Int64.to_int (Int64.logand (Int64.of_int32 (Bytes.get_int32_le buf off)) 0xffffffffL)
  | 8 -> Int64.to_int (Bytes.get_int64_le buf off)
  | _ -> invalid_arg "vm: bad access size"

let raw_write buf off size v =
  match size with
  | 1 -> Bytes.set buf off (Char.chr (v land 0xff))
  | 2 -> Bytes.set_uint16_le buf off (v land 0xffff)
  | 4 -> Bytes.set_int32_le buf off (Int32.of_int (v land 0xffffffff))
  | 8 -> Bytes.set_int64_le buf off (Int64.of_int v)
  | _ -> invalid_arg "vm: bad access size"

(* Guest memory access.  The NULL guard page and every address outside
   the kernel segment and the thread's user segment fault with
   [Fault addr]; a write marks the pages it touches.  The kernel segment
   is tested first, since nearly every guest access lands there, as
   [null_guard_end <= addr <= kmem_size - size]: the naive
   [addr + size <= kmem_size] wraps for an [addr] near [max_int] and
   would read kernel memory instead of faulting.  Branching on the
   segment instead of returning a (buffer, offset) pair keeps both
   paths allocation-free.  Sizes are the ISA's 1, 2, 4 and 8. *)
let mem_read t tid addr size =
  if addr >= Layout.null_guard_end && addr <= Layout.kmem_size - size then
    raw_read t.kmem addr size
  else if
    addr >= Layout.user_base && addr - Layout.user_base <= Layout.user_size - size
  then raw_read t.umem.(tid) (addr - Layout.user_base) size
  else raise (Fault addr)

let mem_write t tid addr size v =
  if addr >= Layout.null_guard_end && addr <= Layout.kmem_size - size then begin
    mark_range t (addr lsr page_bits) ((addr + size - 1) lsr page_bits);
    raw_write t.kmem addr size (v land size_mask size)
  end
  else if
    addr >= Layout.user_base && addr - Layout.user_base <= Layout.user_size - size
  then begin
    (* index [umem] first: it bounds-checks [tid] before [mark_range]'s
       unchecked page writes *)
    let buf = t.umem.(tid) in
    let off = addr - Layout.user_base in
    let base = kpages + (tid * upages) in
    mark_range t
      (base + (off lsr page_bits))
      (base + ((off + size - 1) lsr page_bits));
    raw_write buf off size (v land size_mask size)
  end
  else raise (Fault addr)

(* Host-side helpers for the executor: peek/poke guest memory without
   producing trace events (used to install syscall argument buffers and to
   read back results). *)
let peek = mem_read
let poke = mem_write

(* Coverage keys pack (from_pc, to_pc) into one int, 24 bits per side.
   Both sides must fit or distinct edges alias under the packing (only
   [to_pc] used to be masked, so an out-of-range [from_pc] silently bled
   into the other half).  An out-of-range pc is not a code location -
   e.g. a Ret through a corrupted stack slot - so such edges are dropped
   rather than recorded under a wrong key. *)
let edge_pc_max = 0xffffff

let record_edge t from_pc to_pc =
  if
    from_pc >= 0 && from_pc <= edge_pc_max && to_pc >= 0 && to_pc <= edge_pc_max
  then Hashtbl.replace t.coverage ((from_pc lsl 24) lor to_pc) ()

let edge_log_push t key =
  let n = t.n_edge_log in
  if n = Array.length t.edge_log then begin
    let bigger = Array.make (2 * n) 0 in
    Array.blit t.edge_log 0 bigger 0 n;
    t.edge_log <- bigger
  end;
  t.edge_log.(n) <- key;
  t.n_edge_log <- n + 1

(* [record_edge] through the edge cache.  The tag packs the 48-bit edge
   key with the current coverage generation, so a cache hit proves the
   edge entered [t.coverage] after the last [reset_coverage] and the
   Hashtbl lookup can be skipped; collisions and first touches fall
   through.  A genuinely new edge is also appended to [edge_log], which
   lets [coverage_edges] skip the O(buckets) table fold when the whole
   run went through this path.  Used by the threaded-code interpreter;
   the oracle [step] keeps the uncached [record_edge]. *)
let record_edge_fast t from_pc to_pc =
  if
    from_pc >= 0 && from_pc <= edge_pc_max && to_pc >= 0 && to_pc <= edge_pc_max
  then begin
    let key = (from_pc lsl 24) lor to_pc in
    let tagged = key lor (t.cov_gen lsl 48) in
    let slot = (key * 0x2545F4914F6CDD1D) lsr 49 land (edge_cache_slots - 1) in
    if t.edge_cache.(slot) <> tagged then begin
      if not (Hashtbl.mem t.coverage key) then begin
        Hashtbl.replace t.coverage key ();
        edge_log_push t key
      end;
      t.edge_cache.(slot) <- tagged
    end
  end

let coverage_size t = Hashtbl.length t.coverage

(* Covered edges, sorted by (from, to).  The log holds exactly the
   distinct keys [record_edge_fast] inserted since the last reset, so
   when its length matches the table every edge went through the fast
   path and the table fold (O(buckets), dominated by empty buckets on
   short runs) is skipped.  Both sources sort to the identical list:
   the packed key orders exactly like the pair. *)
let coverage_edges t =
  let n = Hashtbl.length t.coverage in
  let keys =
    if t.n_edge_log = n then Array.sub t.edge_log 0 n
    else begin
      let a = Array.make n 0 in
      let i = ref 0 in
      Hashtbl.iter
        (fun k () ->
          a.(!i) <- k;
          incr i)
        t.coverage;
      a
    end
  in
  Array.sort Int.compare keys;
  Array.fold_right (fun k acc -> (k lsr 24, k land 0xffffff) :: acc) keys []

(* Bumping the generation invalidates every cache entry at once; on the
   (rare) 15-bit wrap the slots are cleared so stale tags from 32768
   resets ago can never validate again. *)
let reset_coverage t =
  Hashtbl.reset t.coverage;
  t.n_edge_log <- 0;
  if t.cov_gen >= 0x7fff then begin
    t.cov_gen <- 0;
    Array.fill t.edge_cache 0 edge_cache_slots (-1)
  end
  else t.cov_gen <- t.cov_gen + 1

let steps t = t.steps

(* A digest of all guest-visible state (the exact set a snapshot copies),
   used by tests to prove optimised execution paths observationally
   identical to their oracles.  Every variable-length component is
   delimited unambiguously: registers are comma-separated (r0=1,r1=23
   must not collide with r0=12,r1=3) and console lines are
   length-prefixed (["ab"] must not collide with ["a"; "b"]). *)
let fingerprint t =
  let mode_tag = function Kernel -> 0 | User -> 1 | Dead -> 2 in
  let buf = Buffer.create (Layout.kmem_size + 1024) in
  Buffer.add_bytes buf t.kmem;
  Array.iter (Buffer.add_bytes buf) t.umem;
  Array.iter
    (fun c ->
      Array.iter
        (fun r ->
          Buffer.add_string buf (string_of_int r);
          Buffer.add_char buf ',')
        c.regs;
      Buffer.add_string buf (Printf.sprintf "|%d|%d;" c.pc (mode_tag c.mode)))
    t.cpus;
  List.iter
    (fun l ->
      Buffer.add_string buf (string_of_int (String.length l));
      Buffer.add_char buf ':';
      Buffer.add_string buf l)
    t.console;
  Buffer.add_string buf (if t.panicked then "P" else "-");
  Digest.to_hex (Digest.bytes (Buffer.to_bytes buf))

(* Substitute up to three %d placeholders with the low argument regs. *)
let format_msg fmt args =
  let buf = Buffer.create (String.length fmt + 16) in
  let n = String.length fmt in
  let argi = ref 0 in
  let i = ref 0 in
  while !i < n do
    if !i + 1 < n && fmt.[!i] = '%' && fmt.[!i + 1] = 'd' then begin
      let v = if !argi < Array.length args then args.(!argi) else 0 in
      incr argi;
      Buffer.add_string buf (string_of_int v);
      i := !i + 2
    end
    else begin
      Buffer.add_char buf fmt.[!i];
      incr i
    end
  done;
  Buffer.contents buf

let console_lines t = List.rev t.console

let add_console t line = t.console <- line :: t.console

let panicked t = t.panicked

let cpu_mode t tid = t.cpus.(tid).mode

let cpu_pc t tid = t.cpus.(tid).pc

let reg t tid r = t.cpus.(tid).regs.(r)

let set_reg t tid r v = t.cpus.(tid).regs.(r) <- v

(* Prepare a vCPU to run kernel code at [entry] with the given arguments.
   The return-address sentinel makes the final [Ret] visible as
   [Eret_to_user].  Pushing it goes through guest memory so that kernel
   stack contents are realistic. *)
let start_call t tid entry args =
  let c = t.cpus.(tid) in
  Array.fill c.regs 0 Isa.num_regs 0;
  List.iteri (fun i v -> if i < 6 then c.regs.(i) <- v) args;
  c.regs.(Isa.sp) <- Layout.stack_top tid - 8;
  mem_write t tid c.regs.(Isa.sp) 8 ret_sentinel;
  c.pc <- entry;
  c.mode <- Kernel

let image t = t.image

let operand c = function Isa.Imm i -> i | Isa.Reg r -> c.regs.(r)

let access t tid c ~addr ~size ~kind ~value ~atomic =
  t.accesses <- t.accesses + 1;
  Eaccess
    {
      Trace.thread = tid;
      pc = c.pc;
      addr;
      size;
      kind;
      value;
      atomic;
      sp = c.regs.(Isa.sp);
    }

(* Execute one instruction on vCPU [tid]; returns the events produced.
   A data fault kills the thread and reports the same console lines a real
   kernel oops would produce, which is what the console checker greps.

   This list-returning interpreter is the *oracle*: the threaded-code
   interpreter below ([run_tcode]) must stay observationally identical
   to it, and the equivalence is proved by qcheck over random programs
   (the same role [restore_full] plays for the dirty-page restore).  Any
   change to guest semantics must be made to both. *)
let step t tid =
  let c = t.cpus.(tid) in
  if c.mode <> Kernel then invalid_arg "vm: stepping a non-kernel thread";
  let pc = c.pc in
  if pc < 0 || pc >= Array.length t.image.Asm.code then
    invalid_arg (Printf.sprintf "vm: pc out of range: %d" pc);
  let i = t.image.Asm.code.(pc) in
  t.steps <- t.steps + 1;
  let next = pc + 1 in
  try
    match i with
    | Isa.Li (r, v) ->
        c.regs.(r) <- v;
        c.pc <- next;
        []
    | Isa.Mov (d, s) ->
        c.regs.(d) <- c.regs.(s);
        c.pc <- next;
        []
    | Isa.Bin (op, d, a, o) ->
        c.regs.(d) <- Isa.eval_binop op c.regs.(a) (operand c o);
        c.pc <- next;
        []
    | Isa.Load { dst; base; off; size; atomic } ->
        let addr = c.regs.(base) + off in
        let v = mem_read t tid addr size in
        let ev = access t tid c ~addr ~size ~kind:Trace.Read ~value:v ~atomic in
        c.regs.(dst) <- v;
        c.pc <- next;
        [ ev ]
    | Isa.Store { base; off; src; size; atomic } ->
        let addr = c.regs.(base) + off in
        let v = operand c src land size_mask size in
        mem_write t tid addr size v;
        let ev = access t tid c ~addr ~size ~kind:Trace.Write ~value:v ~atomic in
        c.pc <- next;
        [ ev ]
    | Isa.Cas { dst; base; off; expected; desired } ->
        let addr = c.regs.(base) + off in
        let old = mem_read t tid addr 8 in
        let rd = access t tid c ~addr ~size:8 ~kind:Trace.Read ~value:old ~atomic:true in
        if old = operand c expected then begin
          let v = operand c desired in
          mem_write t tid addr 8 v;
          c.regs.(dst) <- 1;
          c.pc <- next;
          [ rd; access t tid c ~addr ~size:8 ~kind:Trace.Write ~value:v ~atomic:true ]
        end
        else begin
          c.regs.(dst) <- 0;
          c.pc <- next;
          [ rd ]
        end
    | Isa.Faa { dst; base; off; delta } ->
        let addr = c.regs.(base) + off in
        let old = mem_read t tid addr 8 in
        let v = old + operand c delta in
        mem_write t tid addr 8 v;
        c.regs.(dst) <- old;
        c.pc <- next;
        [
          access t tid c ~addr ~size:8 ~kind:Trace.Read ~value:old ~atomic:true;
          access t tid c ~addr ~size:8 ~kind:Trace.Write ~value:v ~atomic:true;
        ]
    | Isa.Br (cond, r, o, target) ->
        let taken = Isa.eval_cond cond c.regs.(r) (operand c o) in
        let dest = if taken then target else next in
        record_edge t pc dest;
        c.pc <- dest;
        []
    | Isa.Jmp target ->
        record_edge t pc target;
        c.pc <- target;
        []
    | Isa.Call target ->
        let nsp = c.regs.(Isa.sp) - 8 in
        mem_write t tid nsp 8 next;
        c.regs.(Isa.sp) <- nsp;
        let ev = access t tid c ~addr:nsp ~size:8 ~kind:Trace.Write ~value:next ~atomic:false in
        record_edge t pc target;
        c.pc <- target;
        [ ev; Ecall target ]
    | Isa.Callind r ->
        let target = c.regs.(r) in
        if target < 0 || target >= Array.length t.image.Asm.code then
          raise (Fault target);
        let nsp = c.regs.(Isa.sp) - 8 in
        mem_write t tid nsp 8 next;
        c.regs.(Isa.sp) <- nsp;
        let ev = access t tid c ~addr:nsp ~size:8 ~kind:Trace.Write ~value:next ~atomic:false in
        record_edge t pc target;
        c.pc <- target;
        [ ev; Ecall target ]
    | Isa.Ret ->
        let spv = c.regs.(Isa.sp) in
        let target = mem_read t tid spv 8 in
        let ev = access t tid c ~addr:spv ~size:8 ~kind:Trace.Read ~value:target ~atomic:false in
        c.regs.(Isa.sp) <- spv + 8;
        if target = ret_sentinel then begin
          c.mode <- User;
          [ ev; Eret_to_user ]
        end
        else begin
          record_edge t pc target;
          c.pc <- target;
          [ ev; Ereturn ]
        end
    | Isa.Push r ->
        let nsp = c.regs.(Isa.sp) - 8 in
        let v = c.regs.(r) in
        mem_write t tid nsp 8 v;
        c.regs.(Isa.sp) <- nsp;
        c.pc <- next;
        [ access t tid c ~addr:nsp ~size:8 ~kind:Trace.Write ~value:v ~atomic:false ]
    | Isa.Pop r ->
        let spv = c.regs.(Isa.sp) in
        let v = mem_read t tid spv 8 in
        c.regs.(r) <- v;
        c.regs.(Isa.sp) <- spv + 8;
        c.pc <- next;
        [ access t tid c ~addr:spv ~size:8 ~kind:Trace.Read ~value:v ~atomic:false ]
    | Isa.Pause ->
        c.pc <- next;
        [ Epause ]
    | Isa.Halt ->
        c.mode <- Dead;
        [ Ehalt ]
    | Isa.Hyper h -> (
        c.pc <- next;
        let args = [| c.regs.(0); c.regs.(1); c.regs.(2) |] in
        match h with
        | Isa.Hconsole id ->
            let line = format_msg t.image.Asm.msgs.(id) args in
            add_console t line;
            [ Econsole line ]
        | Isa.Hpanic id ->
            let line = format_msg t.image.Asm.msgs.(id) args in
            add_console t line;
            t.panicked <- true;
            c.mode <- Dead;
            Log.debug (fun m -> m "vCPU %d panic at pc %d: %s" tid pc line);
            [ Econsole line; Epanic line ]
        | Isa.Hlock_acq -> [ Elock (`Acq, c.regs.(0)) ]
        | Isa.Hlock_rel -> [ Elock (`Rel, c.regs.(0)) ]
        | Isa.Hrcu_lock -> [ Ercu `Lock ]
        | Isa.Hrcu_unlock -> [ Ercu `Unlock ])
  with Fault addr ->
    let fn = Asm.func_name t.image pc in
    let line =
      if addr >= 0 && addr < Layout.null_guard_end then
        Printf.sprintf "BUG: kernel NULL pointer dereference, address: 0x%04x, ip: %s" addr fn
      else Printf.sprintf "BUG: unable to handle page fault for address: 0x%x, ip: %s" addr fn
    in
    add_console t line;
    t.panicked <- true;
    c.mode <- Dead;
    Log.debug (fun m -> m "vCPU %d fault at pc %d (%s): %s" tid pc fn line);
    [ Efault addr; Econsole line; Epanic line ]

(* ------------------------------------------------------------------ *)
(* The event sink.                                                     *)

(* [step] allocates an event list (plus a Trace.access record per memory
   instruction) for every instruction retired - the dominant cost of the
   interpreter now that snapshot restore is cheap.  The sink is a
   caller-owned mutable frame the interpreter writes into instead (the
   executor keeps one per domain and reads fields straight out of it).
   Together with the pair-free memory arms ([mem_read]/[mem_write]) this
   makes the threaded-code interpreter allocate nothing per instruction,
   loads and stores included; what still allocates is a console or panic
   line (the formatted string), a fault (the exception and the oops
   line) and the first recording of a coverage edge.

   An instruction produces at most two memory accesses (Cas and Faa:
   read then write), at most one control event of each remaining kind,
   and the event ordering within one instruction is fixed, so parallel
   access arrays plus one field per control event represent any event
   list [step] can return.  [sink_events] materialises the legacy list
   (in the legacy order) for tests and slow consumers. *)

type sink = {
  mutable sk_steps : int;  (* instructions retired into this sink *)
  mutable sk_n_acc : int;  (* memory accesses recorded *)
  sk_acc_pc : int array;
  sk_acc_addr : int array;
  sk_acc_size : int array;
  sk_acc_write : bool array;
  sk_acc_value : int array;
  sk_acc_atomic : bool array;
  sk_acc_sp : int array;
  mutable sk_call : int;  (* entered the function at this pc, or -1 *)
  mutable sk_return : bool;  (* returned from the current function *)
  mutable sk_ret_to_user : bool;
  mutable sk_pause : bool;
  mutable sk_halt : bool;
  mutable sk_panic : bool;
  mutable sk_has_fault : bool;
  mutable sk_fault_addr : int;
  mutable sk_has_console : bool;
  mutable sk_console : string;  (* console line; also the panic line *)
  mutable sk_lock : int;  (* lock address, or -1 *)
  mutable sk_lock_acq : bool;  (* acquire (true) or release *)
  mutable sk_rcu : [ `No | `Lock | `Unlock ];
}

type stop_reason =
  | Rnone  (* only plain instructions retired; nothing trace-relevant *)
  | Revent  (* trace-relevant events in the sink; vCPU still runnable *)
  | Rret_to_user  (* the current system call returned to user space *)
  | Rdead  (* halt, panic or fault: the vCPU left kernel mode *)

let max_sink_accesses = 2

(* The access arrays hold more than one instruction's worth so that
   [run_tblock] can batch across loads and stores: a block only has to
   stop when the next instruction might not fit ([sink_capacity -
   max_sink_accesses] entries used). *)
let sink_capacity = 32

let make_sink () =
  {
    sk_steps = 0;
    sk_n_acc = 0;
    sk_acc_pc = Array.make sink_capacity 0;
    sk_acc_addr = Array.make sink_capacity 0;
    sk_acc_size = Array.make sink_capacity 0;
    sk_acc_write = Array.make sink_capacity false;
    sk_acc_value = Array.make sink_capacity 0;
    sk_acc_atomic = Array.make sink_capacity false;
    sk_acc_sp = Array.make sink_capacity 0;
    sk_call = -1;
    sk_return = false;
    sk_ret_to_user = false;
    sk_pause = false;
    sk_halt = false;
    sk_panic = false;
    sk_has_fault = false;
    sk_fault_addr = 0;
    sk_has_console = false;
    sk_console = "";
    sk_lock = -1;
    sk_lock_acq = false;
    sk_rcu = `No;
  }

let sink_clear s =
  s.sk_steps <- 0;
  s.sk_n_acc <- 0;
  s.sk_call <- -1;
  s.sk_return <- false;
  s.sk_ret_to_user <- false;
  s.sk_pause <- false;
  s.sk_halt <- false;
  s.sk_panic <- false;
  s.sk_has_fault <- false;
  s.sk_fault_addr <- 0;
  s.sk_has_console <- false;
  s.sk_console <- "";
  s.sk_lock <- -1;
  s.sk_lock_acq <- false;
  s.sk_rcu <- `No

(* Materialise access [i] as a Trace.access record (slow path: tests,
   profiling result lists). *)
let sink_access s ~thread i =
  if i < 0 || i >= s.sk_n_acc then invalid_arg "vm: sink access index";
  {
    Trace.thread;
    pc = s.sk_acc_pc.(i);
    addr = s.sk_acc_addr.(i);
    size = s.sk_acc_size.(i);
    kind = (if s.sk_acc_write.(i) then Trace.Write else Trace.Read);
    value = s.sk_acc_value.(i);
    atomic = s.sk_acc_atomic.(i);
    sp = s.sk_acc_sp.(i);
  }

(* Push a test access into a sink (for exercising sink consumers -
   policies, observers - without running guest code). *)
let sink_push_access s (a : Trace.access) =
  if s.sk_n_acc >= sink_capacity then invalid_arg "vm: sink access overflow";
  let i = s.sk_n_acc in
  s.sk_acc_pc.(i) <- a.Trace.pc;
  s.sk_acc_addr.(i) <- a.Trace.addr;
  s.sk_acc_size.(i) <- a.Trace.size;
  s.sk_acc_write.(i) <- a.Trace.kind = Trace.Write;
  s.sk_acc_value.(i) <- a.Trace.value;
  s.sk_acc_atomic.(i) <- a.Trace.atomic;
  s.sk_acc_sp.(i) <- a.Trace.sp;
  s.sk_n_acc <- i + 1

(* The legacy event list for this sink, in the order [step] would have
   returned it.  The order is fixed per instruction kind: accesses come
   first (a Call's stack write before its Ecall, a Ret's stack read
   before Ereturn/Eret_to_user), a fault's Efault precedes its console
   line which precedes the panic, and the remaining events are mutually
   exclusive singletons. *)
let sink_events s ~thread =
  let accs = List.init s.sk_n_acc (fun i -> Eaccess (sink_access s ~thread i)) in
  let tail = [] in
  let tail = (match s.sk_rcu with `No -> tail | `Lock -> Ercu `Lock :: tail | `Unlock -> Ercu `Unlock :: tail) in
  let tail = if s.sk_lock >= 0 then Elock ((if s.sk_lock_acq then `Acq else `Rel), s.sk_lock) :: tail else tail in
  let tail = if s.sk_halt then Ehalt :: tail else tail in
  let tail = if s.sk_pause then Epause :: tail else tail in
  let tail = if s.sk_ret_to_user then Eret_to_user :: tail else tail in
  let tail = if s.sk_return then Ereturn :: tail else tail in
  let tail = if s.sk_panic then Epanic s.sk_console :: tail else tail in
  let tail = if s.sk_has_console then Econsole s.sk_console :: tail else tail in
  let tail = if s.sk_has_fault then Efault s.sk_fault_addr :: tail else tail in
  let tail = if s.sk_call >= 0 then Ecall s.sk_call :: tail else tail in
  accs @ tail

(* Record a memory access into the sink; reads [c.pc] and the stack
   pointer at call time, exactly as [access] does (some instructions
   update them before the event is created - Faa, Push and Pop record
   the *next* pc, Pop records the popped sp - and those quirks are
   baked into profiles and PMCs, so they must be reproduced). *)
let sink_acc t c s ~addr ~size ~write ~value ~atomic =
  t.accesses <- t.accesses + 1;
  t.events_sunk <- t.events_sunk + 1;
  let i = s.sk_n_acc in
  s.sk_acc_pc.(i) <- c.pc;
  s.sk_acc_addr.(i) <- addr;
  s.sk_acc_size.(i) <- size;
  s.sk_acc_write.(i) <- write;
  s.sk_acc_value.(i) <- value;
  s.sk_acc_atomic.(i) <- atomic;
  s.sk_acc_sp.(i) <- c.regs.(Isa.sp);
  s.sk_n_acc <- i + 1

(* ------------------------------------------------------------------ *)
(* The threaded-code interpreter.                                      *)

(* [run_tcode] executes the pre-decoded {!Tcode.t} form instead of the
   boxed [Isa.instr] array: one dense-int dispatch per instruction with
   every variant folded into the opcode, operands loaded from flat int
   arrays, and the peephole superops retiring two instructions per
   dispatch.  Register indices and access sizes were validated at decode
   time, so the register file and operand arrays are read unchecked
   ([pc] itself is bounds-checked against the code length each
   iteration, and all operand arrays share that length).

   This is the second transcription of the guest semantics, held to
   [step]'s contract: identical guest state transitions, sink contents
   that materialise to [step]'s event lists (including the pc/sp
   recording quirks of [sink_acc]), identical step/access/event
   accounting, identical fault handling.  The qcheck equivalence and
   lockstep properties in the tests enforce it. *)

(* Monomorphic on [int array]: a polymorphic wrapper would compile to
   generic-array accesses (float-tag check per load, [caml_modify] per
   store) even after inlining, which is exactly the cost this
   interpreter exists to avoid. *)
let[@inline] ug (a : int array) i = Array.unsafe_get a i
let[@inline] us (a : int array) i (v : int) = Array.unsafe_set a i v

(* Superop tails re-dispatch on their *raw* (pre-fusion) opcode; the
   main jump table already paid for the pair, so a tiny dense match on
   the component variant is all that's left. *)
let[@inline] tc_bin_eval bcode a b =
  match bcode with
  | 2 | 11 -> a + b
  | 3 | 12 -> a - b
  | 4 | 13 -> a land b
  | 5 | 14 -> a lor b
  | 6 | 15 -> a lxor b
  | 7 | 16 -> a lsl b
  | 8 | 17 -> a lsr b
  | 9 | 18 -> a * b
  | _ -> if b = 0 then 0 else a / b

let[@inline] tc_cond_eval bcode a b =
  match bcode with
  | 20 | 26 -> a = b
  | 21 | 27 -> a <> b
  | 22 | 28 -> a < b
  | 23 | 29 -> a <= b
  | 24 | 30 -> a > b
  | _ -> a >= b

(* Continue the block past an access-only instruction?  Sequential
   blocks keep going while only memory accesses accumulated and the sink
   has room for another instruction's worth; concurrent blocks ([conc])
   stop at every event-producing instruction so the scheduler's decision
   cadence at events is exactly the per-step loop's. *)
let[@inline] tc_keep_going conc sink =
  (not conc)
  && sink.sk_call < 0
  && (not sink.sk_return)
  && (not sink.sk_pause)
  && (not sink.sk_has_console)
  && sink.sk_lock < 0
  && sink.sk_rcu = `No
  && sink.sk_n_acc + max_sink_accesses <= sink_capacity

(* One plain (li/mov/bin) instruction, decoded from [raw] — the body of
   the generic plain-pair superop's halves.  A single dense match so
   each half costs one jump-table dispatch with the operation inline,
   the same as the unfused arms. *)
let[@inline] tc_plain regs f0 f1 f2 raw pc =
  match ug raw pc with
  | 0 -> us regs (ug f0 pc) (ug f1 pc)
  | 1 -> us regs (ug f0 pc) (ug regs (ug f1 pc))
  | 2 -> us regs (ug f0 pc) (ug regs (ug f1 pc) + ug f2 pc)
  | 3 -> us regs (ug f0 pc) (ug regs (ug f1 pc) - ug f2 pc)
  | 4 -> us regs (ug f0 pc) (ug regs (ug f1 pc) land ug f2 pc)
  | 5 -> us regs (ug f0 pc) (ug regs (ug f1 pc) lor ug f2 pc)
  | 6 -> us regs (ug f0 pc) (ug regs (ug f1 pc) lxor ug f2 pc)
  | 7 -> us regs (ug f0 pc) (ug regs (ug f1 pc) lsl ug f2 pc)
  | 8 -> us regs (ug f0 pc) (ug regs (ug f1 pc) lsr ug f2 pc)
  | 9 -> us regs (ug f0 pc) (ug regs (ug f1 pc) * ug f2 pc)
  | 10 ->
      let b = ug f2 pc in
      us regs (ug f0 pc) (if b = 0 then 0 else ug regs (ug f1 pc) / b)
  | 11 -> us regs (ug f0 pc) (ug regs (ug f1 pc) + ug regs (ug f2 pc))
  | 12 -> us regs (ug f0 pc) (ug regs (ug f1 pc) - ug regs (ug f2 pc))
  | 13 -> us regs (ug f0 pc) (ug regs (ug f1 pc) land ug regs (ug f2 pc))
  | 14 -> us regs (ug f0 pc) (ug regs (ug f1 pc) lor ug regs (ug f2 pc))
  | 15 -> us regs (ug f0 pc) (ug regs (ug f1 pc) lxor ug regs (ug f2 pc))
  | 16 -> us regs (ug f0 pc) (ug regs (ug f1 pc) lsl ug regs (ug f2 pc))
  | 17 -> us regs (ug f0 pc) (ug regs (ug f1 pc) lsr ug regs (ug f2 pc))
  | 18 -> us regs (ug f0 pc) (ug regs (ug f1 pc) * ug regs (ug f2 pc))
  | _ ->
      let b = ug regs (ug f2 pc) in
      us regs (ug f0 pc) (if b = 0 then 0 else ug regs (ug f1 pc) / b)

let run_tcode t (tc : Tcode.t) ~tid ~quantum ~conc sink =
  if not (tc.Tcode.image == t.image) then
    invalid_arg
      "vm: stale threaded code: decoded from a different image (rebuild \
       via Tcode.of_image)";
  sink_clear sink;
  let c = t.cpus.(tid) in
  if c.mode <> Kernel then invalid_arg "vm: stepping a non-kernel thread";
  let ops = tc.Tcode.ops
  and raw = tc.Tcode.raw
  and f0 = tc.Tcode.f0
  and f1 = tc.Tcode.f1
  and f2 = tc.Tcode.f2
  and f3 = tc.Tcode.f3
  and f4 = tc.Tcode.f4 in
  let regs = c.regs in
  let len = Array.length ops - 1 (* guest code length; ops.(len) = oob *) in
  (* All of the loop state lives in non-escaping refs, which compile to
     stack slots, and the memory arms return no pair, so neither the call
     nor a memory-touching instruction allocates (console and panic
     lines, faults and first-seen coverage edges aside; the tests pin a
     whole system call at 0 words).  [c.pc] is synced only
     at event arms — which need it for [sink_acc]'s pc-recording
     semantics and for the fault handler — and at exits.  [fault_rem]
     snapshots [rem] right before any operation that can raise [Fault],
     so the handler can reconstruct the retired count including the
     faulting instruction, exactly as [step] counts it at entry.
     In-range pcs need no per-dispatch bounds check: the entry pc is
     validated up front, branch/jmp/call targets are label-resolved
     inside the image, indirect-call targets are checked in their arm,
     and falling through the end lands on the [op_oob] sentinel slot. *)
  let pc = ref c.pc in
  let rem = ref quantum in
  let result = ref Rnone in
  let fault_rem = ref quantum in
  let stop = ref false in
  if quantum > 0 && (!pc < 0 || !pc >= len) then
    invalid_arg (Printf.sprintf "vm: pc out of range: %d" !pc);
  (try
     while !rem > 0 && not !stop do
       let p = !pc in
       (match ug ops p with
       (* li / mov *)
       | 0 ->
           us regs (ug f0 p) (ug f1 p);
           pc := p + 1;
           rem := !rem - 1
       | 1 ->
           us regs (ug f0 p) (ug regs (ug f1 p));
           pc := p + 1;
           rem := !rem - 1
       (* bin reg,imm: Add Sub And Or Xor Shl Shr Mul Div *)
       | 2 ->
           us regs (ug f0 p) (ug regs (ug f1 p) + ug f2 p);
           pc := p + 1;
           rem := !rem - 1
       | 3 ->
           us regs (ug f0 p) (ug regs (ug f1 p) - ug f2 p);
           pc := p + 1;
           rem := !rem - 1
       | 4 ->
           us regs (ug f0 p) (ug regs (ug f1 p) land ug f2 p);
           pc := p + 1;
           rem := !rem - 1
       | 5 ->
           us regs (ug f0 p) (ug regs (ug f1 p) lor ug f2 p);
           pc := p + 1;
           rem := !rem - 1
       | 6 ->
           us regs (ug f0 p) (ug regs (ug f1 p) lxor ug f2 p);
           pc := p + 1;
           rem := !rem - 1
       | 7 ->
           us regs (ug f0 p) (ug regs (ug f1 p) lsl ug f2 p);
           pc := p + 1;
           rem := !rem - 1
       | 8 ->
           us regs (ug f0 p) (ug regs (ug f1 p) lsr ug f2 p);
           pc := p + 1;
           rem := !rem - 1
       | 9 ->
           us regs (ug f0 p) (ug regs (ug f1 p) * ug f2 p);
           pc := p + 1;
           rem := !rem - 1
       | 10 ->
           let b = ug f2 p in
           us regs (ug f0 p) (if b = 0 then 0 else ug regs (ug f1 p) / b);
           pc := p + 1;
           rem := !rem - 1
       (* bin reg,reg *)
       | 11 ->
           us regs (ug f0 p) (ug regs (ug f1 p) + ug regs (ug f2 p));
           pc := p + 1;
           rem := !rem - 1
       | 12 ->
           us regs (ug f0 p) (ug regs (ug f1 p) - ug regs (ug f2 p));
           pc := p + 1;
           rem := !rem - 1
       | 13 ->
           us regs (ug f0 p) (ug regs (ug f1 p) land ug regs (ug f2 p));
           pc := p + 1;
           rem := !rem - 1
       | 14 ->
           us regs (ug f0 p) (ug regs (ug f1 p) lor ug regs (ug f2 p));
           pc := p + 1;
           rem := !rem - 1
       | 15 ->
           us regs (ug f0 p) (ug regs (ug f1 p) lxor ug regs (ug f2 p));
           pc := p + 1;
           rem := !rem - 1
       | 16 ->
           us regs (ug f0 p) (ug regs (ug f1 p) lsl ug regs (ug f2 p));
           pc := p + 1;
           rem := !rem - 1
       | 17 ->
           us regs (ug f0 p) (ug regs (ug f1 p) lsr ug regs (ug f2 p));
           pc := p + 1;
           rem := !rem - 1
       | 18 ->
           us regs (ug f0 p) (ug regs (ug f1 p) * ug regs (ug f2 p));
           pc := p + 1;
           rem := !rem - 1
       | 19 ->
           let b = ug regs (ug f2 p) in
           us regs (ug f0 p) (if b = 0 then 0 else ug regs (ug f1 p) / b);
           pc := p + 1;
           rem := !rem - 1
       (* br reg,imm: Eq Ne Lt Le Gt Ge *)
       | 20 ->
           let dest = if ug regs (ug f0 p) = ug f1 p then ug f2 p else p + 1 in
           record_edge_fast t p dest;
           pc := dest;
           rem := !rem - 1
       | 21 ->
           let dest =
             if ug regs (ug f0 p) <> ug f1 p then ug f2 p else p + 1
           in
           record_edge_fast t p dest;
           pc := dest;
           rem := !rem - 1
       | 22 ->
           let dest = if ug regs (ug f0 p) < ug f1 p then ug f2 p else p + 1 in
           record_edge_fast t p dest;
           pc := dest;
           rem := !rem - 1
       | 23 ->
           let dest =
             if ug regs (ug f0 p) <= ug f1 p then ug f2 p else p + 1
           in
           record_edge_fast t p dest;
           pc := dest;
           rem := !rem - 1
       | 24 ->
           let dest = if ug regs (ug f0 p) > ug f1 p then ug f2 p else p + 1 in
           record_edge_fast t p dest;
           pc := dest;
           rem := !rem - 1
       | 25 ->
           let dest =
             if ug regs (ug f0 p) >= ug f1 p then ug f2 p else p + 1
           in
           record_edge_fast t p dest;
           pc := dest;
           rem := !rem - 1
       (* br reg,reg *)
       | 26 ->
           let dest =
             if ug regs (ug f0 p) = ug regs (ug f1 p) then ug f2 p else p + 1
           in
           record_edge_fast t p dest;
           pc := dest;
           rem := !rem - 1
       | 27 ->
           let dest =
             if ug regs (ug f0 p) <> ug regs (ug f1 p) then ug f2 p else p + 1
           in
           record_edge_fast t p dest;
           pc := dest;
           rem := !rem - 1
       | 28 ->
           let dest =
             if ug regs (ug f0 p) < ug regs (ug f1 p) then ug f2 p else p + 1
           in
           record_edge_fast t p dest;
           pc := dest;
           rem := !rem - 1
       | 29 ->
           let dest =
             if ug regs (ug f0 p) <= ug regs (ug f1 p) then ug f2 p else p + 1
           in
           record_edge_fast t p dest;
           pc := dest;
           rem := !rem - 1
       | 30 ->
           let dest =
             if ug regs (ug f0 p) > ug regs (ug f1 p) then ug f2 p else p + 1
           in
           record_edge_fast t p dest;
           pc := dest;
           rem := !rem - 1
       | 31 ->
           let dest =
             if ug regs (ug f0 p) >= ug regs (ug f1 p) then ug f2 p else p + 1
           in
           record_edge_fast t p dest;
           pc := dest;
           rem := !rem - 1
       (* jmp *)
       | 32 ->
           let target = ug f0 p in
           record_edge_fast t p target;
           pc := target;
           rem := !rem - 1
       (* load *)
       | 33 ->
           c.pc <- p;
           fault_rem := !rem;
           let addr = ug regs (ug f1 p) + ug f2 p in
           let size = ug f3 p in
           let v = mem_read t tid addr size in
           sink_acc t c sink ~addr ~size ~write:false ~value:v
             ~atomic:(ug f4 p = 1);
           us regs (ug f0 p) v;
           c.pc <- p + 1;
           result := Revent;
           pc := p + 1;
           rem := !rem - 1;
           if not (tc_keep_going conc sink) then stop := true
       (* store imm / store reg (imm pre-masked at decode) *)
       | 34 ->
           c.pc <- p;
           fault_rem := !rem;
           let addr = ug regs (ug f0 p) + ug f1 p in
           let size = ug f3 p in
           let v = ug f2 p in
           mem_write t tid addr size v;
           sink_acc t c sink ~addr ~size ~write:true ~value:v
             ~atomic:(ug f4 p = 1);
           c.pc <- p + 1;
           result := Revent;
           pc := p + 1;
           rem := !rem - 1;
           if not (tc_keep_going conc sink) then stop := true
       | 35 ->
           c.pc <- p;
           fault_rem := !rem;
           let addr = ug regs (ug f0 p) + ug f1 p in
           let size = ug f3 p in
           let v = ug regs (ug f2 p) land size_mask size in
           mem_write t tid addr size v;
           sink_acc t c sink ~addr ~size ~write:true ~value:v
             ~atomic:(ug f4 p = 1);
           c.pc <- p + 1;
           result := Revent;
           pc := p + 1;
           rem := !rem - 1;
           if not (tc_keep_going conc sink) then stop := true
       (* cas: expected/desired each imm or reg per variant *)
       | (36 | 37 | 38 | 39) as oc ->
           c.pc <- p;
           fault_rem := !rem;
           let addr = ug regs (ug f1 p) + ug f2 p in
           let old = mem_read t tid addr 8 in
           sink_acc t c sink ~addr ~size:8 ~write:false ~value:old
             ~atomic:true;
           let expected = if oc >= 38 then ug regs (ug f3 p) else ug f3 p in
           (if old = expected then begin
              let v = if oc = 37 || oc = 39 then ug regs (ug f4 p) else ug f4 p in
              mem_write t tid addr 8 v;
              us regs (ug f0 p) 1;
              c.pc <- p + 1;
              (* write access records the already-advanced pc, as the
                 legacy list does *)
              sink_acc t c sink ~addr ~size:8 ~write:true ~value:v
                ~atomic:true
            end
            else begin
              us regs (ug f0 p) 0;
              c.pc <- p + 1
            end);
           result := Revent;
           pc := p + 1;
           rem := !rem - 1;
           if not (tc_keep_going conc sink) then stop := true
       (* faa imm / faa reg *)
       | (40 | 41) as oc ->
           c.pc <- p;
           fault_rem := !rem;
           let addr = ug regs (ug f1 p) + ug f2 p in
           let old = mem_read t tid addr 8 in
           let v = old + (if oc = 41 then ug regs (ug f3 p) else ug f3 p) in
           mem_write t tid addr 8 v;
           us regs (ug f0 p) old;
           c.pc <- p + 1;
           sink_acc t c sink ~addr ~size:8 ~write:false ~value:old
             ~atomic:true;
           sink_acc t c sink ~addr ~size:8 ~write:true ~value:v ~atomic:true;
           result := Revent;
           pc := p + 1;
           rem := !rem - 1;
           if not (tc_keep_going conc sink) then stop := true
       (* call *)
       | 42 ->
           c.pc <- p;
           fault_rem := !rem;
           let target = ug f0 p in
           let nsp = regs.(Isa.sp) - 8 in
           mem_write t tid nsp 8 (p + 1);
           regs.(Isa.sp) <- nsp;
           sink_acc t c sink ~addr:nsp ~size:8 ~write:true ~value:(p + 1)
             ~atomic:false;
           record_edge_fast t p target;
           c.pc <- target;
           sink.sk_call <- target;
           t.events_sunk <- t.events_sunk + 1;
           result := Revent;
           pc := target;
           rem := !rem - 1;
           stop := true
       (* callind *)
       | 43 ->
           c.pc <- p;
           fault_rem := !rem;
           let target = ug regs (ug f0 p) in
           if target < 0 || target >= len then raise (Fault target);
           let nsp = regs.(Isa.sp) - 8 in
           mem_write t tid nsp 8 (p + 1);
           regs.(Isa.sp) <- nsp;
           sink_acc t c sink ~addr:nsp ~size:8 ~write:true ~value:(p + 1)
             ~atomic:false;
           record_edge_fast t p target;
           c.pc <- target;
           sink.sk_call <- target;
           t.events_sunk <- t.events_sunk + 1;
           result := Revent;
           pc := target;
           rem := !rem - 1;
           stop := true
       (* ret *)
       | 44 ->
           c.pc <- p;
           fault_rem := !rem;
           let spv = regs.(Isa.sp) in
           let target = mem_read t tid spv 8 in
           sink_acc t c sink ~addr:spv ~size:8 ~write:false ~value:target
             ~atomic:false;
           regs.(Isa.sp) <- spv + 8;
           t.events_sunk <- t.events_sunk + 1;
           (if target = ret_sentinel then begin
              c.mode <- User;
              sink.sk_ret_to_user <- true;
              result := Rret_to_user
            end
            else begin
              record_edge_fast t p target;
              c.pc <- target;
              pc := target;
              sink.sk_return <- true;
              result := Revent
            end);
           rem := !rem - 1;
           stop := true
       (* push *)
       | 45 ->
           c.pc <- p;
           fault_rem := !rem;
           let nsp = regs.(Isa.sp) - 8 in
           let v = ug regs (ug f0 p) in
           mem_write t tid nsp 8 v;
           regs.(Isa.sp) <- nsp;
           c.pc <- p + 1;
           (* records the advanced pc and the new sp, like [step]'s
              access built after the updates *)
           sink_acc t c sink ~addr:nsp ~size:8 ~write:true ~value:v
             ~atomic:false;
           result := Revent;
           pc := p + 1;
           rem := !rem - 1;
           if not (tc_keep_going conc sink) then stop := true
       (* pop *)
       | 46 ->
           c.pc <- p;
           fault_rem := !rem;
           let spv = regs.(Isa.sp) in
           let v = mem_read t tid spv 8 in
           us regs (ug f0 p) v;
           regs.(Isa.sp) <- spv + 8;
           c.pc <- p + 1;
           sink_acc t c sink ~addr:spv ~size:8 ~write:false ~value:v
             ~atomic:false;
           result := Revent;
           pc := p + 1;
           rem := !rem - 1;
           if not (tc_keep_going conc sink) then stop := true
       (* pause *)
       | 47 ->
           c.pc <- p + 1;
           sink.sk_pause <- true;
           t.events_sunk <- t.events_sunk + 1;
           result := Revent;
           pc := p + 1;
           rem := !rem - 1;
           stop := true
       (* halt *)
       | 48 ->
           c.pc <- p;
           c.mode <- Dead;
           sink.sk_halt <- true;
           t.events_sunk <- t.events_sunk + 1;
           result := Rdead;
           rem := !rem - 1;
           stop := true
       (* hconsole *)
       | 49 ->
           c.pc <- p + 1;
           let args = [| regs.(0); regs.(1); regs.(2) |] in
           let line = format_msg t.image.Asm.msgs.(ug f0 p) args in
           add_console t line;
           sink.sk_has_console <- true;
           sink.sk_console <- line;
           t.events_sunk <- t.events_sunk + 1;
           result := Revent;
           pc := p + 1;
           rem := !rem - 1;
           stop := true
       (* hpanic *)
       | 50 ->
           c.pc <- p + 1;
           let args = [| regs.(0); regs.(1); regs.(2) |] in
           let line = format_msg t.image.Asm.msgs.(ug f0 p) args in
           add_console t line;
           t.panicked <- true;
           c.mode <- Dead;
           Log.debug (fun m -> m "vCPU %d panic at pc %d: %s" tid p line);
           sink.sk_has_console <- true;
           sink.sk_console <- line;
           sink.sk_panic <- true;
           t.events_sunk <- t.events_sunk + 2;
           result := Rdead;
           pc := p + 1;
           rem := !rem - 1;
           stop := true
       (* hlock_acq / hlock_rel *)
       | 51 ->
           c.pc <- p + 1;
           sink.sk_lock <- regs.(0);
           sink.sk_lock_acq <- true;
           t.events_sunk <- t.events_sunk + 1;
           result := Revent;
           pc := p + 1;
           rem := !rem - 1;
           stop := true
       | 52 ->
           c.pc <- p + 1;
           sink.sk_lock <- regs.(0);
           sink.sk_lock_acq <- false;
           t.events_sunk <- t.events_sunk + 1;
           result := Revent;
           pc := p + 1;
           rem := !rem - 1;
           stop := true
       (* hrcu_lock / hrcu_unlock *)
       | 53 ->
           c.pc <- p + 1;
           sink.sk_rcu <- `Lock;
           t.events_sunk <- t.events_sunk + 1;
           result := Revent;
           pc := p + 1;
           rem := !rem - 1;
           stop := true
       | 54 ->
           c.pc <- p + 1;
           sink.sk_rcu <- `Unlock;
           t.events_sunk <- t.events_sunk + 1;
           result := Revent;
           pc := p + 1;
           rem := !rem - 1;
           stop := true
       (* superop load+br *)
       | 55 ->
           c.pc <- p;
           fault_rem := !rem;
           let addr = ug regs (ug f1 p) + ug f2 p in
           let size = ug f3 p in
           let v = mem_read t tid addr size in
           sink_acc t c sink ~addr ~size ~write:false ~value:v
             ~atomic:(ug f4 p = 1);
           us regs (ug f0 p) v;
           c.pc <- p + 1;
           result := Revent;
           if not (tc_keep_going conc sink) then begin
             pc := p + 1;
             rem := !rem - 1;
             stop := true
           end
           else if !rem > 1 then begin
             let bpc = p + 1 in
             let bcode = ug raw bpc in
             let a = ug regs (ug f0 bpc) in
             let b = if bcode >= 26 then ug regs (ug f1 bpc) else ug f1 bpc in
             let dest = if tc_cond_eval bcode a b then ug f2 bpc else bpc + 1 in
             record_edge_fast t bpc dest;
             pc := dest;
             rem := !rem - 2
           end
           else begin
             pc := p + 1;
             rem := !rem - 1
           end
       (* superop bin+store *)
       | 56 ->
           let bcode = ug raw p in
           let a = ug regs (ug f1 p) in
           let b = if bcode >= 11 then ug regs (ug f2 p) else ug f2 p in
           us regs (ug f0 p) (tc_bin_eval bcode a b);
           if !rem > 1 then begin
             let spc = p + 1 in
             (* [c.pc] is the store's pc here, so the access records it *)
             c.pc <- spc;
             fault_rem := !rem - 1;
             let scode = ug raw spc in
             let size = ug f3 spc in
             let addr = ug regs (ug f0 spc) + ug f1 spc in
             let v =
               if scode = 34 then ug f2 spc
               else ug regs (ug f2 spc) land size_mask size
             in
             mem_write t tid addr size v;
             sink_acc t c sink ~addr ~size ~write:true ~value:v
               ~atomic:(ug f4 spc = 1);
             c.pc <- spc + 1;
             result := Revent;
             pc := spc + 1;
             rem := !rem - 2;
             if not (tc_keep_going conc sink) then stop := true
           end
           else begin
             pc := p + 1;
             rem := !rem - 1
           end
       (* superop bin+br *)
       | 57 ->
           let bcode = ug raw p in
           let a = ug regs (ug f1 p) in
           let b = if bcode >= 11 then ug regs (ug f2 p) else ug f2 p in
           us regs (ug f0 p) (tc_bin_eval bcode a b);
           if !rem > 1 then begin
             let bpc = p + 1 in
             let bbcode = ug raw bpc in
             let ba = ug regs (ug f0 bpc) in
             let bb = if bbcode >= 26 then ug regs (ug f1 bpc) else ug f1 bpc in
             let dest =
               if tc_cond_eval bbcode ba bb then ug f2 bpc else bpc + 1
             in
             record_edge_fast t bpc dest;
             pc := dest;
             rem := !rem - 2
           end
           else begin
             pc := p + 1;
             rem := !rem - 1
           end
       (* superop plain run: [f3] consecutive li/mov/bin instructions,
          executed in one counted loop — no events, no faults, no
          edges, so the only bookkeeping is the retired count *)
       | 58 ->
           let l0 = ug f3 p in
           let l = if l0 <= !rem then l0 else !rem in
           for i = p to p + l - 1 do
             tc_plain regs f0 f1 f2 raw i
           done;
           pc := p + l;
           rem := !rem - l
       (* oob sentinel: fell through past the last instruction *)
       | 59 ->
           c.pc <- p;
           t.steps <- t.steps + (quantum - !rem);
           sink.sk_steps <- sink.sk_steps + (quantum - !rem);
           invalid_arg (Printf.sprintf "vm: pc out of range: %d" p)
       | _ -> assert false)
     done;
     if not !stop then c.pc <- !pc;
     let retired = quantum - !rem in
     t.steps <- t.steps + retired;
     sink.sk_steps <- sink.sk_steps + retired
   with Fault addr ->
     (* Every fault point above fires before the faulting instruction
        updates [c.pc] (memory is touched first, as in [step]),
        so [c.pc] is the faulting instruction's own pc — including the
        store half of a superop, whose arm set [c.pc] to it. *)
     let retired = quantum - !fault_rem + 1 in
     t.steps <- t.steps + retired;
     sink.sk_steps <- sink.sk_steps + retired;
     let fpc = c.pc in
     let fn = Asm.func_name t.image fpc in
     let line =
       if addr >= 0 && addr < Layout.null_guard_end then
         Printf.sprintf
           "BUG: kernel NULL pointer dereference, address: 0x%04x, ip: %s"
           addr fn
       else
         Printf.sprintf
           "BUG: unable to handle page fault for address: 0x%x, ip: %s" addr
           fn
     in
     add_console t line;
     t.panicked <- true;
     c.mode <- Dead;
     Log.debug (fun m -> m "vCPU %d fault at pc %d (%s): %s" tid fpc fn line);
     sink.sk_has_fault <- true;
     sink.sk_fault_addr <- addr;
     sink.sk_has_console <- true;
     sink.sk_console <- line;
     sink.sk_panic <- true;
     t.events_sunk <- t.events_sunk + 3;
     result := Rdead);
  !result

let run_tblock t tc ~tid ~quantum sink =
  run_tcode t tc ~tid ~quantum ~conc:false sink

let run_tblock_conc t tc ~tid ~quantum sink =
  run_tcode t tc ~tid ~quantum ~conc:true sink

let events_sunk t = t.events_sunk
