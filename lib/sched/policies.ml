(* Scheduling policies for concurrent trials.

   - [snowboard]: Algorithm 2.  The policy watches for accesses that match
     a PMC under test (performed_pmc_access) and for accesses previously
     observed right before a PMC access (pmc_access_coming, via the flags
     set), and switches threads non-deterministically at exactly those
     points.
   - [ski]: the SKI baseline exactly as characterised in section 5.4:
     "SKI yields thread execution whenever it observes the write or read
     instruction involved in a PMC (regardless of memory targets), while
     Snowboard only reschedules execution when it observes a precise PMC
     write or read access."  Without target filtering SKI cannot build
     the flags set either, so it needs far more interleavings to land on
     narrow windows (the 84x of the paper).
   - [naive]: sparse uniformly random preemption at shared accesses, used
     for the Random/Duplicate pairing baselines.

   Policies read the executor's sink frame directly: the accesses live
   in the sink's parallel arrays, each with the shared flag the VM
   computed, and are matched on their raw fields.  All three are
   event-only (see [Exec.policy]): they read only the sink's shared
   accesses, which sit in the block's last instruction, and a sink
   without one draws nothing and changes nothing.  [ski] used to match
   its two pcs on every access, stack accesses included; it now tests
   the shared flag first, as [naive] does.  A stack access is
   thread-private, so it cannot carry a PMC's communication, and SKI
   stays target-insensitive among shared addresses.  [snowboard] and
   [naive] allocate nothing per decision (the tests pin this with
   [Gc.minor_words]); only learning a new flag, or watching a pc beyond
   the watch table, grows a table.  RNG draw order is identical to the
   legacy event-list policies (one potential draw per matching access,
   in program order), which keeps recorded schedules and replay traces
   byte-stable across the sink rewrite. *)

module Vm = Vmm.Vm
module Trace = Vmm.Trace

(* Mutable state Algorithm 2 persists across the trials of one concurrent
   test: the PMCs under test (line 6, grown by incidental discovery at
   line 27) and the flags set (line 20).  Flags and [last_access] hold
   access signatures packed into one int (see [signature]), so neither
   a lookup nor remembering the last access allocates.

   [watch] holds one byte of bits per pc, up to the largest watched pc:
   [watch_write] if a PMC under test writes there, [watch_read] if one
   reads there, [watch_flag] if a flag has that pc.  An access at a pc
   without the bit for its kind, and without [watch_flag], can match
   neither branch of [decide], which then skips the PMC scan and the
   flags lookup.  [add_pmc] and flag learning keep it current.  An
   access at a pc outside [0, watch_pc_max] always takes both lookups,
   so a PMC or flag there needs no bit. *)
type snowboard_state = {
  mutable current_pmcs : Core.Pmc.t list;
  flags : (int, unit) Hashtbl.t;
  last_access : int array;  (* per thread; -1 for none *)
  mutable windows_seen : int;
      (* pmc_access_coming windows entered; miss diagnostics read the
         per-trial delta *)
  mutable watch : Bytes.t;
}

let watch_write = 1
let watch_read = 2
let watch_flag = 4

(* Guest code is far smaller; this only bounds the table against a
   corrupt pc. *)
let watch_pc_max = 0xffffff

let watch st pc bit =
  if pc >= 0 && pc <= watch_pc_max then begin
    let len = Bytes.length st.watch in
    if pc >= len then begin
      let w = Bytes.make (pc + 1) '\000' in
      Bytes.blit st.watch 0 w 0 len;
      st.watch <- w
    end;
    Bytes.unsafe_set st.watch pc
      (Char.unsafe_chr (Char.code (Bytes.unsafe_get st.watch pc) lor bit))
  end

let watch_pmc st (p : Core.Pmc.t) =
  watch st p.Core.Pmc.write.Core.Pmc.ins watch_write;
  watch st p.Core.Pmc.read.Core.Pmc.ins watch_read

let snowboard_state ?(nthreads = 2) hint =
  let st =
    {
      current_pmcs = (match hint with Some p -> [ p ] | None -> []);
      flags = Hashtbl.create 64;
      last_access = Array.make nthreads (-1);
      windows_seen = 0;
      watch = Bytes.empty;
    }
  in
  Option.iter (watch_pmc st) hint;
  st

let add_pmc st pmc =
  if not (List.exists (Core.Pmc.equal pmc) st.current_pmcs) then begin
    st.current_pmcs <- pmc :: st.current_pmcs;
    watch_pmc st pmc
  end

(* (pc, kind, addr) packed as [pc lsl 32 lor addr lsl 1 lor write]:
   injective for 0 <= pc < 2^30 and 0 <= addr < 2^31, which holds for
   every shared access (its address lies below [Layout.kmem_size]), and
   never -1. *)
let[@inline] key ~pc ~write ~addr =
  (pc lsl 32) lor (addr lsl 1) lor Bool.to_int write

let signature (a : Trace.access) =
  key ~pc:a.Trace.pc ~write:(a.Trace.kind = Trace.Write) ~addr:a.Trace.addr

(* performed_pmc_access over the PMCs under test, as a plain recursion:
   a [List.exists] closure would capture the access fields, one
   allocation per shared access. *)
let rec matches_any ~pc ~addr ~size ~write = function
  | [] -> false
  | p :: rest ->
      Core.Pmc.matches_at p ~pc ~addr ~size ~write
      || matches_any ~pc ~addr ~size ~write rest

(* The watch bits of an access at [pc]: none past the table's end, every
   bit outside the range it can index. *)
let[@inline] watched st pc =
  if pc < 0 || pc > watch_pc_max then watch_write lor watch_read lor watch_flag
  else if pc < Bytes.length st.watch then Char.code (Bytes.unsafe_get st.watch pc)
  else 0

let snowboard rng (st : snowboard_state) : Exec.policy =
  let decide tid (s : Vm.sink) =
    (* With no hint and nothing learned the watch table is empty: every
       access skips both lookups, and only [last_access] moves. *)
    if not s.Vm.sk_any_shared then false
    else begin
    let switch = ref false in
    for k = 0 to s.Vm.sk_n_acc - 1 do
      if s.Vm.sk_acc_shared.(k) then begin
        let pc = s.Vm.sk_acc_pc.(k)
        and addr = s.Vm.sk_acc_addr.(k)
        and write = s.Vm.sk_acc_write.(k) in
        let siga = key ~pc ~write ~addr in
        let w = watched st pc in
        if
          w land (if write then watch_write else watch_read) <> 0
          && matches_any ~pc ~addr ~size:s.Vm.sk_acc_size.(k) ~write
               st.current_pmcs
        then begin
          (* performed_pmc_access: remember the preceding access as a
             flag for future trials, then maybe reschedule *)
          let prev = st.last_access.(tid) in
          if prev >= 0 then begin
            Hashtbl.replace st.flags prev ();
            watch st (prev lsr 32) watch_flag
          end;
          if Obs.Event.enabled () then
            Obs.Event.emit ~tid (Obs.Event.Hint_hit { write; pc; addr });
          if Random.State.bool rng then switch := true
        end
        else if w land watch_flag <> 0 && Hashtbl.mem st.flags siga then begin
          (* pmc_access_coming: the PMC access is imminent *)
          st.windows_seen <- st.windows_seen + 1;
          if Obs.Event.enabled () then
            Obs.Event.emit ~tid (Obs.Event.Hint_window { pc; addr });
          if Random.State.bool rng then switch := true
        end;
        st.last_access.(tid) <- siga
      end
    done;
    !switch
    end
  in
  {
    Exec.first = (if Random.State.bool rng then 1 else 0);
    decide;
    (* reads only shared accesses: a sink without one draws nothing and
       never switches, so the executor may batch past it *)
    event_only = true;
  }

let ski rng (hint : Core.Pmc.t option) : Exec.policy =
  let hinted, w_ins, r_ins =
    match hint with
    | Some p -> (true, p.Core.Pmc.write.Core.Pmc.ins, p.Core.Pmc.read.Core.Pmc.ins)
    | None -> (false, 0, 0)
  in
  let decide _tid (s : Vm.sink) =
    let switch = ref false in
    if hinted then
      for k = 0 to s.Vm.sk_n_acc - 1 do
        if s.Vm.sk_acc_shared.(k) then begin
          let pc = s.Vm.sk_acc_pc.(k) in
          if pc = w_ins || pc = r_ins then
            if Random.State.bool rng then switch := true
        end
      done;
    !switch
  in
  {
    Exec.first = (if Random.State.bool rng then 1 else 0);
    decide;
    event_only = true;
  }

(* PCT (Burckhardt et al.), the algorithm SKI generalises: with two
   threads, the priority order is fully determined by who currently runs,
   so a depth-d PCT schedule is "run the current thread until one of d-1
   randomly chosen change points, then swap priorities".  Change points
   are step indices drawn from an estimated execution length. *)
let pct rng ~depth ~est_len : Exec.policy =
  let change_points =
    List.init (max 0 (depth - 1)) (fun _ -> Random.State.int rng (max 1 est_len))
  in
  let step = ref 0 in
  let decide _tid (_ : Vm.sink) =
    incr step;
    List.mem !step change_points
  in
  {
    Exec.first = (if Random.State.bool rng then 1 else 0);
    decide;
    (* step-counting: every instruction advances [step], so batching
       would skip change points — keep per-instruction cadence *)
    event_only = false;
  }

let naive rng ~period : Exec.policy =
  let decide _tid (s : Vm.sink) =
    let switch = ref false in
    for k = 0 to s.Vm.sk_n_acc - 1 do
      if s.Vm.sk_acc_shared.(k) then
        if Random.State.int rng period = 0 then switch := true
    done;
    !switch
  in
  {
    Exec.first = (if Random.State.bool rng then 1 else 0);
    decide;
    event_only = true;
  }
