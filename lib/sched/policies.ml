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

   Policies read the executor's sink frame directly: the per-instruction
   accesses live in the sink's parallel arrays and are matched on their
   raw fields.  [snowboard] and [naive] allocate nothing per decision
   (the tests pin this with [Gc.minor_words]); only learning a new flag
   grows the flags table.  RNG draw order is identical to the legacy
   event-list policies (one potential draw per matching access, in
   program order), which keeps recorded schedules and replay traces
   byte-stable across the sink rewrite. *)

module Vm = Vmm.Vm
module Trace = Vmm.Trace

(* Mutable state Algorithm 2 persists across the trials of one concurrent
   test: the PMCs under test (line 6, grown by incidental discovery at
   line 27) and the flags set (line 20).  Flags and [last_access] hold
   access signatures packed into one int (see [signature]), so neither
   a lookup nor remembering the last access allocates. *)
type snowboard_state = {
  mutable current_pmcs : Core.Pmc.t list;
  flags : (int, unit) Hashtbl.t;
  last_access : int array;  (* per thread; -1 for none *)
  mutable windows_seen : int;
      (* pmc_access_coming windows entered; miss diagnostics read the
         per-trial delta *)
}

let snowboard_state ?(nthreads = 2) hint =
  {
    current_pmcs = (match hint with Some p -> [ p ] | None -> []);
    flags = Hashtbl.create 64;
    last_access = Array.make nthreads (-1);
    windows_seen = 0;
  }

let add_pmc st pmc =
  if not (List.exists (Core.Pmc.equal pmc) st.current_pmcs) then
    st.current_pmcs <- pmc :: st.current_pmcs

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

let snowboard rng (st : snowboard_state) : Exec.policy =
  let decide tid (s : Vm.sink) =
    if st.current_pmcs = [] && Hashtbl.length st.flags = 0 then begin
      (* No hint and nothing learned: neither the PMC nor the flag
         branch can fire, so no coin is tossed and no flag is recorded.
         The only observable effect of the full scan is that
         [last_access] ends up holding the final shared access, so
         record just that one and skip the flag lookups. *)
      let last = ref (-1) in
      for k = 0 to s.Vm.sk_n_acc - 1 do
        if
          Trace.is_shared_at ~addr:s.Vm.sk_acc_addr.(k)
            ~sp:s.Vm.sk_acc_sp.(k)
        then last := k
      done;
      (if !last >= 0 then
         let k = !last in
         st.last_access.(tid) <-
           key ~pc:s.Vm.sk_acc_pc.(k) ~write:s.Vm.sk_acc_write.(k)
             ~addr:s.Vm.sk_acc_addr.(k));
      false
    end
    else begin
    let switch = ref false in
    for k = 0 to s.Vm.sk_n_acc - 1 do
      let addr = s.Vm.sk_acc_addr.(k) and sp = s.Vm.sk_acc_sp.(k) in
      if Trace.is_shared_at ~addr ~sp then begin
        let pc = s.Vm.sk_acc_pc.(k)
        and size = s.Vm.sk_acc_size.(k)
        and write = s.Vm.sk_acc_write.(k) in
        let siga = key ~pc ~write ~addr in
        if matches_any ~pc ~addr ~size ~write st.current_pmcs then begin
          (* performed_pmc_access: remember the preceding access as a
             flag for future trials, then maybe reschedule *)
          let prev = st.last_access.(tid) in
          if prev >= 0 then Hashtbl.replace st.flags prev ();
          if Obs.Event.enabled () then
            Obs.Event.emit ~tid (Obs.Event.Hint_hit { write; pc; addr });
          if Random.State.bool rng then switch := true
        end
        else if Hashtbl.mem st.flags siga then begin
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
    (* access-driven: an event-free sink draws nothing and never
       switches, so the executor may batch plain instructions *)
    event_only = true;
    on_plain = ignore;
  }

let ski rng (hint : Core.Pmc.t option) : Exec.policy =
  let ins =
    match hint with
    | Some p -> [ p.Core.Pmc.write.Core.Pmc.ins; p.Core.Pmc.read.Core.Pmc.ins ]
    | None -> []
  in
  let decide _tid (s : Vm.sink) =
    let switch = ref false in
    for k = 0 to s.Vm.sk_n_acc - 1 do
      if List.mem s.Vm.sk_acc_pc.(k) ins then
        if Random.State.bool rng then switch := true
    done;
    !switch
  in
  {
    Exec.first = (if Random.State.bool rng then 1 else 0);
    decide;
    event_only = true;
    on_plain = ignore;
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
    on_plain = ignore;
  }

let naive rng ~period : Exec.policy =
  let decide _tid (s : Vm.sink) =
    let switch = ref false in
    for k = 0 to s.Vm.sk_n_acc - 1 do
      if Trace.is_shared_at ~addr:s.Vm.sk_acc_addr.(k) ~sp:s.Vm.sk_acc_sp.(k)
      then if Random.State.int rng period = 0 then switch := true
    done;
    !switch
  in
  {
    Exec.first = (if Random.State.bool rng then 1 else 0);
    decide;
    event_only = true;
    on_plain = ignore;
  }
