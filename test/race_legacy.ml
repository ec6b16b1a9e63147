(* Happens-before data-race detection over the serialized event stream.

   Plays the role of the paper's stock race detector (DataCollider / the
   SKI runtime detector).  The executor serializes the kernel threads, so
   true simultaneity never occurs; instead we maintain FastTrack-style
   vector clocks over [nthreads] threads and report conflicting accesses
   that are not ordered by synchronization:

   - marked (atomic) store -> marked load of the same cell creates a
     release/acquire edge.  This covers spinlocks (CAS acquire loops and
     marked release stores), RCU publish (rcu_assign_pointer followed by
     rcu_dereference) and READ_ONCE/WRITE_ONCE pairs, so correctly
     synchronised code produces no reports;
   - conflicting accesses (overlapping ranges, at least one write) that
     are unordered AND not both marked are data races, mirroring the
     kernel's KCSAN convention that marked-vs-marked conflicts are
     intentional. *)

module Trace = Vmm.Trace

type report = {
  addr : int;
  write_pc : int;
  other_pc : int;
  other_kind : Trace.kind;  (* the second access's kind *)
  write_ctx : string;  (* attributed kernel function of the write *)
  other_ctx : string;
}

(* Vector clocks over [nthreads] threads (the paper tests two; the
   three-thread extension of section 6 needs more). *)
type clock = int array

let clock_get (c : clock) tid = c.(tid)

let clock_set (c : clock) tid v = c.(tid) <- v

let clock_join (dst : clock) (src : clock) =
  for i = 0 to Array.length dst - 1 do
    if src.(i) > dst.(i) then dst.(i) <- src.(i)
  done

type byte_state = {
  mutable w_tid : int;
  mutable w_clk : int;
  mutable w_atomic : bool;
  mutable w_pc : int;
  mutable w_ctx : string;
  (* last read per thread *)
  mutable r_clk : int array;
  mutable r_atomic : bool array;
  mutable r_pc : int array;
  mutable r_ctx : string array;
}

type t = {
  nthreads : int;
  vcs : clock array;  (* per-thread vector clock *)
  rel : (int, clock) Hashtbl.t;  (* per-byte release clock (marked stores) *)
  bytes : (int, byte_state) Hashtbl.t;
  mutable reports : report list;
  seen : (int * int, unit) Hashtbl.t;  (* dedup by (write pc, other pc) *)
}

let create ?(nthreads = 2) () =
  {
    nthreads;
    vcs =
      Array.init nthreads (fun i ->
          Array.init nthreads (fun j -> if i = j then 1 else 0));
    rel = Hashtbl.create 256;
    bytes = Hashtbl.create 1024;
    reports = [];
    seen = Hashtbl.create 64;
  }

let fresh_byte n =
  {
    w_tid = -1;
    w_clk = 0;
    w_atomic = false;
    w_pc = 0;
    w_ctx = "";
    r_clk = Array.make n 0;
    r_atomic = Array.make n false;
    r_pc = Array.make n 0;
    r_ctx = Array.make n "";
  }

let byte_state t addr =
  match Hashtbl.find_opt t.bytes addr with
  | Some b -> b
  | None ->
      let b = fresh_byte t.nthreads in
      Hashtbl.replace t.bytes addr b;
      b

let add_report t ~addr ~write_pc ~other_pc ~other_kind ~write_ctx ~other_ctx =
  let key = (write_pc, other_pc) in
  if not (Hashtbl.mem t.seen key) then begin
    Hashtbl.replace t.seen key ();
    t.reports <-
      { addr; write_pc; other_pc; other_kind; write_ctx; other_ctx } :: t.reports
  end

(* Feed one shared kernel access (with its attributed function). *)
let on_access t (a : Trace.access) ~ctx =
  if Trace.is_shared a then begin
    let tid = a.Trace.thread in
    let vc = t.vcs.(tid) in
    (* acquire edge: marked read joins the cell's release clock *)
    if a.Trace.atomic && a.Trace.kind = Trace.Read then
      for i = 0 to a.Trace.size - 1 do
        match Hashtbl.find_opt t.rel (a.Trace.addr + i) with
        | Some rc -> clock_join vc rc
        | None -> ()
      done;
    let my_clk = clock_get vc tid in
    for i = 0 to a.Trace.size - 1 do
      let addr = a.Trace.addr + i in
      let b = byte_state t addr in
      (match a.Trace.kind with
      | Trace.Write ->
          (* conflicts with every other thread's last write and reads *)
          if
            b.w_tid >= 0 && b.w_tid <> tid
            && b.w_clk > clock_get vc b.w_tid
            && not (a.Trace.atomic && b.w_atomic)
          then
            add_report t ~addr ~write_pc:a.Trace.pc ~other_pc:b.w_pc
              ~other_kind:Trace.Write ~write_ctx:ctx ~other_ctx:b.w_ctx;
          for other = 0 to t.nthreads - 1 do
            if
              other <> tid
              && b.r_clk.(other) > clock_get vc other
              && not (a.Trace.atomic && b.r_atomic.(other))
            then
              add_report t ~addr ~write_pc:a.Trace.pc ~other_pc:b.r_pc.(other)
                ~other_kind:Trace.Read ~write_ctx:ctx ~other_ctx:b.r_ctx.(other)
          done;
          b.w_tid <- tid;
          b.w_clk <- my_clk;
          b.w_atomic <- a.Trace.atomic;
          b.w_pc <- a.Trace.pc;
          b.w_ctx <- ctx
      | Trace.Read ->
          if
            b.w_tid >= 0 && b.w_tid <> tid
            && b.w_clk > clock_get vc b.w_tid
            && not (a.Trace.atomic && b.w_atomic)
          then
            add_report t ~addr ~write_pc:b.w_pc ~other_pc:a.Trace.pc
              ~other_kind:Trace.Read ~write_ctx:b.w_ctx ~other_ctx:ctx;
          b.r_clk.(tid) <- my_clk;
          b.r_atomic.(tid) <- a.Trace.atomic;
          b.r_pc.(tid) <- a.Trace.pc;
          b.r_ctx.(tid) <- ctx)
    done;
    (* release edge: marked write deposits the thread's clock on the cell *)
    if a.Trace.atomic && a.Trace.kind = Trace.Write then begin
      for i = 0 to a.Trace.size - 1 do
        let addr = a.Trace.addr + i in
        let rc =
          match Hashtbl.find_opt t.rel addr with
          | Some rc -> rc
          | None ->
              let rc = Array.make t.nthreads 0 in
              Hashtbl.replace t.rel addr rc;
              rc
        in
        clock_join rc vc
      done;
      clock_set vc tid (clock_get vc tid + 1)
    end
  end

let reports t = List.rev t.reports

let num_reports t = List.length t.reports
