(* Guest profiler: exact per-function instruction and shared-access
   attribution, split by campaign phase (profile / explore).

   Function names are interned once into small integer ids (fids); the
   executor caches one fid per pc alongside its attribution arrays, so
   attributing a step is an array read plus two int adds into a local
   collector.  Collectors are flushed into per-domain {!Shard} cells
   (allocated via [Metrics.unlisted_counter], so they never pollute the
   metrics exporters), making totals exact after [Domain.join] for any
   [--jobs].

   Resume discipline: profile-phase counts are flushed live (the prepare
   phase always re-runs in full), while explore-phase counts travel as
   per-test rows through the checkpoint journal and are added exactly
   once per test at the harness's note site — see Harness.Pipeline.  That
   single-flush rule is what makes the flamegraph byte-identical across
   [--jobs 1/2] and [--resume]. *)

type phase = Profile | Explore

(* Off by default: campaigns opt in via --flame-out/--provenance-out. *)
let enabled_flag = Atomic.make false
let enabled () = Atomic.get enabled_flag
let set_enabled b = Atomic.set enabled_flag b

(* 0 = off, 1 = profile, 2 = explore; a global so worker domains spawned
   inside a phase inherit it. *)
let cur_phase = Atomic.make 0

let set_phase = function
  | None -> Atomic.set cur_phase 0
  | Some Profile -> Atomic.set cur_phase 1
  | Some Explore -> Atomic.set cur_phase 2

let phase () =
  match Atomic.get cur_phase with
  | 1 -> Some Profile
  | 2 -> Some Explore
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Interning.  fids are handed out in first-intern order and never
   recycled; [reset] re-allocates the backing cells but keeps the fids,
   so cached per-image fid arrays stay valid across campaigns in one
   process. *)

type cells = { pi : int; ps : int; ei : int; es : int }
(* counter ids: (profile, explore) x (instr, shared) *)

let lock = Mutex.create ()
let ids : (string, int) Hashtbl.t = Hashtbl.create 64
let names : string array ref = ref [||]
let cells : cells array ref = ref [||]
let n_fids = ref 0

let with_lock f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

let fresh_cells () =
  {
    pi = Metrics.unlisted_counter ();
    ps = Metrics.unlisted_counter ();
    ei = Metrics.unlisted_counter ();
    es = Metrics.unlisted_counter ();
  }

let grow_to arrs n =
  let names', cells' = arrs in
  if n > Array.length !names' then begin
    let cap = max 64 (2 * n) in
    let nn = Array.make cap "" and nc = Array.make cap (fresh_cells ()) in
    Array.blit !names' 0 nn 0 !n_fids;
    Array.blit !cells' 0 nc 0 !n_fids;
    names' := nn;
    cells' := nc
  end

let intern name =
  with_lock (fun () ->
      match Hashtbl.find_opt ids name with
      | Some fid -> fid
      | None ->
          let fid = !n_fids in
          grow_to (names, cells) (fid + 1);
          !names.(fid) <- name;
          !cells.(fid) <- fresh_cells ();
          Hashtbl.replace ids name fid;
          Stdlib.incr n_fids;
          fid)

let name_of_fid fid =
  with_lock (fun () ->
      if fid >= 0 && fid < !n_fids then !names.(fid)
      else Printf.sprintf "<fid:%d>" fid)

let num_fids () = with_lock (fun () -> !n_fids)

(* Zero all accumulated counts by abandoning the old cells; interned fids
   survive so executor caches built before the reset remain correct. *)
let reset () =
  with_lock (fun () ->
      for fid = 0 to !n_fids - 1 do
        !cells.(fid) <- fresh_cells ()
      done);
  set_phase None

(* ------------------------------------------------------------------ *)
(* Collectors: run-local accumulation, flushed at run boundaries so the
   per-instruction hot path is two plain array adds. *)

type collector = {
  mutable c_active : bool;
  mutable c_instr : int array;  (* indexed by fid *)
  mutable c_shared : int array;
}

let null_collector = { c_active = false; c_instr = [||]; c_shared = [||] }

let collector () =
  if not (enabled ()) then null_collector
  else
    let n = num_fids () in
    { c_active = true; c_instr = Array.make n 0; c_shared = Array.make n 0 }

let active c = c.c_active

let grow_collector c fid =
  let cap = max 64 (2 * (fid + 1)) in
  let gi = Array.make cap 0 and gs = Array.make cap 0 in
  Array.blit c.c_instr 0 gi 0 (Array.length c.c_instr);
  Array.blit c.c_shared 0 gs 0 (Array.length c.c_shared);
  c.c_instr <- gi;
  c.c_shared <- gs

let collect c ~fid ~steps ~shared =
  if c.c_active && fid >= 0 then begin
    if fid >= Array.length c.c_instr then grow_collector c fid;
    c.c_instr.(fid) <- c.c_instr.(fid) + steps;
    c.c_shared.(fid) <- c.c_shared.(fid) + shared
  end

(* Nonzero rows as (name, instr, shared), sorted by name; clears the
   collector.  Used by the explore path, whose rows ride in test results
   (and the checkpoint journal) before being flushed exactly once. *)
let drain c =
  if not c.c_active then []
  else begin
    let rows = ref [] in
    for fid = Array.length c.c_instr - 1 downto 0 do
      if c.c_instr.(fid) <> 0 || c.c_shared.(fid) <> 0 then begin
        rows := (name_of_fid fid, c.c_instr.(fid), c.c_shared.(fid)) :: !rows;
        c.c_instr.(fid) <- 0;
        c.c_shared.(fid) <- 0
      end
    done;
    List.sort (fun (a, _, _) (b, _, _) -> String.compare a b) !rows
  end

(* Accumulate rows into the sharded cells for a phase.  Interns unseen
   names, so rows replayed from a checkpoint written by another process
   image still land. *)
let add_rows p rows =
  if enabled () then begin
    let sh = Shard.local () in
    List.iter
      (fun (name, instr, shared) ->
        let fid = intern name in
        let cs = with_lock (fun () -> !cells.(fid)) in
        let ci, cshr =
          match p with
          | Profile -> (cs.pi, cs.ps)
          | Explore -> (cs.ei, cs.es)
        in
        if instr <> 0 then Shard.add sh ci instr;
        if shared <> 0 then Shard.add sh cshr shared)
      rows
  end

(* Flush a collector's counts straight into the cells for a phase (the
   profile path: prepare always re-runs, so live flushing is
   resume-safe). *)
let flush c p = add_rows p (drain c)

(* ------------------------------------------------------------------ *)
(* Read side.  All output is merged-on-read and deterministically
   ordered, so artifacts are byte-stable for any --jobs once workers are
   joined. *)

type row = {
  r_name : string;
  r_profile_instr : int;
  r_profile_shared : int;
  r_explore_instr : int;
  r_explore_shared : int;
}

let rows () =
  let snap =
    with_lock (fun () ->
        Array.init !n_fids (fun fid -> (!names.(fid), !cells.(fid))))
  in
  Array.to_list snap
  |> List.filter_map (fun (name, cs) ->
         let r =
           {
             r_name = name;
             r_profile_instr = Shard.counter_total cs.pi;
             r_profile_shared = Shard.counter_total cs.ps;
             r_explore_instr = Shard.counter_total cs.ei;
             r_explore_shared = Shard.counter_total cs.es;
           }
         in
         if
           r.r_profile_instr = 0 && r.r_profile_shared = 0
           && r.r_explore_instr = 0 && r.r_explore_shared = 0
         then None
         else Some r)
  |> List.sort (fun a b -> String.compare a.r_name b.r_name)

(* Collapsed-stack flamegraph lines: "phase;function count", sorted
   lexicographically (the flamegraph.pl convention).  Only instruction
   counts form frames; shared-access counts live in the hot table and
   the provenance artifact. *)
let flame_lines () =
  List.concat_map
    (fun r ->
      (if r.r_profile_instr > 0 then
         [ Printf.sprintf "profile;%s %d" r.r_name r.r_profile_instr ]
       else [])
      @
      if r.r_explore_instr > 0 then
        [ Printf.sprintf "explore;%s %d" r.r_name r.r_explore_instr ]
      else [])
    (rows ())
  |> List.sort String.compare

let write_flame path =
  let body =
    String.concat "" (List.map (fun l -> l ^ "\n") (flame_lines ()))
  in
  match Storage.write_atomic ~site:"flame" ~path body with
  | Ok () -> ()
  | Error e -> raise (Sys_error (Storage.err_to_string e))
