(* Coverage-guided corpus selection.

   Snowboard does not use every test the fuzzer produces: it keeps the
   subset that contributes new edge coverage, "high coverage but low
   overlap of exercised behaviors" (paper section 4.1). *)

module Log = (val Logs.src_log Gen.src : Logs.LOG)
module Edges = Vmm.Vm.Edge_set

let m_accepted = Obs.Metrics.counter "snowboard.fuzzer/corpus_accepted"
let m_rejected = Obs.Metrics.counter "snowboard.fuzzer/corpus_rejected"
let g_edges = Obs.Metrics.gauge "snowboard.fuzzer/coverage_edges"

let h_new_edges =
  Obs.Metrics.histogram ~unit_:"edges" "snowboard.fuzzer/new_edges_per_accept"

type entry = { id : int; prog : Prog.t; new_edges : int }

(* Entries live in a dynamic array indexed by corpus id (ids are dense:
   entry [i] has id [i]), which makes [nth]/[find] O(1).  The fuzzing
   loop samples the corpus every iteration and the campaign resolves
   every planned test's programs by id, so both were hot spots as
   list scans. *)
type t = {
  mutable arr : entry array;  (* first [count] slots are live *)
  mutable count : int;
  seen_progs : (int, unit) Hashtbl.t;
  seen_edges : Edges.t;
}

let dummy_entry = { id = -1; prog = []; new_edges = 0 }

let create () =
  {
    arr = Array.make 16 dummy_entry;
    count = 0;
    seen_progs = Hashtbl.create 256;
    seen_edges = Edges.create ();
  }

let push t e =
  if t.count = Array.length t.arr then begin
    let bigger = Array.make (2 * t.count) dummy_entry in
    Array.blit t.arr 0 bigger 0 t.count;
    t.arr <- bigger
  end;
  t.arr.(t.count) <- e;
  t.count <- t.count + 1

(* Offer a program together with the control-flow edges its sequential
   execution covered.  Returns the corpus id if kept.  [fresh] counts the
   listed edges absent before the call, repeats included, and is taken
   before anything changes, so an edge the set rejects leaves the corpus
   as it was. *)
let consider t prog ~edges =
  let h = Prog.hash prog in
  let absent n e = if Edges.mem t.seen_edges e then n else n + 1 in
  let fresh = if Hashtbl.mem t.seen_progs h then 0 else List.fold_left absent 0 edges in
  Hashtbl.replace t.seen_progs h ();
  if fresh = 0 then begin
    Obs.Metrics.incr m_rejected;
    None
  end
  else begin
    List.iter (fun e -> ignore (Edges.add t.seen_edges e)) edges;
    let id = t.count and total = Edges.length t.seen_edges in
    push t { id; prog; new_edges = fresh };
    Obs.Metrics.incr m_accepted;
    Obs.Metrics.observe h_new_edges fresh;
    Obs.Metrics.set g_edges total;
    Log.debug (fun m ->
        m "corpus accepts test %d (+%d edges, %d total): %s" id fresh total
          (Prog.to_string prog));
    Some id
  end

let size t = t.count

let total_edges t = Edges.length t.seen_edges

let to_list t = Array.to_list (Array.sub t.arr 0 t.count)

let nth t i =
  if i < 0 || i >= t.count then
    invalid_arg (Printf.sprintf "corpus: nth %d of %d" i t.count)
  else t.arr.(i)

(* Ids are assigned densely from 0, so the id is the array index. *)
let find t id = if id >= 0 && id < t.count then Some t.arr.(id) else None

let sample t rng =
  if t.count = 0 then invalid_arg "corpus: sampling an empty corpus"
  else t.arr.(Random.State.int rng t.count)

(* One program per line; the coverage metadata is not stored - a loaded
   corpus is re-profiled from the snapshot anyway. *)
let save t path =
  let body =
    String.concat "" (List.map (fun e -> Prog.to_line e.prog ^ "\n") (to_list t))
  in
  match Obs.Storage.write_atomic ~site:"corpus" ~path body with
  | Ok () -> Ok ()
  | Error e -> Error (Printf.sprintf "%s: %s" path (Obs.Storage.err_to_string e))

(* The first line that is not a program fails the whole load, so a
   damaged file cannot silently shrink the seed corpus. *)
let load_programs path =
  match open_in path with
  | exception Sys_error msg -> Error msg
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () ->
          let rec go n acc =
            match input_line ic with
            | exception End_of_file -> Ok (List.rev acc)
            | exception Sys_error msg -> Error (Printf.sprintf "%s: %s" path msg)
            | line when String.trim line = "" -> go (n + 1) acc
            | line -> (
                match Prog.of_line line with
                | Some p -> go (n + 1) (p :: acc)
                | None -> Error (Printf.sprintf "%s:%d: not a program" path n))
          in
          go 1 [])
