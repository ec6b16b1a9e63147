(* In-memory spans at layer boundaries, recorded by the benchmark around
   its own calls into each layer (the program itself stays untouched).

   A span has a layer, a start, an end, a parent and the id of the
   trial (or fuzz execution) it belongs to.  Self time and self
   allocation - a span's total minus what its child spans cover - are
   folded into per-layer totals when the span closes, so they cost
   nothing to keep; the raw spans are kept up to [max_kept] and written
   out at exit. *)

type layer =
  | Round  (** one whole traced round; never a layer of its own *)
  | Check  (** reference runs for the equivalence check; excluded *)
  | Boot
  | Fuzz_exec
  | Gen
  | Run_seq
  | Consider
  | Profile
  | Identify
  | Init
  | Plan
  | Test
  | Trial
  | Policies
  | Restore
  | Run_conc
  | Race
  | Oracle
  | Incidental
  | Note
  | Summary

let layers =
  [ Round; Check; Boot; Fuzz_exec; Gen; Run_seq; Consider; Profile; Identify;
    Init; Plan; Test; Trial; Policies; Restore; Run_conc; Race; Oracle;
    Incidental; Note; Summary ]

let index = function
  | Round -> 0 | Check -> 1 | Boot -> 2 | Fuzz_exec -> 3 | Gen -> 4
  | Run_seq -> 5 | Consider -> 6 | Profile -> 7 | Identify -> 8 | Init -> 9
  | Plan -> 10 | Test -> 11 | Trial -> 12 | Policies -> 13 | Restore -> 14
  | Run_conc -> 15 | Race -> 16 | Oracle -> 17 | Incidental -> 18
  | Note -> 19 | Summary -> 20

let num_layers = List.length layers

(* Metric prefix of each layer: the module (or phase) the span wraps. *)
let name = function
  | Round -> "round"
  | Check -> "check"
  | Boot -> "vmm.boot"
  | Fuzz_exec -> "fuzzer.loop"
  | Gen -> "fuzzer.gen"
  | Run_seq -> "exec.run_seq"
  | Consider -> "fuzzer.consider"
  | Profile -> "profile.corpus"
  | Identify -> "identify.run"
  | Init -> "pipeline.init"
  | Plan -> "select.plan"
  | Test -> "explore.test"
  | Trial -> "explore.other"
  | Policies -> "policies"
  | Restore -> "vmm.restore"
  | Run_conc -> "exec.run_conc"
  | Race -> "race"
  | Oracle -> "oracle"
  | Incidental -> "identify.incidental"
  | Note -> "pipeline.note"
  | Summary -> "report.summary"

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let now_s () = float (now_ns ()) *. 1e-9

let max_depth = 16
let max_kept = 200_000

type t = {
  self_ns : int array;  (** per layer *)
  self_words : float array;  (** per layer, minor-heap words *)
  (* the open-span stack *)
  mutable depth : int;
  st_layer : int array;
  st_start : int array;
  st_child : int array;
  st_words : float array;
  st_child_words : float array;
  st_kept : int array;  (** index of the kept span, or -1 *)
  mutable trial : int;  (** id stamped on spans opened from now on *)
  (* kept spans, in opening order *)
  mutable n_kept : int;
  mutable dropped : int;
  k_layer : int array;
  k_start : int array;
  k_stop : int array;
  k_parent : int array;
  k_trial : int array;
  (* durations of the unit layer (trials, or fuzz executions) *)
  unit_layer : int;
  mutable unit_ns : int array;
  mutable n_unit : int;
}

let create ~unit_layer =
  let z () = Array.make max_depth 0 in
  {
    self_ns = Array.make num_layers 0;
    self_words = Array.make num_layers 0.;
    depth = 0;
    st_layer = z ();
    st_start = z ();
    st_child = z ();
    st_words = Array.make max_depth 0.;
    st_child_words = Array.make max_depth 0.;
    st_kept = z ();
    trial = -1;
    n_kept = 0;
    dropped = 0;
    k_layer = Array.make max_kept 0;
    k_start = Array.make max_kept 0;
    k_stop = Array.make max_kept 0;
    k_parent = Array.make max_kept 0;
    k_trial = Array.make max_kept 0;
    unit_layer = index unit_layer;
    unit_ns = Array.make 4096 0;
    n_unit = 0;
  }

let set_trial t id = t.trial <- id

let enter t layer =
  let d = t.depth in
  if d = max_depth then invalid_arg "Tracer.enter: spans nested too deep";
  let l = index layer in
  let kept =
    if t.n_kept < max_kept then begin
      let k = t.n_kept in
      t.k_layer.(k) <- l;
      t.k_parent.(k) <- (if d = 0 then -1 else t.st_kept.(d - 1));
      t.k_trial.(k) <- t.trial;
      t.n_kept <- k + 1;
      k
    end
    else begin
      t.dropped <- t.dropped + 1;
      -1
    end
  in
  t.st_layer.(d) <- l;
  t.st_child.(d) <- 0;
  t.st_child_words.(d) <- 0.;
  t.st_kept.(d) <- kept;
  t.depth <- d + 1;
  t.st_words.(d) <- Gc.minor_words ();
  let start = now_ns () in
  t.st_start.(d) <- start;
  if kept >= 0 then t.k_start.(kept) <- start

let leave t =
  let stop = now_ns () in
  let words = Gc.minor_words () in
  let d = t.depth - 1 in
  t.depth <- d;
  let l = t.st_layer.(d) in
  let dur = stop - t.st_start.(d) in
  let w = words -. t.st_words.(d) in
  t.self_ns.(l) <- t.self_ns.(l) + dur - t.st_child.(d);
  t.self_words.(l) <- t.self_words.(l) +. w -. t.st_child_words.(d);
  if d > 0 then begin
    t.st_child.(d - 1) <- t.st_child.(d - 1) + dur;
    t.st_child_words.(d - 1) <- t.st_child_words.(d - 1) +. w
  end;
  if t.st_kept.(d) >= 0 then t.k_stop.(t.st_kept.(d)) <- stop;
  if l = t.unit_layer then begin
    if t.n_unit = Array.length t.unit_ns then begin
      let a = Array.make (2 * t.n_unit) 0 in
      Array.blit t.unit_ns 0 a 0 t.n_unit;
      t.unit_ns <- a
    end;
    t.unit_ns.(t.n_unit) <- dur;
    t.n_unit <- t.n_unit + 1
  end

let span t layer f =
  enter t layer;
  let r = f () in
  leave t;
  r

let self_s t layer = float t.self_ns.(index layer) *. 1e-9
let self_words t layer = t.self_words.(index layer)

(* The layers proper: neither the round itself nor the reference runs. *)
let measured = List.filter (fun l -> l <> Round && l <> Check) layers

(* Time under the root spans, less the reference runs; [covered_s] is
   the part of it some layer span accounts for. *)
let traced_s t =
  List.fold_left (fun acc l -> acc +. self_s t l) 0. layers -. self_s t Check

let covered_s t = List.fold_left (fun acc l -> acc +. self_s t l) 0. measured

let unit_durations_us t =
  Array.init t.n_unit (fun i -> float t.unit_ns.(i) *. 1e-3)

(* One JSON object: the layer names, then one [layer, start_ns, end_ns,
   parent, trial] row per kept span ([parent] indexes the rows, -1 for a
   root; [trial] is -1 outside trials and fuzz executions). *)
let write t path =
  let oc = open_out path in
  output_string oc "{\"layers\":[";
  List.iteri
    (fun i l ->
      Printf.fprintf oc "%s\"%s\"" (if i = 0 then "" else ",") (name l))
    layers;
  Printf.fprintf oc "],\"dropped\":%d,\"spans\":[" t.dropped;
  for k = 0 to t.n_kept - 1 do
    Printf.fprintf oc "%s\n[%d,%d,%d,%d,%d]"
      (if k = 0 then "" else ",")
      t.k_layer.(k) t.k_start.(k) t.k_stop.(k) t.k_parent.(k) t.k_trial.(k)
  done;
  output_string oc "]}\n";
  close_out oc
