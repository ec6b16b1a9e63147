(* Process-wide metrics registry: named counters, gauges and log-scale
   histograms, with no dependency beyond the stdlib (+ unix for the span
   clock in Span).  Registration is idempotent per (name, kind) so any
   module can name the same metric.

   Storage is sharded per domain (see Shard): a counter/histogram handle
   is a small integer id, and [add]/[observe] route through the calling
   domain's shard, so campaign workers update metrics without contention
   or races.  Reads ([counter_value], [dump], quantiles) merge across
   shards on demand; they are exact once worker domains are joined and
   monotone-but-stale while they run.  Gauges stay a single global
   [Atomic] cell: they are last-writer-wins by nature and only the
   orchestration layer sets them.

   Hot-path discipline: the subsystems only call into this module at run
   boundaries (never per guest instruction) - see DESIGN.md
   "Observability". *)

type value =
  | Vcounter of int  (* shard counter id *)
  | Vgauge of int Atomic.t
  | Vhist of int  (* shard histogram id *)

type metric = { m_name : string; m_unit : string option; m_value : value }

type counter = int
type gauge = int Atomic.t
type histogram = int

let registry : (string, metric) Hashtbl.t = Hashtbl.create 128
let lock = Mutex.create ()
let next_counter = ref 0
let next_hist = ref 0

let with_lock f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

let kind_name = function
  | Vcounter _ -> "counter"
  | Vgauge _ -> "gauge"
  | Vhist _ -> "histogram"

(* Registration is idempotent per (name, kind): the existing handle is
   returned, and a kind clash raises Invalid_argument. *)
let counter ?unit_ name : counter =
  with_lock (fun () ->
      match Hashtbl.find_opt registry name with
      | Some { m_value = Vcounter id; _ } -> id
      | Some m ->
          invalid_arg
            (Printf.sprintf "Obs.Metrics: %s already registered as a %s" name
               (kind_name m.m_value))
      | None ->
          let id = !next_counter in
          Stdlib.incr next_counter;
          Hashtbl.replace registry name
            { m_name = name; m_unit = unit_; m_value = Vcounter id };
          id)

let gauge ?unit_ name : gauge =
  with_lock (fun () ->
      match Hashtbl.find_opt registry name with
      | Some { m_value = Vgauge g; _ } -> g
      | Some m ->
          invalid_arg
            (Printf.sprintf "Obs.Metrics: %s already registered as a %s" name
               (kind_name m.m_value))
      | None ->
          let g = Atomic.make 0 in
          Hashtbl.replace registry name
            { m_name = name; m_unit = unit_; m_value = Vgauge g };
          g)

let histogram ?unit_ name : histogram =
  with_lock (fun () ->
      match Hashtbl.find_opt registry name with
      | Some { m_value = Vhist id; _ } -> id
      | Some m ->
          invalid_arg
            (Printf.sprintf "Obs.Metrics: %s already registered as a %s" name
               (kind_name m.m_value))
      | None ->
          let id = !next_hist in
          Stdlib.incr next_hist;
          Hashtbl.replace registry name
            { m_name = name; m_unit = unit_; m_value = Vhist id };
          id)

(* A shard cell with no registry entry: gets all of Shard's per-domain
   storage and exact merge-on-join, but never appears in [dump] or the
   exporters.  Used by subsystems (the guest profiler) that own their own
   export format. *)
let unlisted_counter () : int =
  with_lock (fun () ->
      let id = !next_counter in
      Stdlib.incr next_counter;
      id)

let add c n = Shard.add (Shard.local ()) c n

let incr c = add c 1
let counter_value (c : counter) = Shard.counter_total c

let set g v = Atomic.set g v
let gauge_value (g : gauge) = Atomic.get g

let observe (h : histogram) v = Shard.observe (Shard.local ()) h v

let merged (h : histogram) = Shard.merged_hist h

let hist_count h = (merged h).Shard.h_count
let hist_sum h = (merged h).Shard.h_sum

let hist_min h =
  let m = merged h in
  if m.Shard.h_count = 0 then 0 else m.Shard.h_min

let hist_max h =
  let m = merged h in
  if m.Shard.h_count = 0 then 0 else m.Shard.h_max

let hist_mean h =
  let m = merged h in
  if m.Shard.h_count = 0 then 0.
  else float_of_int m.Shard.h_sum /. float_of_int m.Shard.h_count

(* Approximate quantile: the upper bound of the first log-scale bucket
   whose cumulative population reaches q * count, clamped to the observed
   maximum.  The answer is an upper bound within one power of two of the
   exact quantile. *)
let quantile_merged (m : Shard.hist) q =
  if m.Shard.h_count = 0 then 0
  else begin
    let q = if q < 0. then 0. else if q > 1. then 1. else q in
    let target =
      max 1 (int_of_float (ceil (q *. float_of_int m.Shard.h_count)))
    in
    let cum = ref 0 in
    let ans = ref m.Shard.h_max in
    (try
       Array.iteri
         (fun i n ->
           cum := !cum + n;
           if !cum >= target then begin
             ans := min (1 lsl i) m.Shard.h_max;
             raise Exit
           end)
         m.Shard.buckets
     with Exit -> ());
    !ans
  end

let quantile h q = quantile_merged (merged h) q

(* ------------------------------------------------------------------ *)
(* Snapshots for export.                                               *)

type hist_snapshot = {
  count : int;
  sum : int;
  min_ : int;
  max_ : int;
  p50 : int;
  p90 : int;
  p99 : int;
}

type hist_buckets = { hb_buckets : int array; hb_count : int; hb_sum : int }

type sample_value =
  | Sample_counter of int
  | Sample_gauge of int
  | Sample_hist of hist_snapshot

type sample = { name : string; unit_ : string option; value : sample_value }

let snapshot_merged (m : Shard.hist) =
  {
    count = m.Shard.h_count;
    sum = m.Shard.h_sum;
    min_ = (if m.Shard.h_count = 0 then 0 else m.Shard.h_min);
    max_ = (if m.Shard.h_count = 0 then 0 else m.Shard.h_max);
    p50 = quantile_merged m 0.5;
    p90 = quantile_merged m 0.9;
    p99 = quantile_merged m 0.99;
  }

let dump () =
  let metrics =
    with_lock (fun () -> Hashtbl.fold (fun _ m acc -> m :: acc) registry [])
  in
  List.map
    (fun m ->
      let value =
        match m.m_value with
        | Vcounter id -> Sample_counter (Shard.counter_total id)
        | Vgauge g -> Sample_gauge (Atomic.get g)
        | Vhist id -> Sample_hist (snapshot_merged (Shard.merged_hist id))
      in
      { name = m.m_name; unit_ = m.m_unit; value })
    metrics
  |> List.sort (fun a b -> compare a.name b.name)

(* Raw merged buckets for one histogram by name (OpenMetrics export). *)
let hist_buckets_by_name name =
  let found =
    with_lock (fun () ->
        match Hashtbl.find_opt registry name with
        | Some { m_value = Vhist id; _ } -> Some id
        | _ -> None)
  in
  match found with
  | None -> None
  | Some id ->
      let m = Shard.merged_hist id in
      Some
        {
          hb_buckets = Array.copy m.Shard.buckets;
          hb_count = m.Shard.h_count;
          hb_sum = m.Shard.h_sum;
        }

(* Current value of a counter or gauge by name (telemetry clock/HUD). *)
let value_by_name name =
  let found =
    with_lock (fun () ->
        match Hashtbl.find_opt registry name with
        | Some { m_value = (Vcounter _ | Vgauge _) as v; _ } -> Some v
        | _ -> None)
  in
  match found with
  | Some (Vcounter id) -> Some (Shard.counter_total id)
  | Some (Vgauge g) -> Some (Atomic.get g)
  | _ -> None

(* Current counter values only, for span deltas. *)
let counter_values () =
  let ids =
    with_lock (fun () ->
        Hashtbl.fold
          (fun _ m acc ->
            match m.m_value with
            | Vcounter id -> (m.m_name, id) :: acc
            | _ -> acc)
          registry [])
  in
  List.map (fun (name, id) -> (name, Shard.counter_total id)) ids

(* Zero every metric; handles stay valid. *)
let reset () =
  with_lock (fun () ->
      Hashtbl.iter
        (fun _ m ->
          match m.m_value with Vgauge g -> Atomic.set g 0 | _ -> ())
        registry);
  Shard.reset ()
