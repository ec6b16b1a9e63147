(* The VM's coverage edge set against a reference kept here: a Hashtbl
   of edges beside the first-seen list, emptied on every reset.  Random
   streams of recordings and resets must leave both with the same size
   and the same edges in the same order; the streams repeat edges, use
   the pcs at and just past both ends of the 24-bit key packing, record
   enough distinct edges in one generation to grow the table, and reset
   often enough to wrap the generation stamp. *)

module Vm = Vmm.Vm
module Asm = Vmm.Asm
module Isa = Vmm.Isa

let checki = Alcotest.(check int)

let tiny_vm () =
  let a = Asm.create () in
  Asm.func a "f" (fun () -> Asm.emit a Isa.Ret);
  Vm.create (Asm.link a)

module Ref = struct
  type t = {
    seen : (int * int, unit) Hashtbl.t;
    mutable order : (int * int) list;  (* newest first *)
  }

  let create () = { seen = Hashtbl.create 64; order = [] }
  let in_range pc = pc >= 0 && pc <= Vm.edge_pc_max

  let record r a b =
    if in_range a && in_range b && not (Hashtbl.mem r.seen (a, b)) then begin
      Hashtbl.replace r.seen (a, b) ();
      r.order <- (a, b) :: r.order
    end

  let reset r =
    Hashtbl.reset r.seen;
    r.order <- []

  let size r = Hashtbl.length r.seen
  let edges r = List.rev r.order
end

type op =
  | Record of int * int
  | Burst of int * int
      (** [Burst (k, n)]: [n] distinct edges [(k + i, 7 * i)], [i < n] *)
  | Resets of int  (** this many resets in a row *)

let burst_edge k i = (k + i, 7 * i)

let pp_op = function
  | Record (a, b) -> Printf.sprintf "record %d %d" a b
  | Burst (k, n) -> Printf.sprintf "burst %d %d" k n
  | Resets n -> Printf.sprintf "resets %d" n

let gen_pc =
  QCheck.Gen.(
    frequency
      [
        (6, int_bound 7);
        (2, oneofl [ 0; -1; Vm.edge_pc_max; Vm.edge_pc_max + 1 ]);
        (2, int_bound Vm.edge_pc_max);
      ])

let gen_op =
  QCheck.Gen.(
    frequency
      [
        (20, map2 (fun a b -> Record (a, b)) gen_pc gen_pc);
        (4, return (Resets 1));
        (1, map2 (fun k n -> Burst (k, n)) (int_bound 1000) (int_range 500 2000));
        ( 1,
          map
            (fun n -> Resets n)
            (oneof
               [
                 int_range 2 0x5000;
                 oneofl [ 0x3ffe; 0x3fff; 0x4000; 0x7ffe; 0x7fff; 0x8000 ];
               ]) );
      ])

let arb_stream =
  QCheck.make
    ~print:(fun ops -> String.concat "; " (List.map pp_op ops))
    QCheck.Gen.(list_size (int_bound 60) gen_op)

let same vm r =
  Vm.coverage_size vm = Ref.size r && Vm.coverage_edges vm = Ref.edges r

let prop_edge_set =
  QCheck.Test.make ~name:"edge set equals the Hashtbl-and-list reference"
    ~count:200 arb_stream (fun ops ->
      let vm = tiny_vm () and r = Ref.create () in
      List.for_all
        (fun op ->
          (match op with
          | Record (a, b) ->
              Vm.record_edge vm a b;
              Ref.record r a b
          | Burst (k, n) ->
              for i = 0 to n - 1 do
                let a, b = burst_edge k i in
                Vm.record_edge vm a b;
                Ref.record r a b
              done
          | Resets n ->
              for _ = 1 to n do
                Vm.reset_coverage vm
              done;
              Ref.reset r);
          same vm r)
        ops)

(* The largest key at every generation: its stamp sets every bit a
   stamp can have, so it is the one an all-ones empty marker would
   mistake for a member.  First on one VM through several wraps, then on
   fresh VMs after k resets, where the slot is either untouched since
   creation or the last wrap, or was filled k resets earlier. *)
let test_max_edge_every_generation () =
  let m = Vm.edge_pc_max in
  let vm = tiny_vm () in
  for g = 1 to 0x10001 do
    Vm.reset_coverage vm;
    Vm.record_edge vm m m;
    Vm.record_edge vm m m;
    if Vm.coverage_size vm <> 1 || Vm.coverage_edges vm <> [ (m, m) ] then
      Alcotest.failf "reset %d: the edge (max, max) was lost" g
  done;
  List.iter
    (fun (k, filled) ->
      let vm = tiny_vm () in
      if filled then Vm.record_edge vm m m;
      for _ = 1 to k do
        Vm.reset_coverage vm
      done;
      Vm.record_edge vm m m;
      checki
        (Printf.sprintf "recorded after %d resets (filled before: %b)" k filled)
        1 (Vm.coverage_size vm))
    (List.concat_map
       (fun k -> [ (k, false); (k, true) ])
       [ 0; 1; 0x3ffe; 0x3fff; 0x4000; 0x7ffe; 0x7fff; 0x8000 ])

let tests =
  [
    QCheck_alcotest.to_alcotest prop_edge_set;
    Alcotest.test_case "max edge at every generation" `Quick
      test_max_edge_every_generation;
  ]
