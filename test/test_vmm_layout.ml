(* Layout and trace-filter tests, including qcheck properties for the
   stack-range computation and value projection. *)

module Layout = Vmm.Layout
module Trace = Vmm.Trace

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let mk ?(thread = 0) ?(pc = 0) ?(kind = Trace.Read) ?(atomic = false)
    ?(sp = Layout.stack_top 0 - 64) ~addr ~size ~value () =
  { Trace.thread; pc; addr; size; kind; value; atomic; sp }

let test_stack_ranges () =
  let lo, hi = Layout.stack_range_of_sp (Layout.stack_top 1 - 8) in
  checki "stack base" (Layout.stack_base 1) lo;
  checki "stack top" (Layout.stack_top 1) hi;
  checkb "sp in own stack" true
    (Layout.in_stack_of_sp (Layout.stack_top 0 - 8) (Layout.stack_base 0));
  checkb "other stack excluded" false
    (Layout.in_stack_of_sp (Layout.stack_top 0 - 8) (Layout.stack_base 1))

let test_is_shared () =
  let sp = Layout.stack_top 0 - 16 in
  checkb "kernel global is shared" true
    (Trace.is_shared (mk ~sp ~addr:Layout.kdata_base ~size:8 ~value:0 ()));
  checkb "own stack filtered" false
    (Trace.is_shared (mk ~sp ~addr:sp ~size:8 ~value:0 ()));
  checkb "user memory filtered" false
    (Trace.is_shared (mk ~sp ~addr:Layout.user_base ~size:8 ~value:0 ()));
  (* the filter derives the stack from the live sp, exactly like the
     paper's ESP masking: an access to thread 1's stack from thread 0's
     sp is (conservatively) considered shared *)
  checkb "foreign stack considered shared" true
    (Trace.is_shared (mk ~sp ~addr:(Layout.stack_base 1 + 32) ~size:8 ~value:0 ()))

let test_overlap () =
  let a = mk ~addr:100 ~size:8 ~value:0 () in
  let b = mk ~addr:104 ~size:8 ~value:0 () in
  let c = mk ~addr:108 ~size:2 ~value:0 () in
  checkb "a/b overlap" true (Trace.overlaps a b);
  checkb "a/c disjoint" false (Trace.overlaps a c);
  (match Trace.overlap_range a b with
  | Some (lo, hi) ->
      checki "overlap lo" 104 lo;
      checki "overlap hi" 108 hi
  | None -> Alcotest.fail "expected overlap");
  checkb "no range for disjoint" true (Trace.overlap_range a c = None)

let test_projection () =
  (* little-endian: byte i of the value sits at addr+i *)
  let w = mk ~kind:Trace.Write ~addr:0x200 ~size:8 ~value:0x1122334455667788 () in
  checki "low half" 0x55667788 (Trace.project_value w ~lo:0x200 ~hi:0x204);
  checki "high half" 0x11223344 (Trace.project_value w ~lo:0x204 ~hi:0x208);
  checki "middle byte" 0x66 (Trace.project_value w ~lo:0x202 ~hi:0x203)

(* qcheck: projecting the full range is the identity (sub-63-bit values). *)
let prop_project_full =
  QCheck.Test.make ~name:"project full range is identity" ~count:500
    QCheck.(pair (int_bound 0xffffff) (int_range 1 8))
    (fun (value, size) ->
      let value = value land ((1 lsl (size * 8)) - 1) in
      let a = mk ~addr:0x1000 ~size ~value () in
      Trace.project_value a ~lo:0x1000 ~hi:(0x1000 + size) = value)

(* qcheck: a byte extracted via projection equals the byte of the value. *)
let prop_project_byte =
  QCheck.Test.make ~name:"byte projection matches value bytes" ~count:500
    QCheck.(pair (int_bound 0x7fffffff) (int_bound 7))
    (fun (value, i) ->
      let a = mk ~addr:0 ~size:8 ~value () in
      Trace.project_value a ~lo:i ~hi:(i + 1) = (value lsr (8 * i)) land 0xff)

(* qcheck: the allocation-free stack test agrees with the range oracle
   for every stack pointer, including negative ones and ones so close to
   [max_int] that the range's upper end wraps, and for addresses on and
   around both ends of the range; the shared-access filter, which spells
   both layout tests out, agrees with them. *)
let prop_stack_partition =
  let gen_sp =
    QCheck.Gen.(
      frequency
        [
          (3, map (fun tid -> Layout.stack_top tid - 8) (int_bound 3));
          (2, int_bound (Layout.kmem_size - 1));
          (2, map (fun x -> x lor min_int) int);
          (2, map (fun d -> max_int - d) (int_bound 0x4000));
          (1, map (fun d -> min_int + d) (int_bound 0x4000));
          (1, int);
        ])
  in
  let gen =
    QCheck.Gen.(
      gen_sp >>= fun sp ->
      let lo, _ = Layout.stack_range_of_sp sp in
      frequency
        [
          (2, int_bound (Layout.kmem_size - 1));
          (3, map (fun d -> lo + d) (int_range (-16) (Layout.stack_size + 16)));
          (1, map (fun d -> Layout.kmem_size + d) (int_range (-2) 2));
          (1, int_range (-2) 2);
          (1, int);
        ]
      >|= fun addr -> (sp, addr))
  in
  QCheck.Test.make ~name:"in_stack_of_sp consistent with range" ~count:2000
    (QCheck.make ~print:QCheck.Print.(pair int int) gen)
    (fun (sp, addr) ->
      let lo, hi = Layout.stack_range_of_sp sp in
      Layout.in_stack_of_sp sp addr = (addr >= lo && addr < hi)
      && Trace.is_shared_at ~addr ~sp
         = (Layout.is_kernel addr && not (Layout.in_stack_of_sp sp addr)))

let tests =
  [
    Alcotest.test_case "stack ranges" `Quick test_stack_ranges;
    Alcotest.test_case "shared-access filter" `Quick test_is_shared;
    Alcotest.test_case "overlap" `Quick test_overlap;
    Alcotest.test_case "value projection" `Quick test_projection;
    QCheck_alcotest.to_alcotest prop_project_full;
    QCheck_alcotest.to_alcotest prop_project_byte;
    QCheck_alcotest.to_alcotest prop_stack_partition;
  ]
