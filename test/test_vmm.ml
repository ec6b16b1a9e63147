(* Unit tests for the hypervisor substrate: ISA semantics, the assembler
   and linker, VM stepping, memory translation, faults, snapshots and the
   shared-access (stack) filter. *)

module Isa = Vmm.Isa
module Asm = Vmm.Asm
module Vm = Vmm.Vm
module Layout = Vmm.Layout
module Trace = Vmm.Trace
open Isa

let check = Alcotest.check
let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)

(* Assemble a tiny function, run it on vCPU 0 and return the VM. *)
let run_fn ?(args = []) body =
  let a = Asm.create () in
  Asm.func a "f" (fun () -> body a);
  let image = Asm.link a in
  let vm = Vm.create image in
  Vm.start_call vm 0 (Asm.entry image "f") args;
  let budget = ref 10_000 in
  let events = ref [] in
  let rec go () =
    if !budget <= 0 then failwith "test: budget exceeded";
    decr budget;
    let evs = Vm.step vm 0 in
    events := List.rev_append evs !events;
    if
      List.exists
        (function Vm.Eret_to_user | Vm.Ehalt | Vm.Epanic _ -> true | _ -> false)
        evs
    then ()
    else go ()
  in
  go ();
  (vm, List.rev !events)

let emit a l = List.iter (Asm.emit a) l

let test_arith () =
  let vm, _ =
    run_fn ~args:[ 6; 7 ] (fun a ->
        emit a
          [
            Bin (Mul, r2, r0, Reg r1);
            Bin (Add, r2, r2, Imm 8);
            Bin (Sub, r2, r2, Imm 20);
            Bin (Shl, r3, r2, Imm 2);
            Bin (Shr, r4, r3, Imm 1);
            Bin (And, r5, r4, Imm 0xf);
            Bin (Or, r5, r5, Imm 0x10);
            Bin (Xor, r5, r5, Imm 0x1);
            Bin (Div, r6, r4, Imm 4);
            Ret;
          ])
  in
  checki "mul+add-sub" 30 (Vm.reg vm 0 r2);
  checki "shl" 120 (Vm.reg vm 0 r3);
  checki "shr" 60 (Vm.reg vm 0 r4);
  checki "and/or/xor" 0x1d (Vm.reg vm 0 r5);
  checki "div" 15 (Vm.reg vm 0 r6)

let test_div_by_zero () =
  let vm, _ =
    run_fn (fun a -> emit a [ Li (r1, 5); Bin (Div, r2, r1, Imm 0); Ret ])
  in
  checki "div by zero yields 0" 0 (Vm.reg vm 0 r2)

let test_load_store_sizes () =
  let addr = Layout.kdata_base in
  let vm, _ =
    run_fn (fun a ->
        emit a
          [
            Li (r1, addr);
            Li (r2, 0x1122334455667788);
            Store { base = r1; off = 0; src = Reg r2; size = 8; atomic = false };
            Load { dst = r3; base = r1; off = 0; size = 1; atomic = false };
            Load { dst = r4; base = r1; off = 0; size = 2; atomic = false };
            Load { dst = r5; base = r1; off = 0; size = 4; atomic = false };
            Load { dst = r6; base = r1; off = 3; size = 2; atomic = false };
            Ret;
          ])
  in
  checki "byte" 0x88 (Vm.reg vm 0 r3);
  checki "half" 0x7788 (Vm.reg vm 0 r4);
  checki "word" 0x55667788 (Vm.reg vm 0 r5);
  checki "unaligned half" 0x4455 (Vm.reg vm 0 r6)

let test_store_truncates () =
  let addr = Layout.kdata_base in
  let vm, _ =
    run_fn (fun a ->
        emit a
          [
            Li (r1, addr);
            Li (r2, 0x1ff);
            Store { base = r1; off = 0; src = Reg r2; size = 1; atomic = false };
            Load { dst = r3; base = r1; off = 0; size = 8; atomic = false };
            Ret;
          ])
  in
  checki "1-byte store truncated" 0xff (Vm.reg vm 0 r3)

let test_cas () =
  let addr = Layout.kdata_base in
  let vm, _ =
    run_fn (fun a ->
        emit a
          [
            Li (r1, addr);
            Cas { dst = r2; base = r1; off = 0; expected = Imm 0; desired = Imm 42 };
            Cas { dst = r3; base = r1; off = 0; expected = Imm 0; desired = Imm 7 };
            Load { dst = r4; base = r1; off = 0; size = 8; atomic = false };
            Faa { dst = r5; base = r1; off = 0; delta = Imm 3 };
            Load { dst = r6; base = r1; off = 0; size = 8; atomic = false };
            Ret;
          ])
  in
  checki "cas success flag" 1 (Vm.reg vm 0 r2);
  checki "cas failure flag" 0 (Vm.reg vm 0 r3);
  checki "cas stored" 42 (Vm.reg vm 0 r4);
  checki "faa old" 42 (Vm.reg vm 0 r5);
  checki "faa new" 45 (Vm.reg vm 0 r6)

let test_branches () =
  let a = Asm.create () in
  Asm.func a "f" (fun () ->
      Asm.emit a (Br (Lt, r0, Imm 10, "less"));
      Asm.emit a (Li (r1, 0));
      Asm.emit a Ret;
      Asm.label a "less";
      Asm.emit a (Li (r1, 1));
      Asm.emit a Ret);
  let image = Asm.link a in
  let run arg =
    let vm = Vm.create image in
    Vm.start_call vm 0 (Asm.entry image "f") [ arg ];
    let rec go n =
      if n = 0 then failwith "budget";
      if List.exists (function Vm.Eret_to_user -> true | _ -> false) (Vm.step vm 0)
      then Vm.reg vm 0 r1
      else go (n - 1)
    in
    go 100
  in
  checki "taken" 1 (run 5);
  checki "not taken" 0 (run 15)

let test_call_ret_stack () =
  let a = Asm.create () in
  Asm.func a "callee" (fun () ->
      Asm.emit a (Bin (Add, r0, r0, Imm 1));
      Asm.emit a Ret);
  Asm.func a "f" (fun () ->
      Asm.emit a (Call "callee");
      Asm.emit a (Call "callee");
      Asm.emit a Ret);
  let image = Asm.link a in
  let vm = Vm.create image in
  Vm.start_call vm 0 (Asm.entry image "f") [ 0 ];
  let rec go n =
    if n = 0 then failwith "budget";
    if List.exists (function Vm.Eret_to_user -> true | _ -> false) (Vm.step vm 0)
    then ()
    else go (n - 1)
  in
  go 100;
  checki "nested calls" 2 (Vm.reg vm 0 r0);
  (* the final Ret pops the sentinel, leaving sp at the stack top *)
  checki "stack pointer restored" (Layout.stack_top 0) (Vm.reg vm 0 sp)

let test_null_fault () =
  let vm, events =
    run_fn (fun a ->
        emit a
          [ Li (r1, 0); Load { dst = r2; base = r1; off = 8; size = 8; atomic = false } ])
  in
  checkb "panicked" true (Vm.panicked vm);
  checkb "fault event" true
    (List.exists (function Vm.Efault 8 -> true | _ -> false) events);
  checkb "console mentions NULL deref" true
    (List.exists
       (fun l ->
         String.length l > 4 && String.sub l 0 4 = "BUG:")
       (Vm.console_lines vm))

let test_unmapped_fault () =
  let vm, _ =
    run_fn (fun a ->
        emit a
          [
            Li (r1, Layout.kmem_size + 0x1000);
            Load { dst = r2; base = r1; off = 0; size = 8; atomic = false };
          ])
  in
  checkb "panicked on unmapped" true (Vm.panicked vm)

let test_user_memory_isolated () =
  let addr = Layout.user_base + 16 in
  let a = Asm.create () in
  Asm.func a "f" (fun () ->
      Asm.emit a (Li (r1, addr));
      Asm.emit a (Store { base = r1; off = 0; src = Imm 99; size = 8; atomic = false });
      Asm.emit a Ret);
  let image = Asm.link a in
  let vm = Vm.create image in
  Vm.start_call vm 0 (Asm.entry image "f") [];
  let rec go n =
    if n = 0 then failwith "budget";
    if List.exists (function Vm.Eret_to_user -> true | _ -> false) (Vm.step vm 0)
    then ()
    else go (n - 1)
  in
  go 100;
  checki "thread 0 sees its write" 99 (Vm.peek vm 0 addr 8);
  checki "thread 1 does not" 0 (Vm.peek vm 1 addr 8)

let test_snapshot_restore () =
  let addr = Layout.kdata_base + 64 in
  let a = Asm.create () in
  Asm.func a "f" (fun () ->
      Asm.emit a (Li (r1, addr));
      Asm.emit a (Store { base = r1; off = 0; src = Imm 7; size = 8; atomic = false });
      Asm.emit a Ret);
  let image = Asm.link a in
  let vm = Vm.create image in
  let snap = Vm.snapshot vm in
  Vm.start_call vm 0 (Asm.entry image "f") [];
  let rec go n =
    if n = 0 then failwith "budget";
    if List.exists (function Vm.Eret_to_user -> true | _ -> false) (Vm.step vm 0)
    then ()
    else go (n - 1)
  in
  go 100;
  checki "written" 7 (Vm.peek vm 0 addr 8);
  Vm.restore vm snap;
  checki "restored" 0 (Vm.peek vm 0 addr 8)

let test_data_init_and_regions () =
  let a = Asm.create () in
  let g = Asm.global_words a "g" [ 11; 22 ] in
  Asm.func a "f" (fun () -> Asm.emit a Ret);
  let image = Asm.link a in
  let vm = Vm.create image in
  checki "init word 0" 11 (Vm.peek vm 0 g 8);
  checki "init word 1" 22 (Vm.peek vm 0 (g + 8) 8);
  (match Asm.region_of_addr image (g + 8) with
  | Some r -> check Alcotest.string "region name" "g" r.Asm.name
  | None -> Alcotest.fail "region not found");
  checkb "no region below" true (Asm.region_of_addr image 0 = None)

let test_funcptr_table () =
  let a = Asm.create () in
  Asm.func a "h1" (fun () -> Asm.emit a Ret);
  Asm.func a "h2" (fun () -> Asm.emit a Ret);
  let tbl = Asm.global_funcs a "tbl" [ "h2"; "h1" ] in
  let image = Asm.link a in
  let vm = Vm.create image in
  checki "slot 0 is h2" (Asm.entry image "h2") (Vm.peek vm 0 tbl 8);
  checki "slot 1 is h1" (Asm.entry image "h1") (Vm.peek vm 0 (tbl + 8) 8)

let test_undefined_label () =
  let a = Asm.create () in
  Asm.func a "f" (fun () -> Asm.emit a (Jmp "nowhere"));
  Alcotest.check_raises "undefined label"
    (Invalid_argument "asm: undefined label nowhere") (fun () ->
      ignore (Asm.link a))

let test_duplicate_label () =
  let a = Asm.create () in
  Asm.label a "x";
  Alcotest.check_raises "duplicate label" (Invalid_argument "asm: duplicate label x")
    (fun () -> Asm.label a "x")

let test_func_name_map () =
  let a = Asm.create () in
  Asm.func a "first" (fun () -> Asm.emit a Ret);
  Asm.func a "second" (fun () ->
      Asm.emit a (Li (r0, 1));
      Asm.emit a Ret);
  let image = Asm.link a in
  check Alcotest.string "pc 0" "first" (Asm.func_name image 0);
  check Alcotest.string "second start" "second"
    (Asm.func_name image (Asm.entry image "second"));
  check Alcotest.string "out of range" "<unknown:0x1869f>"
    (Asm.func_name image 99999);
  check Alcotest.string "negative pc" (Asm.unknown_name (-1))
    (Asm.func_name image (-1))

(* Attribution is total: code emitted outside any [func] extent (padding
   before the first function) still gets a stable printable name. *)
let test_func_name_padding () =
  let a = Asm.create () in
  Asm.label a "pad";
  Asm.emit a Halt;
  Asm.func a "real" (fun () -> Asm.emit a Ret);
  let image = Asm.link a in
  check Alcotest.string "padding pc" "<unknown:0x0>" (Asm.func_name image 0);
  check Alcotest.string "function pc" "real"
    (Asm.func_name image (Asm.entry image "real"))

let test_console_format () =
  let a = Asm.create () in
  let m = Asm.msg a "value %d and %d" in
  Asm.func a "f" (fun () ->
      Asm.emit a (Li (r0, 42));
      Asm.emit a (Li (r1, 7));
      Asm.emit a (Hyper (Hconsole m));
      Asm.emit a Ret);
  let image = Asm.link a in
  let vm = Vm.create image in
  Vm.start_call vm 0 (Asm.entry image "f") [];
  let rec go n =
    if n = 0 then failwith "budget";
    if List.exists (function Vm.Eret_to_user -> true | _ -> false) (Vm.step vm 0)
    then ()
    else go (n - 1)
  in
  go 100;
  check
    Alcotest.(list string)
    "formatted" [ "value 42 and 7" ] (Vm.console_lines vm)

let test_coverage_edges () =
  let a = Asm.create () in
  Asm.func a "f" (fun () ->
      Asm.emit a (Br (Eq, r0, Imm 0, "zero"));
      Asm.emit a Ret;
      Asm.label a "zero";
      Asm.emit a Ret);
  let image = Asm.link a in
  let vm = Vm.create image in
  let run arg =
    Vm.start_call vm 0 (Asm.entry image "f") [ arg ];
    let rec go n =
      if n = 0 then failwith "budget";
      if List.exists (function Vm.Eret_to_user -> true | _ -> false) (Vm.step vm 0)
      then ()
      else go (n - 1)
    in
    go 100
  in
  Vm.reset_coverage vm;
  run 0;
  let c1 = Vm.coverage_size vm in
  run 0;
  let c2 = Vm.coverage_size vm in
  run 1;
  let c3 = Vm.coverage_size vm in
  checkb "first run covers something" true (c1 > 0);
  checki "same path adds nothing" c1 c2;
  checkb "new branch adds an edge" true (c3 > c2)

let test_step_counts () =
  let vm, _ = run_fn (fun a -> emit a [ Li (r0, 1); Li (r1, 2); Ret ]) in
  checkb "steps counted" true (Vm.steps vm >= 3)

let tests =
  [
    Alcotest.test_case "arithmetic" `Quick test_arith;
    Alcotest.test_case "div by zero" `Quick test_div_by_zero;
    Alcotest.test_case "load/store sizes" `Quick test_load_store_sizes;
    Alcotest.test_case "store truncation" `Quick test_store_truncates;
    Alcotest.test_case "cas and faa" `Quick test_cas;
    Alcotest.test_case "branches" `Quick test_branches;
    Alcotest.test_case "call/ret stack" `Quick test_call_ret_stack;
    Alcotest.test_case "null fault" `Quick test_null_fault;
    Alcotest.test_case "unmapped fault" `Quick test_unmapped_fault;
    Alcotest.test_case "user memory isolation" `Quick test_user_memory_isolated;
    Alcotest.test_case "snapshot/restore" `Quick test_snapshot_restore;
    Alcotest.test_case "data init and regions" `Quick test_data_init_and_regions;
    Alcotest.test_case "function pointer table" `Quick test_funcptr_table;
    Alcotest.test_case "undefined label" `Quick test_undefined_label;
    Alcotest.test_case "duplicate label" `Quick test_duplicate_label;
    Alcotest.test_case "pc to function map" `Quick test_func_name_map;
    Alcotest.test_case "pc map is total over padding" `Quick
      test_func_name_padding;
    Alcotest.test_case "console formatting" `Quick test_console_format;
    Alcotest.test_case "coverage edges" `Quick test_coverage_edges;
    Alcotest.test_case "step counter" `Quick test_step_counts;
  ]

let () =
  Alcotest.run "vmm"
    [
      ("vm", tests);
      ("layout", Test_vmm_layout.tests);
      ("edge set", Test_vmm_edges.tests);
    ]
