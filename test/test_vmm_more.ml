(* Additional VMM coverage: ISA evaluator properties, atomic RMW edge
   cases, indirect calls, label mapping, register/user-memory snapshot
   fidelity and instruction printing. *)

module Isa = Vmm.Isa
module Asm = Vmm.Asm
module Vm = Vmm.Vm
module Layout = Vmm.Layout
open Isa

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

(* reference models for the evaluators *)
let model_binop op a b =
  match op with
  | Add -> a + b
  | Sub -> a - b
  | And -> a land b
  | Or -> a lor b
  | Xor -> a lxor b
  | Shl -> a lsl b
  | Shr -> a lsr b
  | Mul -> a * b
  | Div -> if b = 0 then 0 else a / b

let all_binops = [ Add; Sub; And; Or; Xor; Shl; Shr; Mul; Div ]
let all_conds = [ Eq; Ne; Lt; Le; Gt; Ge ]

let prop_binop =
  QCheck.Test.make ~name:"eval_binop matches model" ~count:500
    QCheck.(triple (int_bound 8) (int_bound 100000) (int_bound 30))
    (fun (opi, a, b) ->
      let op = List.nth all_binops (opi mod 9) in
      Isa.eval_binop op a b = model_binop op a b)

let prop_cond =
  QCheck.Test.make ~name:"eval_cond matches comparisons" ~count:500
    QCheck.(triple (int_bound 5) small_int small_int)
    (fun (ci, a, b) ->
      let c = List.nth all_conds (ci mod 6) in
      Isa.eval_cond c a b
      = (match c with
        | Eq -> a = b
        | Ne -> a <> b
        | Lt -> a < b
        | Le -> a <= b
        | Gt -> a > b
        | Ge -> a >= b))

let run_fn ?(args = []) body =
  let a = Asm.create () in
  Asm.func a "f" (fun () -> body a);
  let image = Asm.link a in
  let vm = Vm.create image in
  Vm.start_call vm 0 (Asm.entry image "f") args;
  let rec go n =
    if n = 0 then failwith "budget";
    if
      List.exists
        (function Vm.Eret_to_user | Vm.Ehalt | Vm.Epanic _ -> true | _ -> false)
        (Vm.step vm 0)
    then vm
    else go (n - 1)
  in
  go 5_000

let emit a l = List.iter (Asm.emit a) l

let test_faa_negative () =
  let addr = Layout.kdata_base in
  let vm =
    run_fn (fun a ->
        emit a
          [
            Li (r1, addr);
            Store { base = r1; off = 0; src = Imm 10; size = 8; atomic = false };
            Faa { dst = r2; base = r1; off = 0; delta = Imm (-3) };
            Load { dst = r3; base = r1; off = 0; size = 8; atomic = false };
            Ret;
          ])
  in
  checki "old value" 10 (Vm.reg vm 0 r2);
  checki "decremented" 7 (Vm.reg vm 0 r3)

let test_cas_reg_operands () =
  let addr = Layout.kdata_base in
  let vm =
    run_fn (fun a ->
        emit a
          [
            Li (r1, addr);
            Li (r4, 0);
            Li (r5, 77);
            Cas { dst = r2; base = r1; off = 0; expected = Reg r4; desired = Reg r5 };
            Load { dst = r3; base = r1; off = 0; size = 8; atomic = false };
            Ret;
          ])
  in
  checki "cas with register operands" 77 (Vm.reg vm 0 r3);
  checki "success" 1 (Vm.reg vm 0 r2)

let test_callind () =
  let a = Asm.create () in
  Asm.func a "target" (fun () ->
      Asm.emit a (Li (r0, 123));
      Asm.emit a Ret);
  Asm.func a "f" (fun () ->
      Asm.emit a (Callind r1);
      Asm.emit a Ret);
  let image = Asm.link a in
  let vm = Vm.create image in
  Vm.start_call vm 0 (Asm.entry image "f") [ 0; Asm.entry image "target" ];
  let rec go n =
    if n = 0 then failwith "budget";
    if List.exists (function Vm.Eret_to_user -> true | _ -> false) (Vm.step vm 0)
    then ()
    else go (n - 1)
  in
  go 100;
  checki "indirect call result" 123 (Vm.reg vm 0 r0)

let test_callind_bad_target_faults () =
  let vm = run_fn ~args:[ 0; 999999 ] (fun a -> emit a [ Callind r1; Ret ]) in
  checkb "wild indirect call faults" true (Vm.panicked vm)

let test_map_label () =
  let i = Br (Eq, r0, Imm 1, "lbl") in
  (match Isa.map_label String.length i with
  | Br (Eq, r, Imm 1, 3) -> checki "reg preserved" r0 r
  | _ -> Alcotest.fail "unexpected mapping");
  match Isa.map_label String.length (Li (r2, 9)) with
  | Li (r, 9) -> checki "non-label untouched" r2 r
  | _ -> Alcotest.fail "unexpected mapping"

let test_pp_instr () =
  let pp_lbl ppf s = Format.pp_print_string ppf s in
  let s i = Format.asprintf "%a" (Isa.pp_instr pp_lbl) i in
  checkb "load prints atomically" true
    (s (Load { dst = r1; base = r2; off = 8; size = 4; atomic = true })
    = "ld4.a r1, [r2+8]");
  checkb "branch prints" true (s (Br (Ne, r0, Imm 0, "x")) = "bne r0, #0, x");
  checkb "hyper prints" true (s (Hyper Hrcu_lock) = "hyper rcu_lock")

let test_snapshot_preserves_everything () =
  let a = Asm.create () in
  Asm.func a "f" (fun () ->
      Asm.emit a (Li (r1, Layout.user_base + 8));
      Asm.emit a (Store { base = r1; off = 0; src = Imm 5; size = 8; atomic = false });
      Asm.emit a (Li (r9, 42));
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
  (* snapshot AFTER the run; mutate; restore; everything must return *)
  let snap = Vm.snapshot vm in
  Vm.poke vm 0 (Layout.user_base + 8) 8 99;
  Vm.set_reg vm 0 r9 0;
  Vm.restore vm snap;
  checki "user memory restored" 5 (Vm.peek vm 0 (Layout.user_base + 8) 8);
  checki "registers restored" 42 (Vm.reg vm 0 r9);
  checkb "mode restored" true (Vm.cpu_mode vm 0 = Vm.User)

let test_panic_event_carries_message () =
  let a = Asm.create () in
  let m = Asm.msg a "custom panic %d" in
  Asm.func a "f" (fun () ->
      Asm.emit a (Li (r0, 9));
      Asm.emit a (Hyper (Hpanic m)));
  let image = Asm.link a in
  let vm = Vm.create image in
  Vm.start_call vm 0 (Asm.entry image "f") [];
  let seen = ref None in
  let rec go n =
    if n = 0 then ()
    else begin
      List.iter
        (function Vm.Epanic s -> seen := Some s | _ -> ())
        (Vm.step vm 0);
      if !seen = None && Vm.cpu_mode vm 0 = Vm.Kernel then go (n - 1)
    end
  in
  go 10;
  checkb "panic message formatted" true (!seen = Some "custom panic 9");
  checkb "vm flagged" true (Vm.panicked vm);
  checkb "thread dead" true (Vm.cpu_mode vm 0 = Vm.Dead)

let test_valid_sizes () =
  checkb "sizes" true
    (Isa.valid_size 1 && Isa.valid_size 2 && Isa.valid_size 4 && Isa.valid_size 8
    && (not (Isa.valid_size 3))
    && not (Isa.valid_size 16))

let test_kdata_overflow_rejected () =
  let a = Asm.create () in
  Alcotest.check_raises "data segment overflow"
    (Invalid_argument "asm: kernel data segment overflow at huge") (fun () ->
      ignore (Asm.global a "huge" 0x100000))

(* ---------------- memory arms vs the translate model ---------------- *)

(* The semantics the memory arms must keep, written the way the VM once
   routed every access: [translate] maps an access to a buffer and
   offset or faults (the NULL guard page, then the kernel segment, then
   the thread's user segment), and a write marks the pages it touches.
   The model owns its buffers and dirty set, so [Vm.peek]/[Vm.poke]
   must agree with it on every value, every [Fault] and the dirty-page
   count. *)
type model = {
  m_kmem : Bytes.t;
  m_umem : Bytes.t array;
  m_dirty : (int, unit) Hashtbl.t;
}

let kpages = Layout.kmem_size / Vm.page_size
let upages = Layout.user_size / Vm.page_size

(* (buffer, offset, global index of the buffer's first page) *)
let model_translate m tid addr size =
  if addr < Layout.null_guard_end then raise (Vm.Fault addr)
  else if Layout.is_kernel addr then
    if addr + size <= Layout.kmem_size then (m.m_kmem, addr, 0)
    else raise (Vm.Fault addr)
  else if Layout.is_user addr then begin
    let off = addr - Layout.user_base in
    if off + size <= Layout.user_size then
      (m.m_umem.(tid), off, kpages + (tid * upages))
    else raise (Vm.Fault addr)
  end
  else raise (Vm.Fault addr)

(* little-endian, zero-extended below 8 bytes, 63-bit truncated at 8 *)
let model_read m tid addr size =
  let buf, off, _ = model_translate m tid addr size in
  let v = ref 0 in
  for i = size - 1 downto 0 do
    v := (!v lsl 8) lor Char.code (Bytes.get buf (off + i))
  done;
  !v

let model_write m tid addr size v =
  let buf, off, page0 = model_translate m tid addr size in
  Hashtbl.replace m.m_dirty (page0 + (off / Vm.page_size)) ();
  Hashtbl.replace m.m_dirty (page0 + ((off + size - 1) / Vm.page_size)) ();
  let v = if size = 8 then v else v land ((1 lsl (8 * size)) - 1) in
  for i = 0 to size - 1 do
    Bytes.set buf (off + i) (Char.chr ((v asr (8 * i)) land 0xff))
  done

let gen_mem_addr =
  QCheck.Gen.(
    let near base = map (fun d -> base + d) (int_range (-16) 16) in
    frequency
      [
        (2, int_range 0 (Layout.null_guard_end + 16));
        (2, int_range Layout.null_guard_end (Layout.kmem_size - 1));
        (3, map (fun d -> Layout.kdata_base + d) (int_bound 48));
        (3, near Layout.kmem_size);
        (1, map (fun d -> Layout.kmem_size + d) (int_bound 0x1000_0000));
        (2, near Layout.user_base);
        (3, map (fun d -> Layout.user_base + d) (int_bound 48));
        (2, near (Layout.user_base + Layout.user_size));
        (2, map (fun x -> x lor min_int) int);
        (1, map (fun d -> min_int + d) (int_bound 8));
        (3, map (fun d -> max_int - d) (int_bound 8));
        (1, int);
      ])

let gen_mem_op =
  QCheck.Gen.(
    map
      (fun ((write, tid), (addr, size), value) -> (write, tid, addr, size, value))
      (triple
         (pair bool (int_bound (Layout.max_threads - 1)))
         (pair gen_mem_addr (oneofl [ 1; 2; 4; 8 ]))
         int))

let prop_mem_arms_match_translate =
  QCheck.Test.make ~name:"memory arms equal the translate model" ~count:300
    (QCheck.make
       ~print:
         QCheck.Print.(
           list (fun (w, tid, addr, size, v) ->
               Printf.sprintf "%s t%d 0x%x/%d %d"
                 (if w then "poke" else "peek")
                 tid addr size v))
       QCheck.Gen.(list_size (int_range 1 80) gen_mem_op))
    (fun ops ->
      let a = Asm.create () in
      Asm.func a "f" (fun () -> Asm.emit a Ret);
      let image = Asm.link a in
      let vm = Vm.create image in
      ignore (Vm.snapshot vm);
      let m =
        {
          m_kmem = Bytes.make Layout.kmem_size '\000';
          m_umem =
            Array.init Layout.max_threads (fun _ ->
                Bytes.make Layout.user_size '\000');
          m_dirty = Hashtbl.create 16;
        }
      in
      List.iter
        (fun (addr, w) -> Bytes.set_int64_le m.m_kmem addr (Int64.of_int w))
        image.Asm.data_init;
      let outcome f = try Ok (f ()) with Vm.Fault addr -> Error addr in
      List.for_all
        (fun (write, tid, addr, size, v) ->
          let got, want =
            if write then
              ( outcome (fun () -> Vm.poke vm tid addr size v; 0),
                outcome (fun () -> model_write m tid addr size v; 0) )
            else
              ( outcome (fun () -> Vm.peek vm tid addr size),
                outcome (fun () -> model_read m tid addr size) )
          in
          got = want && Vm.dirty_page_count vm = Hashtbl.length m.m_dirty)
        ops)

let tests =
  [
    QCheck_alcotest.to_alcotest prop_binop;
    QCheck_alcotest.to_alcotest prop_cond;
    Alcotest.test_case "faa negative delta" `Quick test_faa_negative;
    Alcotest.test_case "cas register operands" `Quick test_cas_reg_operands;
    Alcotest.test_case "indirect call" `Quick test_callind;
    Alcotest.test_case "wild indirect call" `Quick test_callind_bad_target_faults;
    Alcotest.test_case "map_label" `Quick test_map_label;
    Alcotest.test_case "instruction printing" `Quick test_pp_instr;
    Alcotest.test_case "snapshot fidelity" `Quick test_snapshot_preserves_everything;
    Alcotest.test_case "panic event" `Quick test_panic_event_carries_message;
    Alcotest.test_case "valid sizes" `Quick test_valid_sizes;
    Alcotest.test_case "kdata overflow" `Quick test_kdata_overflow_rejected;
    QCheck_alcotest.to_alcotest prop_mem_arms_match_translate;
  ]

let () = Alcotest.run "vmm-more" [ ("isa+vm", tests) ]
