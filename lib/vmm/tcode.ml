(* Threaded code: a pre-decoded form of an [Asm.image].

   The boxed [Isa.instr] array costs the interpreter a pointer chase and
   a constructor match per instruction retired, every time the same
   instruction is retired.  Decoding happens once per image instead: the
   opcode (with the binop/cond/operand variants folded in, so dispatch
   is a single dense-int jump) goes into [ops] and the operands are
   unpacked into parallel int arrays, which the threaded interpreter
   ([Vm.run_tblock]) reads with unchecked loads — every register index
   and access size is validated here, at decode time.

   A peephole pass then fuses the pairs that dominate the ~5-instruction
   mean execution blocks — load+branch ("load and test"), bin+store
   ("add and store") and bin+branch ("compare and branch") — into
   superops.  Fusion only rewrites [ops.(pc)] of the *first* instruction
   of a pair: the second instruction keeps its own opcode (in [ops] and
   [raw]) and its operand slots, so a jump landing between the two still
   executes correctly and the fused arm reads the second half's operands
   from its own pc.

   Each decode remembers its image by *identity* ([==]): images are
   immutable once linked, and structural equality over a whole program
   would cost more than decoding.  [Vm.run_tblock] re-checks that
   identity on every call and rejects stale threaded code with a
   descriptive [Invalid_argument].  There is no decode cache: the owner
   of an image (e.g. [Sched.Exec.env]) decodes it once and keeps the
   result alongside it, so both are freed together. *)

type t = {
  image : Asm.image;  (* the image these arrays were decoded from *)
  ops : int array;  (* dispatch opcode per pc, superops installed *)
  raw : int array;  (* pre-fusion opcode per pc *)
  f0 : int array;
  f1 : int array;
  f2 : int array;
  f3 : int array;
  f4 : int array;
  fused_pairs : int;  (* superop sites installed by the peephole pass *)
}

(* Opcode space.  [Vm.run_tblock]'s match arms are literals that must
   stay in sync with these (OCaml literal patterns cannot reference
   bindings); the layout is documented in one place, here.

     0  li          f0=dst  f1=imm
     1  mov         f0=dst  f1=src
     2..10  bin reg,imm   (Add Sub And Or Xor Shl Shr Mul Div)
                    f0=dst  f1=srcA  f2=imm
     11..19 bin reg,reg   f0=dst  f1=srcA  f2=srcB
     20..25 br reg,imm    (Eq Ne Lt Le Gt Ge)
                    f0=reg  f1=imm   f2=target
     26..31 br reg,reg    f0=reg  f1=regB  f2=target
     32 jmp          f0=target
     33 load         f0=dst  f1=base  f2=off  f3=size  f4=atomic
     34 store imm    f0=base f1=off   f2=masked imm  f3=size  f4=atomic
     35 store reg    f0=base f1=off   f2=src         f3=size  f4=atomic
     36..39 cas imm/imm imm/reg reg/imm reg/reg
                     f0=dst  f1=base  f2=off  f3=expected  f4=desired
     40 faa imm      f0=dst  f1=base  f2=off  f3=delta imm
     41 faa reg      f0=dst  f1=base  f2=off  f3=delta reg
     42 call         f0=target
     43 callind      f0=reg
     44 ret
     45 push         f0=reg
     46 pop          f0=reg
     47 pause
     48 halt
     49 hconsole     f0=msg id
     50 hpanic       f0=msg id
     51 hlock_acq   52 hlock_rel   53 hrcu_lock   54 hrcu_unlock
     55 superop load+br    (load fields at pc, br fields at pc+1)
     56 superop bin+store  (bin fields at pc, store fields at pc+1)
     57 superop bin+br     (bin fields at pc, br fields at pc+1)
     58 superop plain run (f3=length of the run of consecutive
        li|mov|bin instructions starting at pc, at least 2; each
        member executes from its own raw opcode and fields)
     59 out-of-range sentinel, stored one past the last instruction
        so the dispatch loop needs no per-instruction bounds check:
        falling off the end of the image lands here               *)

let op_li = 0
let op_mov = 1
let op_bin_ri = 2  (* + binop index *)
let op_bin_rr = 11
let op_br_ri = 20  (* + cond index *)
let op_br_rr = 26
let op_jmp = 32
let op_load = 33
let op_store_i = 34
let op_store_r = 35
let op_cas_ii = 36
let op_cas_ir = 37
let op_cas_ri = 38
let op_cas_rr = 39
let op_faa_i = 40
let op_faa_r = 41
let op_call = 42
let op_callind = 43
let op_ret = 44
let op_push = 45
let op_pop = 46
let op_pause = 47
let op_halt = 48
let op_hconsole = 49
let op_hpanic = 50
let op_hlock_acq = 51
let op_hlock_rel = 52
let op_hrcu_lock = 53
let op_hrcu_unlock = 54
let op_fuse_load_br = 55
let op_fuse_bin_store = 56
let op_fuse_bin_br = 57
let op_fuse_plain = 58
let op_oob = 59

let binop_index = function
  | Isa.Add -> 0
  | Isa.Sub -> 1
  | Isa.And -> 2
  | Isa.Or -> 3
  | Isa.Xor -> 4
  | Isa.Shl -> 5
  | Isa.Shr -> 6
  | Isa.Mul -> 7
  | Isa.Div -> 8

let cond_index = function
  | Isa.Eq -> 0
  | Isa.Ne -> 1
  | Isa.Lt -> 2
  | Isa.Le -> 3
  | Isa.Gt -> 4
  | Isa.Ge -> 5

let is_bin code = code >= op_bin_ri && code < op_br_ri
let is_br code = code >= op_br_ri && code <= 31
let is_store code = code = op_store_i || code = op_store_r
let is_plain code = code >= op_li && code < op_br_ri

(* The interpreter indexes register files with unchecked loads, so a
   malformed register number must never reach the arrays. *)
let check_reg pc r =
  if r < 0 || r >= Isa.num_regs then
    invalid_arg
      (Printf.sprintf "tcode: invalid register %d at pc %d" r pc)

let check_size pc s =
  if not (Isa.valid_size s) then
    invalid_arg (Printf.sprintf "tcode: invalid access size %d at pc %d" s pc)

let mask_of_size = function
  | 1 -> 0xff
  | 2 -> 0xffff
  | 4 -> 0xffffffff
  | _ -> -1

let of_image (image : Asm.image) =
  let code = image.Asm.code in
  let len = Array.length code in
  (* one extra slot for the [op_oob] sentinel: control can fall through
     to exactly [len] (branch targets are label-resolved below it) *)
  let ops = Array.make (len + 1) op_oob in
  let f0 = Array.make (len + 1) 0 in
  let f1 = Array.make (len + 1) 0 in
  let f2 = Array.make (len + 1) 0 in
  let f3 = Array.make (len + 1) 0 in
  let f4 = Array.make (len + 1) 0 in
  for pc = 0 to len - 1 do
    match code.(pc) with
    | Isa.Li (r, v) ->
        check_reg pc r;
        ops.(pc) <- op_li;
        f0.(pc) <- r;
        f1.(pc) <- v
    | Isa.Mov (d, s) ->
        check_reg pc d;
        check_reg pc s;
        ops.(pc) <- op_mov;
        f0.(pc) <- d;
        f1.(pc) <- s
    | Isa.Bin (op, d, a, o) ->
        check_reg pc d;
        check_reg pc a;
        (match o with
        | Isa.Imm v ->
            ops.(pc) <- op_bin_ri + binop_index op;
            f2.(pc) <- v
        | Isa.Reg r ->
            check_reg pc r;
            ops.(pc) <- op_bin_rr + binop_index op;
            f2.(pc) <- r);
        f0.(pc) <- d;
        f1.(pc) <- a
    | Isa.Br (c, r, o, target) ->
        check_reg pc r;
        (match o with
        | Isa.Imm v ->
            ops.(pc) <- op_br_ri + cond_index c;
            f1.(pc) <- v
        | Isa.Reg r2 ->
            check_reg pc r2;
            ops.(pc) <- op_br_rr + cond_index c;
            f1.(pc) <- r2);
        f0.(pc) <- r;
        f2.(pc) <- target
    | Isa.Jmp target ->
        ops.(pc) <- op_jmp;
        f0.(pc) <- target
    | Isa.Load { dst; base; off; size; atomic } ->
        check_reg pc dst;
        check_reg pc base;
        check_size pc size;
        ops.(pc) <- op_load;
        f0.(pc) <- dst;
        f1.(pc) <- base;
        f2.(pc) <- off;
        f3.(pc) <- size;
        f4.(pc) <- (if atomic then 1 else 0)
    | Isa.Store { base; off; src; size; atomic } ->
        check_reg pc base;
        check_size pc size;
        (match src with
        | Isa.Imm v ->
            ops.(pc) <- op_store_i;
            (* pre-masked: the runtime store writes and records this
               value verbatim *)
            f2.(pc) <- v land mask_of_size size
        | Isa.Reg r ->
            check_reg pc r;
            ops.(pc) <- op_store_r;
            f2.(pc) <- r);
        f0.(pc) <- base;
        f1.(pc) <- off;
        f3.(pc) <- size;
        f4.(pc) <- (if atomic then 1 else 0)
    | Isa.Cas { dst; base; off; expected; desired } ->
        check_reg pc dst;
        check_reg pc base;
        let exp_imm, ev =
          match expected with
          | Isa.Imm v -> (true, v)
          | Isa.Reg r ->
              check_reg pc r;
              (false, r)
        in
        let des_imm, dv =
          match desired with
          | Isa.Imm v -> (true, v)
          | Isa.Reg r ->
              check_reg pc r;
              (false, r)
        in
        ops.(pc) <-
          (match (exp_imm, des_imm) with
          | true, true -> op_cas_ii
          | true, false -> op_cas_ir
          | false, true -> op_cas_ri
          | false, false -> op_cas_rr);
        f0.(pc) <- dst;
        f1.(pc) <- base;
        f2.(pc) <- off;
        f3.(pc) <- ev;
        f4.(pc) <- dv
    | Isa.Faa { dst; base; off; delta } ->
        check_reg pc dst;
        check_reg pc base;
        (match delta with
        | Isa.Imm v ->
            ops.(pc) <- op_faa_i;
            f3.(pc) <- v
        | Isa.Reg r ->
            check_reg pc r;
            ops.(pc) <- op_faa_r;
            f3.(pc) <- r);
        f0.(pc) <- dst;
        f1.(pc) <- base;
        f2.(pc) <- off
    | Isa.Call target ->
        ops.(pc) <- op_call;
        f0.(pc) <- target
    | Isa.Callind r ->
        check_reg pc r;
        ops.(pc) <- op_callind;
        f0.(pc) <- r
    | Isa.Ret -> ops.(pc) <- op_ret
    | Isa.Push r ->
        check_reg pc r;
        ops.(pc) <- op_push;
        f0.(pc) <- r
    | Isa.Pop r ->
        check_reg pc r;
        ops.(pc) <- op_pop;
        f0.(pc) <- r
    | Isa.Pause -> ops.(pc) <- op_pause
    | Isa.Halt -> ops.(pc) <- op_halt
    | Isa.Hyper h -> (
        match h with
        | Isa.Hconsole id ->
            ops.(pc) <- op_hconsole;
            f0.(pc) <- id
        | Isa.Hpanic id ->
            ops.(pc) <- op_hpanic;
            f0.(pc) <- id
        | Isa.Hlock_acq -> ops.(pc) <- op_hlock_acq
        | Isa.Hlock_rel -> ops.(pc) <- op_hlock_rel
        | Isa.Hrcu_lock -> ops.(pc) <- op_hrcu_lock
        | Isa.Hrcu_unlock -> ops.(pc) <- op_hrcu_unlock)
  done;
  let raw = Array.copy ops in
  (* Peephole fusion.  Only the superop head is rewritten; members keep
     their opcode and operand slots, so jumps into the middle of a
     superop stay valid and the fused arm decodes the members from
     their own pcs.  [run_len.(pc)] is the length of the maximal run of
     consecutive plain (li/mov/bin) instructions starting at [pc]; a
     run of >=2 becomes an [op_fuse_plain] superop whose length lands
     in the otherwise-unused [f3] slot.  Every member of a run is
     itself marked (with its suffix length), so a branch into the
     middle starts a shorter run.  The pair superops can't collide with
     runs: their tails (store, branch) are not plain, so their heads
     always have [run_len] 1. *)
  let run_len = Array.make (len + 1) 0 in
  for pc = len - 1 downto 0 do
    if is_plain raw.(pc) then run_len.(pc) <- 1 + run_len.(pc + 1)
  done;
  let fused = ref 0 in
  for pc = 0 to len - 2 do
    let a = raw.(pc) and b = raw.(pc + 1) in
    if a = op_load && is_br b then begin
      ops.(pc) <- op_fuse_load_br;
      incr fused
    end
    else if is_bin a && is_store b then begin
      ops.(pc) <- op_fuse_bin_store;
      incr fused
    end
    else if is_bin a && is_br b then begin
      ops.(pc) <- op_fuse_bin_br;
      incr fused
    end
    else if run_len.(pc) >= 2 then begin
      ops.(pc) <- op_fuse_plain;
      f3.(pc) <- run_len.(pc);
      incr fused
    end
  done;
  { image; ops; raw; f0; f1; f2; f3; f4; fused_pairs = !fused }

let image t = t.image

let length t = Array.length t.ops - 1

let fused_pairs t = t.fused_pairs

let same_image t img = t.image == img
