(** Threaded code: a pre-decoded, fusion-optimized form of an
    {!Asm.image}.

    The assembler's boxed {!Isa.instr} array costs the interpreter a
    pointer chase and a nested constructor match per instruction
    retired.  [Tcode] decodes the whole image once into a flat int
    opcode array (binop/cond/operand variants folded into the opcode, so
    dispatch is one dense-int match) plus parallel operand arrays, then
    runs a peephole pass fusing the pairs that dominate the
    ~5-instruction mean execution blocks (load+branch, bin+store,
    bin+branch) into superops.  {!Vm.run_tblock} executes this form.

    Register indices and access sizes are validated at decode time
    ([Invalid_argument] on a malformed image), which lets the
    interpreter use unchecked array access on the register file. *)

type t = {
  image : Asm.image;
      (** the image these arrays were decoded from; {!Vm.run_tblock}
          checks physical identity against its own image and raises
          [Invalid_argument] on a mismatch *)
  ops : int array;
      (** dispatch opcode per pc, superops installed; one extra
          [op_oob] sentinel slot at index [length] catches fall-through
          past the end without a per-dispatch bounds check *)
  raw : int array;
      (** pre-fusion opcode per pc — superop arms read the pair tail's
          component variant from here *)
  f0 : int array;
  f1 : int array;
  f2 : int array;
  f3 : int array;
  f4 : int array;  (** unpacked operand fields, layout per opcode *)
  fused_pairs : int;  (** superop sites installed by the peephole pass *)
}

(** Opcode constants; the full field layout is documented in
    [tcode.ml].  {!Vm.run_tblock}'s match arms use the literal values
    and must stay in sync. *)

val op_li : int
val op_mov : int
val op_bin_ri : int
val op_bin_rr : int
val op_br_ri : int
val op_br_rr : int
val op_jmp : int
val op_load : int
val op_store_i : int
val op_store_r : int
val op_cas_ii : int
val op_cas_ir : int
val op_cas_ri : int
val op_cas_rr : int
val op_faa_i : int
val op_faa_r : int
val op_call : int
val op_callind : int
val op_ret : int
val op_push : int
val op_pop : int
val op_pause : int
val op_halt : int
val op_hconsole : int
val op_hpanic : int
val op_hlock_acq : int
val op_hlock_rel : int
val op_hrcu_lock : int
val op_hrcu_unlock : int
val op_fuse_load_br : int
val op_fuse_bin_store : int
val op_fuse_bin_br : int
val op_fuse_plain : int
val op_oob : int

val is_bin : int -> bool
(** [is_bin code] — [code] is a register/imm or register/register ALU
    opcode. *)

val is_br : int -> bool
(** [is_br code] — [code] is a conditional-branch opcode. *)

val is_store : int -> bool
(** [is_store code] — [code] is a store opcode (imm or reg source). *)

val is_plain : int -> bool
(** [is_plain code] — [code] is a li/mov/ALU opcode: no memory, no
    control flow, no event. *)

val of_image : Asm.image -> t
(** Decode an image.  Raises [Invalid_argument] if the image contains a
    register index or access size the ISA rules out.  Nothing is cached:
    decode once per image and keep the result next to it. *)

val image : t -> Asm.image
(** The image [t] was decoded from. *)

val same_image : t -> Asm.image -> bool
(** [same_image t img] — [t] was decoded from exactly [img]
    (physical identity). *)

val length : t -> int
(** Number of decoded slots (= code length of the image). *)

val fused_pairs : t -> int
(** Number of superop sites the peephole pass installed. *)
