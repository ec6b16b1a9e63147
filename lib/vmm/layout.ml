(* Guest physical memory layout.

   A single flat kernel address space plus one private user segment per
   guest thread (user processes are isolated, as in the paper: only kernel
   memory is shared between the threads under test). *)

let null_guard_end = 0x1000
(* Accesses below this address fault: models the unmapped page at NULL. *)

let kdata_base = 0x2000
(* Kernel globals, allocated by the assembler. *)

let kheap_base = 0x10000
let kheap_end = 0x80000
(* Dynamic kernel objects, managed by the guest slab allocator. *)

let stack_area_base = 0x80000
let stack_size = 0x2000
(* 8 KiB kernel stacks, 8 KiB-aligned, exactly as assumed by Snowboard's
   ESP-based stack filter (section 4.1.1). *)

let max_threads = 4

let kmem_size = 0x100000

let user_base = 0x4000_0000
let user_size = 0x10000

let stack_base tid =
  assert (tid >= 0 && tid < max_threads);
  stack_area_base + (tid * stack_size)

let stack_top tid = stack_base tid + stack_size

let is_user addr = addr >= user_base

let is_kernel addr = addr >= 0 && addr < kmem_size

(* Snowboard's kernel-stack range computation from the live stack pointer:
   [esp land lnot (stack_size - 1)] up to that plus [stack_size]. *)
let stack_range_of_sp esp =
  let base = esp land lnot (stack_size - 1) in
  (base, base + stack_size)

(* The same range test without building the pair: this runs for every
   access the shared-access filter sees. *)
let in_stack_of_sp esp addr =
  let lo = esp land lnot (stack_size - 1) in
  addr >= lo && addr < lo + stack_size
