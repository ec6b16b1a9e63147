(** Guest physical memory layout.

    One flat kernel address space shared by all guest threads, plus one
    private user segment per thread.  Kernel stacks are 8 KiB and 8 KiB
    aligned so that Snowboard's ESP-based stack filter applies verbatim. *)

val null_guard_end : int
(** Accesses below this address fault (the unmapped NULL page). *)

val kdata_base : int
(** First address available for kernel globals. *)

val kheap_base : int
val kheap_end : int
(** Range managed by the guest slab allocator. *)

val stack_area_base : int
val stack_size : int
val max_threads : int
val kmem_size : int
val user_base : int
val user_size : int

val stack_base : int -> int
(** [stack_base tid] is the lowest address of thread [tid]'s kernel stack. *)

val stack_top : int -> int
(** One past the highest address of thread [tid]'s kernel stack. *)

val is_user : int -> bool
val is_kernel : int -> bool

val stack_range_of_sp : int -> int * int
(** Kernel stack range computed from a live stack-pointer value, exactly as
    in Snowboard section 4.1.1. *)

val in_stack_of_sp : int -> int -> bool
(** [in_stack_of_sp esp addr] is true when [addr] falls inside the stack
    that [esp] points into: the range {!stack_range_of_sp} returns,
    tested without allocating the pair. *)
