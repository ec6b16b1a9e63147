(** Sequential test programs: self-sufficient sequences of system calls,
    the unit of Snowboard's input corpus (paper section 3.1). *)

type arg =
  | Const of int
  | Res of int  (** the result of the call at this index in the program *)
  | Buf of string
      (** bytes installed in user memory before the call; the argument
          value is the buffer's user-space address *)

type call = { nr : int; args : arg list }

type t = call list

val max_calls : int
(** Upper limit on program length (the paper's bounded test length). *)

val buf_addr : int -> int
(** User-space address of call [i]'s buffer area; argument [j]'s buffer
    sits at [buf_addr i + 16 * j]. *)

val pp_arg : Format.formatter -> arg -> unit

val pp_call : Format.formatter -> call -> unit

val pp : Format.formatter -> t -> unit

val to_string : t -> string

val equal : t -> t -> bool

val hash : t -> int
(** Structural hash used for corpus dedup. *)

val to_line : t -> string
(** Compact one-line serialisation for corpus files. *)

val of_line : string -> t option
(** Inverse of [to_line]; [None] on malformed input, including a buffer
    that would end past the user segment ([Vmm.Layout.user_base +
    Vmm.Layout.user_size]) once placed at its {!buf_addr} slot. *)
