(** Random syscall-program generation and mutation: the Syzkaller role
    (paper section 4.1.1).  Templates mirror syzlang descriptions, with
    resources (file descriptors, message-queue ids) flowing from
    producing calls to consuming ones. *)

val src : Logs.src
(** The [snowboard.fuzzer] log source, shared with {!Corpus}. *)

type resource = Rfd | Rmsq

type argspec =
  | Choice of int list
  | Use of resource  (** reference an earlier producing call's result *)
  | Buffer of int  (** a fresh random buffer of this many bytes *)

type template = {
  tname : string;  (** syzlang-style name, e.g. "ioctl$SIOCSIFHWADDR" *)
  nr : int;
  argspecs : argspec list;
  produces : resource option;
}

val templates : template list

val generate : Random.State.t -> Prog.t
(** A fresh random program of 1 to [Prog.max_calls] calls. *)

val mutate : Random.State.t -> Prog.t -> Prog.t
(** Replace a call, resample an argument, append or drop a call.
    Resource references always stay well formed. *)
