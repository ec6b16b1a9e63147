(** Scheduling policies for concurrent trials: Snowboard's Algorithm 2,
    the SKI baseline, and naive random preemption. *)

type snowboard_state = {
  mutable current_pmcs : Core.Pmc.t list;
      (** PMCs under test; grown by incidental discovery across trials *)
  flags : (int, unit) Hashtbl.t;
      (** signatures ({!signature}) of accesses observed right before a
          PMC access *)
  last_access : int array;
      (** per thread, the signature of its last shared access; -1 for
          none *)
  mutable windows_seen : int;
      (** running count of pmc_access_coming windows entered; miss
          diagnostics read the per-trial delta *)
}
(** State Algorithm 2 persists across the trials of one concurrent test. *)

val snowboard_state : ?nthreads:int -> Core.Pmc.t option -> snowboard_state

val add_pmc : snowboard_state -> Core.Pmc.t -> unit

val signature : Vmm.Trace.access -> int
(** An access's (pc, kind, addr) packed into one int, the key of
    [flags].  Injective for [0 <= pc < 2^30] and [0 <= addr < 2^31],
    which every shared access satisfies. *)

val snowboard : Random.State.t -> snowboard_state -> Exec.policy
(** Algorithm 2: non-deterministic switches after performed_pmc_access
    (an access matching a PMC under test) and pmc_access_coming (an
    access whose signature is in the flags set). *)

val ski : Random.State.t -> Core.Pmc.t option -> Exec.policy
(** The SKI baseline of section 5.4: random yields whenever the write or
    read *instruction* of the PMC executes, regardless of the memory
    target, and nowhere else. *)

val pct : Random.State.t -> depth:int -> est_len:int -> Exec.policy
(** PCT (Burckhardt et al.) specialised to two threads: run until one of
    [depth - 1] random change points, then swap priorities.  [est_len]
    estimates the execution length the change points are drawn from. *)

val naive : Random.State.t -> period:int -> Exec.policy
(** Random preemption at shared accesses with probability [1/period];
    used for the Random/Duplicate pairing baselines. *)
