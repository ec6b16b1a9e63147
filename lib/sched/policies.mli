(** Scheduling policies for concurrent trials: Snowboard's Algorithm 2,
    the SKI baseline, and naive random preemption. *)

type snowboard_state = private {
  mutable current_pmcs : Core.Pmc.t list;
      (** PMCs under test; grown by incidental discovery across trials
          ({!add_pmc}) *)
  flags : (int, unit) Hashtbl.t;
      (** signatures ({!signature}) of accesses observed right before a
          PMC access; learned by [decide] only *)
  last_access : int array;
      (** per thread, the signature of its last shared access; -1 for
          none *)
  mutable windows_seen : int;
      (** running count of pmc_access_coming windows entered; miss
          diagnostics read the per-trial delta *)
  mutable watch : Bytes.t;
      (** per-pc watch bits, up to the largest watched pc: a PMC under
          test writes there (1), reads there (2), a flag has that pc (4).
          [decide] skips the PMC scan and the flags lookup for an access
          whose pc lacks the bit for its kind and the flag bit.  Pcs the
          table cannot index (negative, or past 2{^24}) always take both
          lookups. *)
}
(** State Algorithm 2 persists across the trials of one concurrent test.
    Read-only outside this module, so [add_pmc] and flag learning are
    the only writers and keep [watch] current. *)

val snowboard_state : ?nthreads:int -> Core.Pmc.t option -> snowboard_state

val add_pmc : snowboard_state -> Core.Pmc.t -> unit

val signature : Vmm.Trace.access -> int
(** An access's (pc, kind, addr) packed into one int, the key of
    [flags].  Injective for [0 <= pc < 2^30] and [0 <= addr < 2^31],
    which every shared access satisfies. *)

val snowboard : Random.State.t -> snowboard_state -> Exec.policy
(** Algorithm 2: non-deterministic switches after performed_pmc_access
    (a shared access matching a PMC under test) and pmc_access_coming (a
    shared access whose signature is in the flags set).  Event-only. *)

val ski : Random.State.t -> Core.Pmc.t option -> Exec.policy
(** The SKI baseline of section 5.4: random yields whenever the write or
    read *instruction* of the PMC makes a shared access, regardless of
    the memory target, and nowhere else.  Stack accesses are skipped:
    they are thread-private, so they cannot carry a PMC's
    communication.  Event-only. *)

val pct : Random.State.t -> depth:int -> est_len:int -> Exec.policy
(** PCT (Burckhardt et al.) specialised to two threads: run until one of
    [depth - 1] random change points, then swap priorities.  [est_len]
    estimates the execution length the change points are drawn from. *)

val naive : Random.State.t -> period:int -> Exec.policy
(** Random preemption at shared accesses with probability [1/period];
    used for the Random/Duplicate pairing baselines.  Event-only. *)
