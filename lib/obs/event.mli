(** Flight recorder: a bounded ring buffer of typed events describing
    what happened inside one concurrent run — schedule decisions and
    preemptions, PMC hint-window activity (Algorithm 2), syscall
    enter/exit per vCPU, shared-access samples and detector verdicts.

    Every event is stamped with the {e virtual clock} (guest instructions
    retired) and nothing else, so a trace is a pure function of the seed
    and replays byte-for-byte.  The recorder is disabled by default and
    [emit] is a no-op until [configure ~enabled:true] runs; instrumented
    code guards payload construction behind [enabled ()] so a disabled
    recorder costs one atomic load per hook site. *)

val sched_tid : int
(** The pseudo-thread id ([-1]) used for scheduler-level events; real
    vCPU events carry their vCPU index. *)

type kind =
  | Trial_begin of { threads : int; first : int }
      (** a concurrent run starts; [first] is the thread scheduled first *)
  | Trial_end of { verdict : string }  (** "ok", "panic" or "deadlock" *)
  | Switch of { from_ : int; to_ : int; reason : string }
      (** a vCPU switch; reason is "policy", "pause" or "blocked" *)
  | Sched_point of { tid : int }
      (** the policy requested a preemption after this thread's step *)
  | Hint_window of { pc : int; addr : int }
      (** flags-set match: a PMC access is imminent (pmc_access_coming) *)
  | Hint_hit of { write : bool; pc : int; addr : int }
      (** an access matched a PMC under test (performed_pmc_access) *)
  | Hint_miss of {
      reason : string;
          (** classified cause: ["write-never-executed"] (the hinted
              write side never ran), ["reader-preempted"] (the write
              landed but the reader never reached the hinted access) or
              ["value-mismatch"] (both sides ran but the value read was
              not the profiled one) *)
      window_seen : bool;
          (** whether Algorithm 2's pmc_access_coming window was entered *)
      last_write_pc : int;  (** last shared write by the writer, or -1 *)
      last_write_addr : int;  (** its address, or -1 *)
    }
      (** the trial ended without exercising the hinted channel; the
          payload carries enough context that miss classification needs
          no ring replay (label stays ["pmc-miss"]) *)
  | Syscall_enter of { index : int; nr : int }
  | Syscall_exit of { index : int; ret : int }
  | Access of {
      pc : int;
      addr : int;
      size : int;
      write : bool;
      value : int;
      ctx : string;  (** attributed kernel function *)
    }
  | Verdict of { kind : string; issue : int option; detail : string }
      (** an oracle/detector finding, e.g. kind "data_race" issue 13 *)
  | Fault of { kind : string; detail : string }
      (** a supervision/fault-injection event: kind is "crash",
          "truncate", "watchdog", "retry" or "quarantine" *)
  | Note of { name : string; detail : string }

type t = {
  seq : int;  (** emission index since the last [reset] *)
  vclock : int;  (** virtual clock: guest instructions retired *)
  tid : int;  (** vCPU, or [sched_tid] for scheduler-level events *)
  kind : kind;
}

val kind_label : kind -> string
(** Short stable label ("switch", "pmc-hit", ...) used by exporters. *)

val default_capacity : int

val configure : ?capacity:int -> enabled:bool -> unit -> unit
(** Reset the recorder with a new configuration.  [capacity] bounds the
    ring (default {!default_capacity}); on overflow the oldest events are
    overwritten, so the newest always survive. *)

val enabled : unit -> bool

val set_clock : (unit -> int) option -> unit
(** Install the virtual-clock source (the executor points this at the
    guest's instructions-retired counter); [None] freezes it at 0. *)

val emit : tid:int -> kind -> unit
(** Append one event (no-op while disabled). *)

val events : unit -> t list
(** Buffered events, oldest first.  After an overflow this is the newest
    [capacity] events. *)

val seen : unit -> int
(** Total events emitted since the last [configure]/[reset]. *)

val dropped : unit -> int
(** Events overwritten by ring wraparound. *)

type stats = {
  st_seen : int;  (** total emitted since the last [configure]/[reset] *)
  st_dropped : int;  (** overwritten by wraparound *)
  st_buffered : int;  (** currently in the ring *)
  st_capacity : int;
}

val stats : unit -> stats
(** One coherent reading of the ring counters, for telemetry snapshots. *)

val reset : unit -> unit
(** Clear the buffer, keeping the current configuration. *)
