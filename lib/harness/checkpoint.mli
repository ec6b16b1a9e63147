(** Campaign checkpoint/resume: a crash-consistent journal of completed
    concurrent tests.

    Since schema v3 the journal is a CRC-framed record log
    ({!Durable.frame}): one header record naming the schema and the
    campaign fingerprint, then one record per finished test (keyed by
    the method name and the test's 1-based plan index), each appended
    with an fsync.  A crash — real or simulated via the
    [checkpoint.header]/[checkpoint.append] crashpoints — tears at most
    the final frame, and {!load} recovers the longest valid record
    prefix from arbitrary truncation or bit corruption without raising.
    On [--resume] the recovered entries are fed to
    [Pipeline.run_method]'s [resume] hook: finished work is skipped,
    and because per-test seeds derive from the plan index, the merged
    statistics are byte-identical to an uninterrupted run's.  There is
    one format: a file that is not framed, such as a journal of the
    whole-JSON-document v2 format, has no recoverable header and is
    refused.

    A fingerprint of the campaign parameters guards against resuming
    with a different configuration, which would silently mix
    incompatible results.

    Storage failures (ENOSPC, EIO) never abort the campaign: after
    {!Obs.Storage.max_attempts} failed tries the sink degrades to
    in-memory accumulation and the failure is reported through
    {!Obs.Storage.degraded}. *)

type entry = { ck_method : string; ck_result : Pipeline.test_result }

type file = {
  ck_fingerprint : string;
  ck_entries : entry list;  (** in journal order *)
}

val fingerprint :
  cfg:Pipeline.config ->
  budget:int ->
  methods:string list ->
  ?extra:string ->
  unit ->
  string
(** A stable digest of everything that shapes the plan and the per-test
    seeds.  [extra] folds in CLI-level knobs (fault spec, watchdog,
    retry limit) that also affect results. *)

val save : string -> file -> unit
(** Serialize as framed v3 records and atomically replace [path]
    (unique temp, fsync, rename, directory fsync).  Raises [Sys_error]
    only after the storage layer's bounded retries are exhausted. *)

val load : string -> (file * Durable.recovery, string) result
(** Parse a framed v3 journal, with what the frame scanner recovered
    and dropped.  The read is total over corruption: the longest valid
    record prefix is returned, never an exception.  [Error] is reserved
    for an unreadable file, a wrong schema, or a journal whose header
    record cannot be recovered, which includes any file that is not
    framed.  Except for an unreadable file, whose message is the
    system's, the message names the file. *)

val lookup : entry list -> method_:string -> int -> Pipeline.test_result option
(** The journaled result for this method's plan index, if any. *)

type sink
(** A live journal: entries so far plus the append writer persisting
    them.  [record] is safe to call from {!Pipeline.run_method}'s
    serialized [on_result] hook. *)

val create_sink : path:string -> fingerprint:string -> initial:entry list -> sink
(** Sweep stale temp files next to [path], atomically write the base
    image (header plus [initial]), and open the journal for appends.
    If storage fails, the sink still accumulates entries in memory and
    the degradation is recorded. *)

val record : sink -> method_:string -> Pipeline.test_result -> unit
(** Append one completed test as a single fsynced frame (O(1) per
    record).  On persistent storage failure the sink degrades rather
    than raising. *)

val entries : sink -> entry list
