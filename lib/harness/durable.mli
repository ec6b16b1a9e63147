(** CRC-framed durable journals and atomic artifact writes — the
    harness-level durable-storage layer over {!Obs.Storage}.

    A journal is a sequence of framed records.  Each frame is

    {v SB3 <len:8 hex> <crc32:8 hex>\n<payload bytes>\n v}

    where the CRC covers the length field and the payload, so any
    single-bit flip anywhere in a record — header or body — is caught,
    and a length corruption cannot silently re-frame the stream.  The
    format is append-friendly: writers add one frame per record with an
    fsync, so a crash tears at most the final frame.

    The reader ({!scan}/{!read_journal}) is total: for arbitrary
    truncation or corruption it returns the longest valid record
    prefix, never raising, together with a {!recovery} describing what
    was dropped.  That recovery discipline is what makes the checkpoint
    journal a resume substrate rather than a liability: resuming from a
    torn journal replays the recovered prefix and re-executes the rest,
    reproducing the uninterrupted campaign byte-for-byte. *)

val crc32 : string -> int
(** Standard CRC-32 (IEEE 802.3, reflected 0xEDB88320), as used by
    gzip/zlib; ["123456789"] digests to [0xcbf43926]. *)

val frame : string -> string
(** One framed record (header + payload + terminator). *)

val frame_overhead : int
(** Bytes a frame adds on top of its payload. *)

type recovery = {
  rc_records : int;  (** valid records recovered *)
  rc_valid_bytes : int;  (** length of the valid prefix *)
  rc_total_bytes : int;  (** file length scanned *)
  rc_dropped_bytes : int;  (** bytes past the valid prefix *)
  rc_dropped_records : int;
      (** frame headers visible in the dropped tail (>= 1 whenever any
          tail was dropped, counting the torn record itself) *)
  rc_reason : string option;
      (** why scanning stopped short, [None] on a clean end *)
}

val clean : recovery -> bool

val scan : string -> string list * recovery
(** Decode the longest valid prefix of framed records from raw bytes.
    Total: never raises, whatever the input. *)

val read_journal : string -> (string list * recovery, string) result
(** {!scan} over a file's bytes; [Error] only when the file cannot be
    read at all.  Reports the recovered/dropped record counts into the
    [snowboard.storage/*] metrics. *)

val write_journal :
  site:string -> path:string -> string list -> (unit, Obs.Storage.err) result
(** Atomically replace [path] with the framed records. *)

(** {1 Append writers} *)

type writer
(** An open journal being appended to, one fsynced frame per record. *)

val create_writer :
  header_site:string ->
  append_site:string ->
  path:string ->
  initial:string list ->
  (writer, Obs.Storage.err) result
(** Atomically write the initial records (crash-consistent base image),
    then open the file for framed appends.  Sweeps stale [*.tmp] files
    left by crashed writers next to [path] first. *)

val append_record : writer -> string -> (unit, Obs.Storage.err) result

val close_writer : writer -> unit

(** {1 fsck} *)

type format = V3 | Unknown  (** [Unknown]: no [SB3 ] magic at offset 0 *)

type fsck_report = {
  fk_path : string;
  fk_format : format;
  fk_recovery : recovery;
  fk_schema : string option;  (** from the header record, when parseable *)
  fk_fingerprint : string option;
  fk_entries : int;  (** records after the header *)
  fk_clean : bool;
  fk_repaired : bool;  (** truncated to the longest valid prefix *)
}

val fsck : ?repair:bool -> string -> (fsck_report, string) result
(** Validate a journal; with [repair], atomically truncate a corrupt v3
    journal to its longest valid prefix (byte-exact, so a subsequent
    resume sees exactly the recovered records).  [Error] only when the
    file cannot be read.  A file that does not start with a frame
    (junk, or a whole-document JSON journal of the v2 format) is
    [Unknown] and never clean: [Checkpoint.load] refuses it, and
    [repair] never rewrites it. *)

val fsck_json : fsck_report -> Obs.Export.json
(** The recovery dossier as JSON (the [--json] form of
    [snowboard fsck]). *)

val pp_fsck : Format.formatter -> fsck_report -> unit
(** The human recovery dossier. *)
