(* CRC-framed durable journals (see durable.mli). *)

module J = Obs.Export

(* ------------------------------------------------------------------ *)
(* CRC-32 (IEEE, reflected), table-driven.                             *)

let crc_table =
  lazy
    (Array.init 256 (fun i ->
         let c = ref i in
         for _ = 1 to 8 do
           c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
         done;
         !c))

let crc32 s =
  let t = Lazy.force crc_table in
  let c = ref 0xFFFFFFFF in
  String.iter
    (fun ch -> c := t.((!c lxor Char.code ch) land 0xff) lxor (!c lsr 8))
    s;
  (!c lxor 0xFFFFFFFF) land 0xFFFFFFFF

(* ------------------------------------------------------------------ *)
(* Framing.                                                            *)

let magic = "SB3 "
let header_len = 22 (* "SB3 " + 8 hex + " " + 8 hex + "\n" *)
let frame_overhead = header_len + 1 (* + the payload terminator *)

let frame payload =
  let len_str = Printf.sprintf "%08x" (String.length payload) in
  Printf.sprintf "%s%s %08x\n%s\n" magic len_str (crc32 (len_str ^ payload))
    payload

type recovery = {
  rc_records : int;
  rc_valid_bytes : int;
  rc_total_bytes : int;
  rc_dropped_bytes : int;
  rc_dropped_records : int;
  rc_reason : string option;
}

let clean rc = rc.rc_dropped_bytes = 0 && rc.rc_reason = None

let is_hex c = (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f')

(* 8 strict lowercase hex digits, the only integer syntax a frame may
   use: anything looser would let corrupted headers still parse *)
let hex8 s off =
  let rec go i acc =
    if i = 8 then Some acc
    else
      let c = s.[off + i] in
      if not (is_hex c) then None
      else
        let d =
          if c <= '9' then Char.code c - Char.code '0'
          else Char.code c - Char.code 'a' + 10
        in
        go (i + 1) ((acc * 16) + d)
  in
  go 0 0

(* One record at [off]: [Ok (payload, next_off)] or [Error reason]. *)
let parse_record bytes off =
  let n = String.length bytes in
  if off + header_len > n then Error "truncated header"
  else if String.sub bytes off 4 <> magic then Error "bad magic"
  else
    match (hex8 bytes (off + 4), hex8 bytes (off + 13)) with
    | None, _ -> Error "bad length field"
    | _, None -> Error "bad crc field"
    | Some len, Some crc ->
        if bytes.[off + 12] <> ' ' || bytes.[off + 21] <> '\n' then
          Error "malformed header"
        else if off + header_len + len + 1 > n then Error "truncated payload"
        else if bytes.[off + header_len + len] <> '\n' then
          Error "missing record terminator"
        else
          let payload = String.sub bytes (off + header_len) len in
          if crc32 (String.sub bytes (off + 4) 8 ^ payload) <> crc then
            Error "crc mismatch"
          else Ok (payload, off + header_len + len + 1)

(* Count frame headers visible in a dropped tail: the torn/corrupt
   record itself plus any complete frames stranded behind it. *)
let tail_records bytes from =
  let n = String.length bytes in
  let count = ref 0 in
  for i = from to n - 4 do
    if
      (i = from || bytes.[i - 1] = '\n')
      && String.sub bytes i 4 = magic
    then incr count
  done;
  if n > from then max 1 !count else 0

let scan bytes =
  let n = String.length bytes in
  let rec go off acc count =
    if off = n then (List.rev acc, off, count, None)
    else
      match parse_record bytes off with
      | Ok (payload, next) -> go next (payload :: acc) (count + 1)
      | Error reason -> (List.rev acc, off, count, Some reason)
  in
  let records, valid, count, reason = go 0 [] 0 in
  ( records,
    {
      rc_records = count;
      rc_valid_bytes = valid;
      rc_total_bytes = n;
      rc_dropped_bytes = n - valid;
      rc_dropped_records = tail_records bytes valid;
      rc_reason = reason;
    } )

(* ------------------------------------------------------------------ *)
(* File-level readers and writers.                                     *)

let read_file path =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | exception Sys_error msg -> Error msg
  | bytes -> Ok bytes

let read_journal path =
  match read_file path with
  | Error msg -> Error msg
  | Ok bytes ->
      let records, rc = scan bytes in
      Obs.Storage.note_recovered ~records:rc.rc_records
        ~dropped:rc.rc_dropped_records;
      Ok (records, rc)

let write_journal ~site ~path records =
  Obs.Storage.write_atomic ~site ~path
    (String.concat "" (List.map frame records))

(* ------------------------------------------------------------------ *)
(* Append writers.                                                     *)

type writer = { w_chan : Obs.Storage.chan }

let create_writer ~header_site ~append_site ~path ~initial =
  ignore (Obs.Storage.sweep_stale_tmp path);
  match write_journal ~site:header_site ~path initial with
  | Error e -> Error e
  | Ok () -> (
      match Obs.Storage.open_chan ~site:append_site ~append:true path with
      | Error e -> Error e
      | Ok chan -> Ok { w_chan = chan })

let append_record w payload = Obs.Storage.chan_write w.w_chan (frame payload)

let close_writer w = Obs.Storage.close_chan w.w_chan

(* ------------------------------------------------------------------ *)
(* fsck.                                                               *)

type format = V3 | Unknown

type fsck_report = {
  fk_path : string;
  fk_format : format;
  fk_recovery : recovery;
  fk_schema : string option;
  fk_fingerprint : string option;
  fk_entries : int;
  fk_clean : bool;
  fk_repaired : bool;
}

let format_name = function
  | V3 -> "v3 (CRC-framed)"
  | Unknown -> "unknown"

let jfield k = function J.Obj l -> List.assoc_opt k l | _ -> None
let jstring = function Some (J.String s) -> Some s | _ -> None

let fsck ?(repair = false) path =
  match read_file path with
  | Error msg -> Error msg
  | Ok bytes ->
      let n = String.length bytes in
      if n >= 4 && String.sub bytes 0 4 = magic then begin
        let records, rc = scan bytes in
        let schema, fingerprint =
          match records with
          | hdr :: _ -> (
              match J.of_string_opt hdr with
              | Some doc -> (jstring (jfield "schema" doc), jstring (jfield "fingerprint" doc))
              | None -> (None, None))
          | [] -> (None, None)
        in
        let is_clean = clean rc in
        let repaired =
          repair && (not is_clean)
          && Obs.Storage.write_atomic ~site:"fsck.repair" ~path
               (String.sub bytes 0 rc.rc_valid_bytes)
             = Ok ()
        in
        Ok
          {
            fk_path = path;
            fk_format = V3;
            fk_recovery = rc;
            fk_schema = schema;
            fk_fingerprint = fingerprint;
            fk_entries = max 0 (rc.rc_records - 1);
            fk_clean = is_clean;
            fk_repaired = repaired;
          }
      end
      else
        (* not framed: nothing in it is recoverable, so nothing is
           repaired either *)
        Ok
          {
            fk_path = path;
            fk_format = Unknown;
            fk_recovery =
              {
                rc_records = 0;
                rc_valid_bytes = 0;
                rc_total_bytes = n;
                rc_dropped_bytes = n;
                rc_dropped_records = 0;
                rc_reason = Some "not a journal";
              };
            fk_schema = None;
            fk_fingerprint = None;
            fk_entries = 0;
            fk_clean = false;
            fk_repaired = false;
          }

let fsck_json r =
  let rc = r.fk_recovery in
  J.Obj
    [
      ("schema", J.String "snowboard-fsck/1");
      ("path", J.String r.fk_path);
      ("format", J.String (format_name r.fk_format));
      ("journal_schema",
       match r.fk_schema with None -> J.Null | Some s -> J.String s);
      ("fingerprint",
       match r.fk_fingerprint with None -> J.Null | Some s -> J.String s);
      ("entries", J.Int r.fk_entries);
      ("records", J.Int rc.rc_records);
      ("valid_bytes", J.Int rc.rc_valid_bytes);
      ("total_bytes", J.Int rc.rc_total_bytes);
      ("dropped_bytes", J.Int rc.rc_dropped_bytes);
      ("dropped_records", J.Int rc.rc_dropped_records);
      ("stop_reason",
       match rc.rc_reason with None -> J.Null | Some s -> J.String s);
      ("clean", J.Bool r.fk_clean);
      ("repaired", J.Bool r.fk_repaired);
    ]

let pp_fsck ppf r =
  let rc = r.fk_recovery in
  Format.fprintf ppf "journal: %s  (%s)@," r.fk_path (format_name r.fk_format);
  (match r.fk_schema with
  | Some s -> Format.fprintf ppf "  schema: %s@," s
  | None -> Format.fprintf ppf "  schema: <unreadable>@,");
  (match r.fk_fingerprint with
  | Some f -> Format.fprintf ppf "  fingerprint: %s@," f
  | None -> ());
  Format.fprintf ppf
    "  records: %d recovered (%d campaign entries), %d bytes valid of %d@,"
    rc.rc_records r.fk_entries rc.rc_valid_bytes rc.rc_total_bytes;
  if rc.rc_dropped_bytes > 0 then
    Format.fprintf ppf "  dropped tail: %d bytes, %d record(s)%s@,"
      rc.rc_dropped_bytes rc.rc_dropped_records
      (match rc.rc_reason with
      | Some why -> Printf.sprintf " (%s)" why
      | None -> "");
  Format.fprintf ppf "  status: %s%s"
    (if r.fk_clean then "CLEAN" else "CORRUPT")
    (if r.fk_repaired then " -> repaired (truncated to the valid prefix)"
     else "")
