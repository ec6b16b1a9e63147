(* Campaign checkpoint/resume (see checkpoint.mli).

   Since v3 the journal is a CRC-framed record log (Durable.frame): one
   header record naming the schema and fingerprint, then one record per
   completed test, each appended with an fsync.  A crash tears at most
   the final frame, and the Durable reader recovers the longest valid
   prefix from arbitrary truncation or bit corruption without ever
   raising — resuming from the recovered prefix reproduces the
   uninterrupted campaign byte-for-byte.  A file that is not framed
   (such as a pre-v3 whole-document JSON journal) has no recoverable
   header and is refused. *)

module J = Obs.Export
module Prog = Fuzzer.Prog

let schema = "snowboard/checkpoint/v3"

(* crashpoint names of the journal's two durable write sites *)
let site_header = "checkpoint.header"
let site_append = "checkpoint.append"

type entry = { ck_method : string; ck_result : Pipeline.test_result }

type file = { ck_fingerprint : string; ck_entries : entry list }

(* Everything that shapes the plan and the per-test seeds.  The kernel
   configuration is a record of feature booleans with no name of its
   own, so a digest of its marshalled bytes stands in; the seed corpus
   is digested line by line.  Both digests cover the whole value, where
   [Hashtbl.hash] would look at its first ten fields or programs only. *)
let fingerprint ~(cfg : Pipeline.config) ~budget ~methods ?(extra = "") () =
  let digest s = Digest.to_hex (Digest.string s) in
  Printf.sprintf
    "kernel=%s seed=%d fuzz_iters=%d trials=%d seed_corpus=%s budget=%d \
     methods=%s extra=%s"
    (digest (Marshal.to_string cfg.Pipeline.kernel []))
    cfg.Pipeline.seed cfg.Pipeline.fuzz_iters cfg.Pipeline.trials_per_test
    (digest
       (String.concat "\n" (List.map Prog.to_line cfg.Pipeline.seed_corpus)))
    budget
    (String.concat "," methods)
    extra

(* ------------------------------------------------------------------ *)
(* Serialization.                                                      *)

let json_of_outcome = function
  | Supervise.Ok -> [ ("outcome", J.String "ok") ]
  | Supervise.Timed_out steps ->
      [ ("outcome", J.String "timeout"); ("at_step", J.Int steps) ]
  | Supervise.Crashed detail ->
      [ ("outcome", J.String "crashed"); ("detail", J.String detail) ]
  | Supervise.Quarantined detail ->
      [ ("outcome", J.String "quarantined"); ("detail", J.String detail) ]

let json_of_entry e =
  let r = e.ck_result in
  J.Obj
    ([ ("method", J.String e.ck_method); ("index", J.Int r.Pipeline.tr_index) ]
    @ json_of_outcome r.Pipeline.tr_outcome
    @ [
        ("hinted", J.Bool r.Pipeline.tr_hinted);
        ("retries", J.Int r.Pipeline.tr_retries);
        ("exercised", J.Bool r.Pipeline.tr_exercised);
        ("pmc_observed", J.Bool r.Pipeline.tr_pmc_observed);
        ("issues", J.List (List.map (fun i -> J.Int i) r.Pipeline.tr_issues));
        ("unknown", J.Int r.Pipeline.tr_unknown);
        ("trials", J.Int r.Pipeline.tr_trials);
        ("steps", J.Int r.Pipeline.tr_steps);
        ("hint_hits", J.Int r.Pipeline.tr_hint_hits);
        ("miss_no_write", J.Int r.Pipeline.tr_miss_no_write);
        ("miss_no_read", J.Int r.Pipeline.tr_miss_no_read);
        ("miss_value", J.Int r.Pipeline.tr_miss_value);
        ( "prof",
          J.List
            (List.map
               (fun (fn, instr, shared) ->
                 J.List [ J.String fn; J.Int instr; J.Int shared ])
               r.Pipeline.tr_prof) );
        ( "bug",
          match r.Pipeline.tr_bug with
          | None -> J.Null
          | Some b -> Report.json_of_bug b );
      ])

(* v3 record payloads: the header line, then one compact line per entry *)
let header_payload fingerprint =
  J.to_line
    (J.Obj
       [ ("schema", J.String schema); ("fingerprint", J.String fingerprint) ])

let entry_payload e = J.to_line (json_of_entry e)

(* ------------------------------------------------------------------ *)
(* Parsing.  Small total accessors over the Export JSON type; any shape
   violation bubbles up as a descriptive [Error]. *)

exception Bad of string

let bad fmt = Printf.ksprintf (fun s -> raise (Bad s)) fmt

let field obj name =
  match obj with
  | J.Obj fields -> List.assoc_opt name fields
  | _ -> None

let get_field obj name =
  match field obj name with
  | Some v -> v
  | None -> bad "missing field %S" name

let to_int name = function J.Int i -> i | _ -> bad "field %S: expected int" name
let to_bool name = function J.Bool b -> b | _ -> bad "field %S: expected bool" name

let to_string_ name = function
  | J.String s -> s
  | _ -> bad "field %S: expected string" name

let to_list name = function
  | J.List l -> l
  | _ -> bad "field %S: expected list" name

let int_field o n = to_int n (get_field o n)
let bool_field o n = to_bool n (get_field o n)
let string_field o n = to_string_ n (get_field o n)

let outcome_of_json o =
  match string_field o "outcome" with
  | "ok" -> Supervise.Ok
  | "timeout" -> Supervise.Timed_out (int_field o "at_step")
  | "crashed" -> Supervise.Crashed (string_field o "detail")
  | "quarantined" -> Supervise.Quarantined (string_field o "detail")
  | other -> bad "unknown outcome %S" other

let prog_of_field o name =
  let line = string_field o name in
  match Prog.of_line line with
  | Some p -> p
  | None -> bad "field %S: malformed program %S" name line

let prof_row_of_json = function
  | J.List [ J.String fn; J.Int instr; J.Int shared ] -> (fn, instr, shared)
  | _ -> bad "field \"prof\": expected [function, instr, shared] rows"

let bug_of_json o =
  {
    Pipeline.br_issues =
      List.map (to_int "issues") (to_list "issues" (get_field o "issues"));
    br_test = int_field o "test";
    br_trial = int_field o "trial";
    br_writer = prog_of_field o "writer";
    br_reader = prog_of_field o "reader";
    br_replay = string_field o "replay";
  }

let entry_of_json o =
  let result =
    {
      Pipeline.tr_index = int_field o "index";
      tr_hinted = bool_field o "hinted";
      tr_outcome = outcome_of_json o;
      tr_retries = int_field o "retries";
      tr_exercised = bool_field o "exercised";
      tr_pmc_observed = bool_field o "pmc_observed";
      tr_issues =
        List.map (to_int "issues") (to_list "issues" (get_field o "issues"));
      tr_unknown = int_field o "unknown";
      tr_trials = int_field o "trials";
      tr_steps = int_field o "steps";
      tr_hint_hits = int_field o "hint_hits";
      tr_miss_no_write = int_field o "miss_no_write";
      tr_miss_no_read = int_field o "miss_no_read";
      tr_miss_value = int_field o "miss_value";
      tr_prof =
        List.map prof_row_of_json (to_list "prof" (get_field o "prof"));
      tr_bug =
        (match get_field o "bug" with
        | J.Null -> None
        | b -> Some (bug_of_json b));
    }
  in
  { ck_method = string_field o "method"; ck_result = result }

(* ------------------------------------------------------------------ *)
(* File I/O.  [save] atomically replaces the whole journal with framed
   v3 records; [load] recovers the longest valid prefix of a v3
   journal (total over corruption). *)

let records_of_file f =
  header_payload f.ck_fingerprint :: List.map entry_payload f.ck_entries

let save path f =
  match Durable.write_journal ~site:site_header ~path (records_of_file f) with
  | Ok () -> ()
  | Error e -> raise (Sys_error (Obs.Storage.err_to_string e))

(* Decode the recovered v3 record payloads.  The header must be intact:
   a journal whose first record cannot be recovered identifies nothing,
   so it is an [Error] (a torn header, or a file that is not framed at
   all).  Entry records that fail shape-parsing end the valid prefix
   there, in the same never-raise spirit as the frame scanner. *)
let file_of_records records recovery =
  match records with
  | [] ->
      Error
        (match recovery.Durable.rc_reason with
        | Some why -> Printf.sprintf "no recoverable journal header (%s)" why
        | None -> "empty journal")
  | hdr :: rest -> (
      match J.of_string_opt hdr with
      | None -> Error "journal header is not JSON"
      | Some j -> (
          match
            let s = string_field j "schema" in
            if s <> schema then bad "unsupported checkpoint schema %S" s;
            string_field j "fingerprint"
          with
          | exception Bad msg -> Error msg
          | fingerprint ->
              let rec take acc dropped = function
                | [] -> (List.rev acc, dropped)
                | payload :: tl -> (
                    match
                      Option.map entry_of_json (J.of_string_opt payload)
                    with
                    | Some e -> take (e :: acc) dropped tl
                    | None | (exception Bad _) ->
                        (* stop at the first undecodable entry; it and
                           everything after it count as dropped *)
                        (List.rev acc, dropped + 1 + List.length tl))
              in
              let entries, extra_dropped = take [] 0 rest in
              Ok
                ( { ck_fingerprint = fingerprint; ck_entries = entries },
                  {
                    recovery with
                    Durable.rc_records = 1 + List.length entries;
                    rc_dropped_records =
                      recovery.Durable.rc_dropped_records + extra_dropped;
                  } )))

let load path =
  match Durable.read_journal path with
  | Error msg -> Error msg
  | Ok (records, recovery) -> (
      match file_of_records records recovery with
      | Ok _ as ok -> ok
      | Error msg -> Error (Printf.sprintf "%s: %s" path msg))

let lookup entries ~method_ index =
  List.find_map
    (fun e ->
      if e.ck_method = method_ && e.ck_result.Pipeline.tr_index = index then
        Some e.ck_result
      else None)
    entries

(* ------------------------------------------------------------------ *)
(* Live journal.  The sink writes the base image (header + any resumed
   entries) atomically once, then appends one fsynced frame per
   completed test: O(1) work per record instead of rewriting the world,
   and a crash tears at most the final frame.  Storage failures degrade
   the sink (the campaign keeps running with in-memory entries and the
   storage layer has recorded the degradation) rather than raising. *)

type sink = {
  mutable sk_writer : Durable.writer option;  (* None once degraded *)
  mutable sk_entries : entry list;  (* reversed *)
  sk_mutex : Mutex.t;
}

let create_sink ~path ~fingerprint ~initial =
  let writer =
    match
      Durable.create_writer ~header_site:site_header ~append_site:site_append
        ~path
        ~initial:
          (header_payload fingerprint :: List.map entry_payload initial)
    with
    | Ok w -> Some w
    | Error _ -> None (* degradation recorded by the storage layer *)
  in
  { sk_writer = writer; sk_entries = List.rev initial; sk_mutex = Mutex.create () }

let record sink ~method_ result =
  Mutex.lock sink.sk_mutex;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock sink.sk_mutex)
    (fun () ->
      let e = { ck_method = method_; ck_result = result } in
      sink.sk_entries <- e :: sink.sk_entries;
      match sink.sk_writer with
      | None -> ()
      | Some w -> (
          match Durable.append_record w (entry_payload e) with
          | Ok () -> ()
          | Error _ ->
              Durable.close_writer w;
              sink.sk_writer <- None))

let entries sink =
  Mutex.lock sink.sk_mutex;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock sink.sk_mutex)
    (fun () -> List.rev sink.sk_entries)
