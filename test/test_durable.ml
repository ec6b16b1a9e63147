(* The crash-consistent storage layer: CRC framing, total recovery from
   arbitrary truncation and bit corruption, atomic artifact writes with
   typed ENOSPC/EIO errors and bounded retry, the deterministic
   crashpoint harness, and fsck.

   The flagship property at the bottom: for ANY journal, ANY truncation
   offset and ANY single bit-flip, the v3 reader returns the longest
   valid record prefix without raising, and a resume from the recovered
   prefix is prefix-consistent with the uninterrupted journal. *)

module Storage = Obs.Storage
module Durable = Harness.Durable
module Pipeline = Harness.Pipeline
module Supervise = Harness.Supervise
module Checkpoint = Harness.Checkpoint

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checks = Alcotest.(check string)

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

let write_raw path bytes =
  let oc = open_out_bin path in
  output_string oc bytes;
  close_out oc

let read_raw path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* every test leaves the global crashpoint/injector state clean *)
let pristine f () =
  Fun.protect
    ~finally:(fun () ->
      Storage.disarm_crash ();
      Storage.set_fault_injector None;
      Storage.reset_degraded ())
    f

(* ---------------- CRC and framing ---------------- *)

let test_crc32_vectors () =
  checki "check vector" 0xcbf43926 (Durable.crc32 "123456789");
  checki "empty" 0 (Durable.crc32 "");
  checkb "sensitive to one bit" false
    (Durable.crc32 "123456789" = Durable.crc32 "123456788")

let test_frame_roundtrip () =
  let payloads =
    [
      "";
      "x";
      "{\"a\": 1}";
      "payload with\nnewlines\nand \"quotes\"";
      "SB3 deadbeef cafebabe\nlooks like a frame header";
      String.make 3000 'z';
    ]
  in
  let bytes = String.concat "" (List.map Durable.frame payloads) in
  let records, rc = Durable.scan bytes in
  checkb "round-trip" true (records = payloads);
  checkb "clean" true (Durable.clean rc);
  checki "records counted" (List.length payloads) rc.Durable.rc_records;
  checki "all bytes valid" (String.length bytes) rc.Durable.rc_valid_bytes;
  checki "nothing dropped" 0 rc.Durable.rc_dropped_records;
  List.iter
    (fun p ->
      checki "frame overhead" (String.length p + Durable.frame_overhead)
        (String.length (Durable.frame p)))
    payloads

let sample_records =
  [ "alpha"; "{\"k\": [1,2,3]}"; ""; String.make 200 'q'; "omega\nend" ]

let sample_bytes = lazy (String.concat "" (List.map Durable.frame sample_records))

let is_prefix_of full recs =
  let rec go a b =
    match (a, b) with
    | [], _ -> true
    | x :: a', y :: b' -> x = y && go a' b'
    | _ :: _, [] -> false
  in
  go recs full

let test_truncation_every_offset () =
  let bytes = Lazy.force sample_bytes in
  for cut = 0 to String.length bytes do
    let recs, rc = Durable.scan (String.sub bytes 0 cut) in
    checkb "valid prefix" true (is_prefix_of sample_records recs);
    checkb "valid bytes within cut" true (rc.Durable.rc_valid_bytes <= cut);
    checki "total is the input size" cut rc.Durable.rc_total_bytes;
    if cut < String.length bytes then
      checkb "short scan reports a tail or a clean boundary" true
        (rc.Durable.rc_dropped_bytes = cut - rc.Durable.rc_valid_bytes)
  done

let test_bitflip_every_byte () =
  let bytes = Lazy.force sample_bytes in
  for i = 0 to String.length bytes - 1 do
    for bit = 0 to 7 do
      let b = Bytes.of_string bytes in
      Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl bit)));
      let recs, _ = Durable.scan (Bytes.to_string b) in
      (* CRC-32 detects every single-bit error, so no corrupted record
         can survive: the result is always a prefix of the original *)
      checkb "bit flip yields a valid prefix" true
        (is_prefix_of sample_records recs)
    done
  done

let test_scan_garbage () =
  List.iter
    (fun junk ->
      let recs, rc = Durable.scan junk in
      checkb "no records from junk" true (recs = []);
      checkb "junk is all dropped" true
        (rc.Durable.rc_dropped_bytes = String.length junk))
    [ "not a journal"; "SB3 "; "SB3 zzzzzzzz zzzzzzzz\n"; String.make 50 '\000' ]

(* ---------------- atomic writes, retry, degradation ---------------- *)

let test_write_atomic () =
  pristine (fun () ->
      let path = Filename.temp_file "snowboard_durable" ".out" in
      (match Storage.write_atomic ~site:"t.atomic" ~path "hello" with
      | Ok () -> ()
      | Error e -> Alcotest.failf "write failed: %s" (Storage.err_to_string e));
      checks "content" "hello" (read_raw path);
      (* no temp residue after a clean write *)
      let dir = Filename.dirname path and base = Filename.basename path in
      Array.iter
        (fun n ->
          checkb "no stale tmp" false
            (String.length n > String.length base
            && String.sub n 0 (String.length base) = base))
        (Sys.readdir dir);
      Sys.remove path)
    ()

let test_injected_enospc_degrades () =
  pristine (fun () ->
      Storage.set_fault_injector
        (Some (fun ~site:_ ~attempt:_ -> Some Storage.Enospc));
      let path = Filename.temp_file "snowboard_durable" ".out" in
      write_raw path "old";
      (match Storage.write_atomic ~site:"t.enospc" ~path "new" with
      | Error Storage.Enospc -> ()
      | Error e -> Alcotest.failf "wrong error: %s" (Storage.err_to_string e)
      | Ok () -> Alcotest.fail "injected ENOSPC must fail");
      checks "destination untouched" "old" (read_raw path);
      (match Storage.degraded () with
      | [ ("t.enospc", Storage.Enospc) ] -> ()
      | l -> Alcotest.failf "degradation list has %d entries" (List.length l));
      Sys.remove path)
    ()

let test_injected_transient_retries () =
  pristine (fun () ->
      (* fail the first two attempts only: bounded retry must succeed on
         the third and record no degradation *)
      let calls = ref 0 in
      Storage.set_fault_injector
        (Some
           (fun ~site:_ ~attempt ->
             incr calls;
             if attempt < Storage.max_attempts then Some Storage.Eio else None));
      let path = Filename.temp_file "snowboard_durable" ".out" in
      (match Storage.write_atomic ~site:"t.transient" ~path "v" with
      | Ok () -> ()
      | Error e ->
          Alcotest.failf "retries should succeed: %s" (Storage.err_to_string e));
      checks "written on the final attempt" "v" (read_raw path);
      checki "injector consulted once per attempt" Storage.max_attempts !calls;
      checkb "no degradation" true (Storage.degraded () = []);
      Sys.remove path)
    ()

let test_sweep_stale_tmp () =
  let path = Filename.temp_file "snowboard_durable" ".ck" in
  let stale = path ^ ".4242.7.tmp" in
  write_raw stale "torn temp from a dead writer";
  checki "swept" 1 (Storage.sweep_stale_tmp path);
  checkb "gone" false (Sys.file_exists stale);
  checki "idempotent" 0 (Storage.sweep_stale_tmp path);
  Sys.remove path

(* ---------------- crashpoints ---------------- *)

let test_crash_spec_parse () =
  (match Storage.parse_crash_spec "checkpoint.append:3" with
  | Ok ("checkpoint.append", 3) -> ()
  | _ -> Alcotest.fail "site:k should parse");
  List.iter
    (fun bad ->
      match Storage.parse_crash_spec bad with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "%S should be rejected" bad)
    [ ""; "nosite"; ":3"; "site:"; "site:0"; "site:-1"; "site:x" ]

let test_crashpoint_tears_append () =
  pristine (fun () ->
      let path = Filename.temp_file "snowboard_durable" ".ck" in
      let w =
        match
          Durable.create_writer ~header_site:"t.header" ~append_site:"t.append"
            ~path ~initial:[ "header" ]
        with
        | Ok w -> w
        | Error e -> Alcotest.failf "create: %s" (Storage.err_to_string e)
      in
      (match Durable.append_record w "first" with
      | Ok () -> ()
      | Error e -> Alcotest.failf "append: %s" (Storage.err_to_string e));
      Storage.arm_crash ~mode:Storage.Raise ~site:"t.append" ~k:1 ();
      (match Durable.append_record w "second" with
      | exception Storage.Crash_simulated site -> checks "site named" "t.append" site
      | Ok () -> Alcotest.fail "armed crashpoint must fire"
      | Error e -> Alcotest.failf "expected crash, got %s" (Storage.err_to_string e));
      Durable.close_writer w;
      (* the file now holds two whole frames plus a torn half-frame; the
         scanner recovers exactly the whole ones *)
      let recs, rc = Durable.scan (read_raw path) in
      checkb "recovered the durable prefix" true (recs = [ "header"; "first" ]);
      checkb "torn tail detected" false (Durable.clean rc);
      checki "one torn record" 1 rc.Durable.rc_dropped_records;
      Sys.remove path)
    ()

let test_crashpoint_any_counts_all_sites () =
  pristine (fun () ->
      Storage.arm_crash ~mode:Storage.Raise ~site:"any" ~k:3 ();
      let p1 = Filename.temp_file "snowboard_durable" ".a" in
      let p2 = Filename.temp_file "snowboard_durable" ".b" in
      let ok site path =
        match Storage.write_atomic ~site ~path "x" with
        | Ok () -> ()
        | Error e -> Alcotest.failf "write: %s" (Storage.err_to_string e)
      in
      ok "t.any1" p1;
      ok "t.any2" p2;
      (match Storage.write_atomic ~site:"t.any3" ~path:p1 "y" with
      | exception Storage.Crash_simulated _ -> ()
      | _ -> Alcotest.fail "third durable write overall must crash");
      Sys.remove p1;
      Sys.remove p2)
    ()

let test_seeded_plan_deterministic () =
  pristine (fun () ->
      (* the seeded plan must be a pure function of the seed; observe it
         by counting how many writes happen before the crash fires *)
      let fires seed =
        Storage.arm_crash_seeded ~mode:Storage.Raise ~seed ();
        let path = Filename.temp_file "snowboard_durable" ".s" in
        let n = ref 0 in
        (try
           for _ = 1 to 64 do
             match Storage.write_atomic ~site:"t.seeded" ~path "x" with
             | Ok () -> incr n
             | Error _ -> ()
           done
         with Storage.Crash_simulated _ -> ());
        Storage.disarm_crash ();
        Sys.remove path;
        !n
      in
      checki "same seed, same placement" (fires 11) (fires 11);
      checkb "fires within the first few dozen writes" true (fires 5 < 64))
    ()

(* ---------------- checkpoint v3 + recovery ---------------- *)

let sample_result ~index ~outcome =
  {
    Pipeline.tr_index = index;
    tr_hinted = index mod 2 = 0;
    tr_outcome = outcome;
    tr_retries = index mod 3;
    tr_exercised = true;
    tr_pmc_observed = false;
    tr_issues = [ 13 ];
    tr_unknown = 0;
    tr_trials = 4;
    tr_steps = 900 + index;
    tr_hint_hits = index;
    tr_miss_no_write = 0;
    tr_miss_no_read = 1;
    tr_miss_value = 0;
    tr_prof = [ ("poll_wait", 10 + index, 2) ];
    tr_bug = None;
  }

let sample_entries n =
  List.init n (fun i ->
      {
        Checkpoint.ck_method = (if i mod 2 = 0 then "S-INS" else "S-MEM");
        ck_result = sample_result ~index:(i + 1) ~outcome:Supervise.Ok;
      })

let test_checkpoint_recovers_torn_tail () =
  let path = Filename.temp_file "snowboard_durable" ".ck" in
  let entries = sample_entries 6 in
  Checkpoint.save path { Checkpoint.ck_fingerprint = "fp-t"; ck_entries = entries };
  let whole = read_raw path in
  (* tear mid-way through the final frame, as a power loss would *)
  write_raw path (String.sub whole 0 (String.length whole - 12));
  (match Checkpoint.load path with
  | Error msg -> Alcotest.failf "recovery must not error: %s" msg
  | Ok (f, rc) ->
      checks "fingerprint survives" "fp-t" f.Checkpoint.ck_fingerprint;
      checki "one entry lost" 5 (List.length f.Checkpoint.ck_entries);
      checkb "recovered prefix in order" true
        (List.map (fun e -> e.Checkpoint.ck_result.Pipeline.tr_index)
           f.Checkpoint.ck_entries
        = [ 1; 2; 3; 4; 5 ]);
      checkb "drop reported" true (rc.Durable.rc_dropped_records >= 1));
  Sys.remove path

(* a whole-document JSON journal of the v2 format, as written before
   the framed v3 journal replaced it *)
let v2_document =
  "{\"schema\": \"snowboard/checkpoint/v2\", \"fingerprint\": \"fp-legacy\", \
   \"entries\": []}"

let test_checkpoint_v2_refused () =
  let path = Filename.temp_file "snowboard_durable" ".ck" in
  write_raw path v2_document;
  (match Checkpoint.load path with
  | Error msg ->
      checkb "names the file" true (contains ~sub:path msg);
      checkb "no journal header" true (contains ~sub:"bad magic" msg)
  | Ok _ -> Alcotest.fail "a v2 document must be refused");
  Sys.remove path

let test_checkpoint_wrong_framed_schema () =
  let path = Filename.temp_file "snowboard_durable" ".ck" in
  write_raw path (Durable.frame "{\"schema\": \"other/v9\", \"fingerprint\": \"x\"}");
  (match Checkpoint.load path with
  | Error msg -> checkb "names the schema" true (contains ~sub:"schema" msg)
  | Ok _ -> Alcotest.fail "foreign framed schema must be an error");
  Sys.remove path

let test_sink_append_only_grows () =
  (* the sink must append, not rewrite: earlier bytes never change *)
  let path = Filename.temp_file "snowboard_durable" ".ck" in
  let sink = Checkpoint.create_sink ~path ~fingerprint:"fp-a" ~initial:[] in
  Checkpoint.record sink ~method_:"S-INS"
    (sample_result ~index:1 ~outcome:Supervise.Ok);
  let after_one = read_raw path in
  Checkpoint.record sink ~method_:"S-INS"
    (sample_result ~index:2 ~outcome:(Supervise.Timed_out 9));
  let after_two = read_raw path in
  checkb "append-only" true
    (String.length after_two > String.length after_one
    && String.sub after_two 0 (String.length after_one) = after_one);
  (match Checkpoint.load path with
  | Ok (f, _) -> checki "both records" 2 (List.length f.Checkpoint.ck_entries)
  | Error msg -> Alcotest.failf "load: %s" msg);
  Sys.remove path

let test_sink_degrades_on_storage_failure () =
  pristine (fun () ->
      let path = Filename.temp_file "snowboard_durable" ".ck" in
      let sink = Checkpoint.create_sink ~path ~fingerprint:"fp-d" ~initial:[] in
      let before = read_raw path in
      Storage.set_fault_injector
        (Some (fun ~site:_ ~attempt:_ -> Some Storage.Enospc));
      (* never raises: the campaign must keep running on a full disk *)
      Checkpoint.record sink ~method_:"S-INS"
        (sample_result ~index:1 ~outcome:Supervise.Ok);
      Storage.set_fault_injector None;
      checkb "degradation recorded" true (Storage.degraded () <> []);
      checks "journal bytes untouched" before (read_raw path);
      (* in-memory accumulation continues after degrading *)
      Checkpoint.record sink ~method_:"S-INS"
        (sample_result ~index:2 ~outcome:Supervise.Ok);
      checki "entries kept in memory" 2 (List.length (Checkpoint.entries sink));
      Sys.remove path)
    ()

(* ---------------- fsck ---------------- *)

let test_fsck_clean_and_repair () =
  let path = Filename.temp_file "snowboard_durable" ".ck" in
  Checkpoint.save path
    { Checkpoint.ck_fingerprint = "fp-f"; ck_entries = sample_entries 4 };
  (match Durable.fsck path with
  | Ok r ->
      checkb "clean" true r.Durable.fk_clean;
      checkb "v3" true (r.Durable.fk_format = Durable.V3);
      checki "entries" 4 r.Durable.fk_entries;
      checkb "schema read" true
        (r.Durable.fk_schema = Some "snowboard/checkpoint/v3")
  | Error msg -> Alcotest.failf "fsck: %s" msg);
  let whole = read_raw path in
  write_raw path (String.sub whole 0 (String.length whole - 30));
  (match Durable.fsck path with
  | Ok r -> checkb "corrupt detected" false r.Durable.fk_clean
  | Error msg -> Alcotest.failf "fsck: %s" msg);
  (match Durable.fsck ~repair:true path with
  | Ok r -> checkb "repaired" true r.Durable.fk_repaired
  | Error msg -> Alcotest.failf "fsck repair: %s" msg);
  (match Durable.fsck path with
  | Ok r ->
      checkb "clean after repair" true r.Durable.fk_clean;
      checki "entries after repair" 3 r.Durable.fk_entries
  | Error msg -> Alcotest.failf "fsck: %s" msg);
  (* the repaired journal loads as the recovered prefix *)
  (match Checkpoint.load path with
  | Ok (f, _) ->
      checki "loadable prefix" 3 (List.length f.Checkpoint.ck_entries)
  | Error msg -> Alcotest.failf "load after repair: %s" msg);
  Sys.remove path

let test_fsck_legacy_and_junk () =
  let path = Filename.temp_file "snowboard_durable" ".ck" in
  List.iter
    (fun (what, bytes) ->
      write_raw path bytes;
      List.iter
        (fun repair ->
          match Durable.fsck ~repair path with
          | Ok r ->
              checkb (what ^ " flagged") true
                (r.Durable.fk_format = Durable.Unknown);
              checkb (what ^ " not clean") false r.Durable.fk_clean;
              checkb (what ^ " not repaired") false r.Durable.fk_repaired;
              checks (what ^ " bytes untouched") bytes (read_raw path)
          | Error msg -> Alcotest.failf "fsck: %s" msg)
        [ false; true ])
    [ ("v2 document", v2_document); ("junk", "complete nonsense") ];
  Sys.remove path;
  match Durable.fsck path with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "missing file must be an fsck error"

(* ---------------- qcheck: totality and prefix recovery ---------------- *)

let payload_gen =
  QCheck.Gen.(
    string_size ~gen:(map Char.chr (int_range 32 126)) (int_range 0 40))

let journal_gen = QCheck.Gen.(list_size (int_range 1 8) payload_gen)

let prop_truncate_and_flip_total =
  QCheck.Test.make ~name:"scan is total and prefix-exact under corruption"
    ~count:200
    QCheck.(
      make
        Gen.(
          let* recs = journal_gen in
          let* cut = int_range 0 10_000 in
          let* flip_at = int_range 0 10_000 in
          let* flip_bit = int_range 0 7 in
          return (recs, cut, flip_at, flip_bit)))
    (fun (recs, cut, flip_at, flip_bit) ->
      let bytes = String.concat "" (List.map Durable.frame recs) in
      let cut = cut mod (String.length bytes + 1) in
      let truncated = String.sub bytes 0 cut in
      let corrupted =
        if cut = 0 then truncated
        else begin
          let b = Bytes.of_string truncated in
          let i = flip_at mod cut in
          Bytes.set b i
            (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl flip_bit)));
          Bytes.to_string b
        end
      in
      let got, rc = Durable.scan corrupted in
      let rec prefix a b =
        match (a, b) with
        | [], _ -> true
        | x :: a', y :: b' -> x = y && prefix a' b'
        | _ :: _, [] -> false
      in
      prefix got recs
      && rc.Durable.rc_valid_bytes <= String.length corrupted
      && rc.Durable.rc_valid_bytes + rc.Durable.rc_dropped_bytes
         = String.length corrupted)

let prop_checkpoint_recovery_prefix_consistent =
  QCheck.Test.make
    ~name:"checkpoint recovery is resume-prefix-consistent" ~count:60
    QCheck.(
      make Gen.(pair (int_range 1 8) (int_range 0 10_000)))
    (fun (n, cut) ->
      let path = Filename.temp_file "snowboard_durable" ".q" in
      Fun.protect
        ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
        (fun () ->
          let entries = sample_entries n in
          Checkpoint.save path
            { Checkpoint.ck_fingerprint = "fp-q"; ck_entries = entries };
          let whole = read_raw path in
          let cut = cut mod (String.length whole + 1) in
          write_raw path (String.sub whole 0 cut);
          match Checkpoint.load path with
          | Error _ ->
              (* only acceptable when even the header record is gone *)
              let recs, _ = Durable.scan (String.sub whole 0 cut) in
              recs = []
          | Ok (f, _) ->
              (* the recovered entries are exactly a prefix of what was
                 journaled: resuming re-runs the tail and nothing else *)
              f.Checkpoint.ck_fingerprint = "fp-q"
              && List.length f.Checkpoint.ck_entries <= n
              && f.Checkpoint.ck_entries
                 = List.filteri
                     (fun i _ -> i < List.length f.Checkpoint.ck_entries)
                     entries))

(* ---------------- driver ---------------- *)

let tests =
  [
    Alcotest.test_case "crc32 vectors" `Quick test_crc32_vectors;
    Alcotest.test_case "frame round-trip" `Quick test_frame_roundtrip;
    Alcotest.test_case "truncation at every offset" `Quick
      test_truncation_every_offset;
    Alcotest.test_case "bit flip at every byte" `Slow test_bitflip_every_byte;
    Alcotest.test_case "garbage input" `Quick test_scan_garbage;
    Alcotest.test_case "atomic write" `Quick test_write_atomic;
    Alcotest.test_case "injected ENOSPC degrades" `Quick
      test_injected_enospc_degrades;
    Alcotest.test_case "transient faults are retried" `Quick
      test_injected_transient_retries;
    Alcotest.test_case "stale tmp sweep" `Quick test_sweep_stale_tmp;
    Alcotest.test_case "crash spec parsing" `Quick test_crash_spec_parse;
    Alcotest.test_case "crashpoint tears the append" `Quick
      test_crashpoint_tears_append;
    Alcotest.test_case "any-site crash plan" `Quick
      test_crashpoint_any_counts_all_sites;
    Alcotest.test_case "seeded crash plan is deterministic" `Quick
      test_seeded_plan_deterministic;
    Alcotest.test_case "checkpoint recovers a torn tail" `Quick
      test_checkpoint_recovers_torn_tail;
    Alcotest.test_case "checkpoint v2 refused" `Quick test_checkpoint_v2_refused;
    Alcotest.test_case "wrong framed schema" `Quick
      test_checkpoint_wrong_framed_schema;
    Alcotest.test_case "sink is append-only" `Quick test_sink_append_only_grows;
    Alcotest.test_case "sink degrades without raising" `Quick
      test_sink_degrades_on_storage_failure;
    Alcotest.test_case "fsck clean/corrupt/repair" `Quick
      test_fsck_clean_and_repair;
    Alcotest.test_case "fsck legacy and junk" `Quick test_fsck_legacy_and_junk;
    QCheck_alcotest.to_alcotest prop_truncate_and_flip_total;
    QCheck_alcotest.to_alcotest prop_checkpoint_recovery_prefix_consistent;
  ]

let () = Alcotest.run "durable" [ ("durable", tests) ]
