(* Tests for the sequential-test generator: programs must be well formed
   (resource references point backwards at producing calls or are small
   constants), mutation must preserve well-formedness, and the corpus
   must keep exactly the coverage-novel programs. *)

module P = Fuzzer.Prog
module Gen = Fuzzer.Gen
module Corpus = Fuzzer.Corpus
module Abi = Kernel.Abi

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let well_formed (p : P.t) =
  List.length p >= 1
  && List.length p <= P.max_calls
  && List.for_all
       (fun (c : P.call) -> c.P.nr >= 0 && c.P.nr < Abi.num_syscalls)
       p
  && List.for_all Fun.id
       (List.mapi
          (fun i (c : P.call) ->
            List.for_all
              (function
                | P.Res j -> j >= 0 && j < i
                | P.Const _ | P.Buf _ -> true)
              c.P.args)
          p)

let prop_generate_well_formed =
  QCheck.Test.make ~name:"generated programs well formed" ~count:500
    QCheck.small_int (fun seed ->
      well_formed (Gen.generate (Random.State.make [| seed |])))

let prop_mutate_well_formed =
  QCheck.Test.make ~name:"mutation preserves well-formedness" ~count:500
    QCheck.small_int (fun seed ->
      let rng = Random.State.make [| seed |] in
      let p = ref (Gen.generate rng) in
      let ok = ref true in
      for _ = 1 to 10 do
        p := Gen.mutate rng !p;
        ok := !ok && well_formed !p
      done;
      !ok)

let test_generate_deterministic () =
  let g seed = Gen.generate (Random.State.make [| seed |]) in
  checkb "same seed same program" true (P.equal (g 42) (g 42));
  checkb "hash consistent" true (P.hash (g 42) = P.hash (g 42))

let test_templates_cover_syscalls () =
  let nrs =
    List.sort_uniq compare (List.map (fun t -> t.Gen.nr) Gen.templates)
  in
  checki "every syscall has a template" Abi.num_syscalls (List.length nrs)

let test_resource_flow () =
  (* with many iterations, some program must consume an fd via Res *)
  let rng = Random.State.make [| 7 |] in
  let uses_res = ref false in
  for _ = 1 to 200 do
    let p = Gen.generate rng in
    if
      List.exists
        (fun (c : P.call) ->
          List.exists (function P.Res _ -> true | _ -> false) c.P.args)
        p
    then uses_res := true
  done;
  checkb "resources flow" true !uses_res

let test_corpus_novelty () =
  let c = Corpus.create () in
  let p1 = [ { P.nr = 0; args = [ P.Const 1 ] } ] in
  let p2 = [ { P.nr = 1; args = [ P.Const 1 ] } ] in
  let p3 = [ { P.nr = 2; args = [ P.Const 1 ] } ] in
  checkb "new edges kept" true (Corpus.consider c p1 ~edges:[ (1, 2); (2, 3) ] <> None);
  checkb "duplicate program dropped" true
    (Corpus.consider c p1 ~edges:[ (9, 9) ] = None);
  checkb "no new edges dropped" true (Corpus.consider c p2 ~edges:[ (1, 2) ] = None);
  checkb "fresh edge kept" true (Corpus.consider c p3 ~edges:[ (1, 2); (5, 6) ] <> None);
  checki "corpus size" 2 (Corpus.size c);
  checki "edge union" 3 (Corpus.total_edges c);
  (match Corpus.find c 0 with
  | Some e -> checkb "find returns program" true (P.equal e.Corpus.prog p1)
  | None -> Alcotest.fail "id 0 missing");
  checkb "unknown id" true (Corpus.find c 99 = None)

(* What [consider] counts and keeps: every listed edge absent before
   the call, repeats included; nothing from a rejected program; the
   distinct union as the total; and no packing of an edge whose pc does
   not fit the 24-bit key. *)
let test_corpus_consider_counts () =
  let c = Corpus.create () in
  let prog nr = [ { P.nr; args = [ P.Const 1 ] } ] in
  let new_edges id =
    match Corpus.find c id with
    | Some e -> e.Corpus.new_edges
    | None -> Alcotest.failf "id %d missing" id
  in
  checkb "kept" true
    (Corpus.consider c (prog 0) ~edges:[ (1, 2); (1, 2); (3, 4) ] = Some 0);
  checki "a repeat counts twice" 3 (new_edges 0);
  checki "the total is the distinct union" 2 (Corpus.total_edges c);
  (* a program already seen is rejected before its edges are read *)
  checkb "duplicate rejected" true
    (Corpus.consider c (prog 0) ~edges:[ (5, 6) ] = None);
  checkb "no covered edge new" true
    (Corpus.consider c (prog 1) ~edges:[ (3, 4); (1, 2) ] = None);
  checki "rejections insert nothing" 2 (Corpus.total_edges c);
  checkb "the duplicate's edge is still new" true
    (Corpus.consider c (prog 2) ~edges:[ (3, 4); (5, 6); (5, 6); (1, 2) ]
    = Some 1);
  checki "only absent edges count" 2 (new_edges 1);
  checki "union grows by the distinct new edge" 3 (Corpus.total_edges c);
  let max = Vmm.Vm.edge_pc_max in
  checkb "the widest key fits" true
    (Corpus.consider c (prog 3) ~edges:[ (max, max); (max, 0); (0, max) ]
    = Some 2);
  List.iter
    (fun e ->
      Alcotest.check_raises "a pc outside 24 bits"
        (Invalid_argument
           (Printf.sprintf "Vm.Edge_set: edge (%d, %d) outside 24 bits"
              (fst e) (snd e)))
        (fun () -> ignore (Corpus.consider c (prog 4) ~edges:[ (7, 8); e ])))
    [ (max + 1, 0); (0, max + 1); (-1, 0); (0, -1) ];
  checki "a raising offer changes nothing" 6 (Corpus.total_edges c);
  checki "nor the corpus" 3 (Corpus.size c);
  checkb "and leaves the program unseen" true
    (Corpus.consider c (prog 4) ~edges:[ (7, 8) ] = Some 3)

let test_pp () =
  let p =
    [
      { P.nr = Abi.sys_socket; args = [ P.Const 1; P.Const 0 ] };
      { P.nr = Abi.sys_connect; args = [ P.Res 0; P.Buf "ab" ] };
    ]
  in
  let s = P.to_string p in
  checkb "prints syscall names" true
    (Testutil.Astring_contains.contains s "socket" && Testutil.Astring_contains.contains s "connect")

let prop_line_roundtrip =
  QCheck.Test.make ~name:"to_line/of_line roundtrip" ~count:500
    QCheck.small_int (fun seed ->
      let p = Gen.generate (Random.State.make [| seed |]) in
      match P.of_line (P.to_line p) with
      | Some p' -> P.equal p p'
      | None -> false)

let test_of_line_rejects_garbage () =
  checkb "empty" true (P.of_line "" = None);
  checkb "bad nr" true (P.of_line "x c1" = None);
  checkb "bad arg" true (P.of_line "0 q1" = None);
  checkb "odd hex" true (P.of_line "0 babc" = None);
  checkb "non-hex" true (P.of_line "0 bzz" = None);
  (* a 70,000-byte buffer cannot fit the 64 KiB user segment *)
  checkb "oversized buffer" true
    (P.of_line ("9 c0 b" ^ String.make 140_000 '0') = None);
  checkb "valid parses" true (P.of_line "0 c1 c0|1 r0 c5" <> None)

(* The largest buffer argument 1 of call 0 can hold ends on the user
   segment's last byte: it parses, and the executor installs it. *)
let test_buffer_at_segment_end () =
  let seg_end = Vmm.Layout.user_base + Vmm.Layout.user_size in
  let len = seg_end - (P.buf_addr 0 + 16) in
  let line = "9 c0 b" ^ String.make ((2 * len) - 2) '0' ^ "5a" in
  checkb "one byte more is rejected" true (P.of_line (line ^ "00") = None);
  match P.of_line line with
  | None -> Alcotest.fail "a buffer ending at the segment end must parse"
  | Some p ->
      let env = Sched.Exec.make_env Kernel.Config.v5_12_rc3 in
      let r = Sched.Exec.run_seq env ~tid:0 p in
      checkb "ran without a panic" false r.Sched.Exec.sq_panicked;
      checki "last byte installed" 0x5a
        (Vmm.Vm.peek env.Sched.Exec.vm 0 (seg_end - 1) 1)

let test_corpus_save_load () =
  let c = Corpus.create () in
  let p1 = [ { P.nr = 0; args = [ P.Const 1; P.Buf "\x00\xff" ] } ] in
  let p2 = [ { P.nr = 12; args = [ P.Const 3 ] }; { P.nr = 13; args = [ P.Res 0; P.Const 1 ] } ] in
  ignore (Corpus.consider c p1 ~edges:[ (1, 2) ]);
  ignore (Corpus.consider c p2 ~edges:[ (3, 4) ]);
  let path = Filename.temp_file "corpus" ".txt" in
  checkb "saved" true (Corpus.save c path = Ok ());
  let progs =
    match Corpus.load_programs path with
    | Ok progs -> progs
    | Error msg -> Alcotest.fail msg
  in
  checki "all programs loaded" 2 (List.length progs);
  checkb "contents preserved" true
    (List.exists (P.equal p1) progs && List.exists (P.equal p2) progs);
  (* a garbage line fails the load and is named by its line number *)
  let oc = open_out_gen [ Open_append ] 0o644 path in
  output_string oc "\nnot a program\n";
  close_out oc;
  (match Corpus.load_programs path with
  | Error msg ->
      checkb "garbage line named" true
        (msg = Printf.sprintf "%s:4: not a program" path)
  | Ok _ -> Alcotest.fail "a garbage line must fail the load");
  Sys.remove path;
  (match Corpus.load_programs path with
  | Error msg ->
      checkb "missing file named" true
        (Testutil.Astring_contains.contains msg path)
  | Ok _ -> Alcotest.fail "a missing file must fail the load");
  match Corpus.save c (Filename.concat path "c.txt") with
  | Error msg ->
      checkb "unwritable path named" true
        (Testutil.Astring_contains.contains msg path)
  | Ok () -> Alcotest.fail "saving under a missing directory must fail"

let tests =
  [
    QCheck_alcotest.to_alcotest prop_generate_well_formed;
    QCheck_alcotest.to_alcotest prop_mutate_well_formed;
    QCheck_alcotest.to_alcotest prop_line_roundtrip;
    Alcotest.test_case "of_line rejects garbage" `Quick test_of_line_rejects_garbage;
    Alcotest.test_case "buffer at the user segment end" `Quick
      test_buffer_at_segment_end;
    Alcotest.test_case "corpus save/load" `Quick test_corpus_save_load;
    Alcotest.test_case "deterministic generation" `Quick test_generate_deterministic;
    Alcotest.test_case "templates cover syscalls" `Quick test_templates_cover_syscalls;
    Alcotest.test_case "resource flow" `Quick test_resource_flow;
    Alcotest.test_case "corpus novelty" `Quick test_corpus_novelty;
    Alcotest.test_case "consider counts and keeps" `Quick
      test_corpus_consider_counts;
    Alcotest.test_case "pretty printing" `Quick test_pp;
  ]

let () = Alcotest.run "fuzzer" [ ("gen+corpus", tests) ]
