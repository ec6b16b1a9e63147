(* End-to-end semantics of the Table 1 clustering strategies against the
   real kernel: the special-case strategies must capture exactly the bug
   patterns they were designed for (section 4.3), and partition/filter
   invariants must hold over real identification results. *)

module Abi = Kernel.Abi
module P = Fuzzer.Prog
module Exec = Sched.Exec
module Cluster = Core.Cluster

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let c nr args = { P.nr; args }
let k v = P.Const v

let env = lazy (Exec.make_env Kernel.Config.all_buggy)

let ident_of progs =
  let e = Lazy.force env in
  let profiles =
    List.mapi
      (fun i p ->
        Core.Profile.of_accesses ~test_id:i (Exec.run_seq ~accesses:true e ~tid:0 p).Exec.sq_accesses)
      progs
  in
  Core.Identify.run profiles

let region name =
  let e = Lazy.force env in
  List.find
    (fun (r : Vmm.Asm.region) -> r.Vmm.Asm.name = name)
    e.Exec.kern.Kernel.image.Vmm.Asm.regions

let in_region name (p : Core.Pmc.t) =
  let r = region name in
  p.Core.Pmc.write.Core.Pmc.addr >= r.Vmm.Asm.addr
  && p.Core.Pmc.write.Core.Pmc.addr < r.Vmm.Asm.addr + r.Vmm.Asm.size

let cluster_pmcs strategy ident =
  Cluster.clusters (Cluster.run strategy ident)
  |> Array.to_list
  |> List.concat_map (fun (c : Cluster.cluster) -> Array.to_list c.Cluster.members)

let sizes strategy ident =
  Array.to_list (Cluster.clusters (Cluster.run strategy ident))
  |> List.map (fun (c : Cluster.cluster) -> Array.length c.Cluster.members)

let test_s_ch_double_catches_block_toctou () =
  (* issue #4's reader fetches the block-map word twice (submission and
     completion): the first fetch must be a df_leader, and S-CH-DOUBLE
     must keep the (ftruncate write, fetch) PMC *)
  let s = match Harness.Scenarios.find 4 with Some s -> s | None -> assert false in
  let ident = ident_of [ s.Harness.Scenarios.writer; s.Harness.Scenarios.reader ] in
  let kept = cluster_pmcs Cluster.S_CH_DOUBLE ident in
  checkb "a block-map df PMC survives the filter" true
    (List.exists (in_region "ext4_block_map") kept);
  List.iter
    (fun p -> checkb "every kept PMC is a df leader" true p.Core.Pmc.df_leader)
    kept

let test_s_ch_null_catches_nullifications () =
  (* configfs rmdir zeroes the item pointer: S-CH-NULL must keep it *)
  let s = match Harness.Scenarios.find 11 with Some s -> s | None -> assert false in
  let ident = ident_of [ s.Harness.Scenarios.writer; s.Harness.Scenarios.reader ] in
  let kept = cluster_pmcs Cluster.S_CH_NULL ident in
  checkb "a configfs nullification PMC survives" true
    (List.exists (in_region "configfs_subsys") kept);
  List.iter
    (fun p -> checki "every kept PMC writes zero" 0 p.Core.Pmc.write.Core.Pmc.value)
    kept

let test_s_ch_unaligned_catches_wide_read () =
  (* packet_getname reads the MAC with one 8-byte load against byte
     writers: S-CH-UNALIGNED must keep that channel *)
  let s = match Harness.Scenarios.find 8 with Some s -> s | None -> assert false in
  let ident = ident_of [ s.Harness.Scenarios.writer; s.Harness.Scenarios.reader ] in
  let kept = cluster_pmcs Cluster.S_CH_UNALIGNED ident in
  checkb "an unaligned MAC channel survives" true
    (List.exists (in_region "netdev") kept);
  List.iter
    (fun p ->
      checkb "ranges genuinely differ" true
        (p.Core.Pmc.write.Core.Pmc.addr <> p.Core.Pmc.read.Core.Pmc.addr
        || p.Core.Pmc.write.Core.Pmc.size <> p.Core.Pmc.read.Core.Pmc.size))
    kept

let test_partition_strategies_cover_all () =
  (* S-FULL, S-CH, S-INS-PAIR and S-MEM are partitions: every PMC lands
     in exactly one cluster, so cluster sizes sum to the PMC count.
     S-INS double-counts (write cluster + read cluster). *)
  let s = match Harness.Scenarios.find 9 with Some s -> s | None -> assert false in
  let ident = ident_of [ s.Harness.Scenarios.writer; s.Harness.Scenarios.reader ] in
  let n = Core.Identify.num_pmcs ident in
  List.iter
    (fun strategy ->
      let sum = List.fold_left ( + ) 0 (sizes strategy ident) in
      checki (Cluster.name strategy ^ " partitions") n sum)
    [ Cluster.S_FULL; Cluster.S_CH; Cluster.S_INS_PAIR; Cluster.S_MEM ];
  let sum_ins = List.fold_left ( + ) 0 (sizes Cluster.S_INS ident) in
  checki "S-INS double counts" (2 * n) sum_ins

let test_filter_strategies_subset_s_ch () =
  let s = match Harness.Scenarios.find 4 with Some s -> s | None -> assert false in
  let ident = ident_of [ s.Harness.Scenarios.writer; s.Harness.Scenarios.reader ] in
  let ch = Cluster.num_clusters (Cluster.run Cluster.S_CH ident) in
  List.iter
    (fun strategy ->
      checkb
        (Cluster.name strategy ^ " has no more clusters than S-CH")
        true
        (Cluster.num_clusters (Cluster.run strategy ident) <= ch))
    [ Cluster.S_CH_NULL; Cluster.S_CH_UNALIGNED; Cluster.S_CH_DOUBLE ]

let test_sfull_at_least_as_many_clusters () =
  (* S-FULL refines S-CH, which refines nothing coarser than S-INS-PAIR
     on the same instruction pairs *)
  let ident =
    ident_of
      [
        [ c Abi.sys_msgget [ k 1 ] ];
        [ c Abi.sys_msgget [ k 2 ] ];
        [ c Abi.sys_msgctl [ k 100; k Abi.ipc_rmid ] ];
      ]
  in
  let n s = Cluster.num_clusters (Cluster.run s ident) in
  checkb "S-FULL >= S-CH" true (n Cluster.S_FULL >= n Cluster.S_CH);
  checkb "S-CH >= S-INS-PAIR" true (n Cluster.S_CH >= n Cluster.S_INS_PAIR)

let test_of_name_roundtrip () =
  List.iter
    (fun s ->
      match Cluster.of_name (Cluster.name s) with
      | Some s' -> checkb "roundtrip" true (s = s')
      | None -> Alcotest.fail "of_name failed")
    Cluster.all;
  checkb "unknown name" true (Cluster.of_name "S-BOGUS" = None)

let test_exemplar_order_prioritises_rare () =
  (* the l2tp head-publish channel is rarer than the slab counters: under
     S-INS-PAIR ordering its cluster must come before the hottest one *)
  let s = match Harness.Scenarios.find 12 with Some s -> s | None -> assert false in
  let ident = ident_of [ s.Harness.Scenarios.writer; s.Harness.Scenarios.reader ] in
  let sizes = sizes Cluster.S_INS_PAIR ident in
  checkb "sizes ascending" true (List.sort compare sizes = sizes)

let tests =
  [
    Alcotest.test_case "S-CH-DOUBLE catches the block TOCTOU" `Quick
      test_s_ch_double_catches_block_toctou;
    Alcotest.test_case "S-CH-NULL catches nullification" `Quick
      test_s_ch_null_catches_nullifications;
    Alcotest.test_case "S-CH-UNALIGNED catches the wide MAC read" `Quick
      test_s_ch_unaligned_catches_wide_read;
    Alcotest.test_case "partition strategies cover all PMCs" `Quick
      test_partition_strategies_cover_all;
    Alcotest.test_case "filters subset S-CH" `Quick test_filter_strategies_subset_s_ch;
    Alcotest.test_case "refinement ordering" `Quick test_sfull_at_least_as_many_clusters;
    Alcotest.test_case "of_name roundtrip" `Quick test_of_name_roundtrip;
    Alcotest.test_case "rare clusters first" `Quick test_exemplar_order_prioritises_rare;
  ]

let () = Alcotest.run "strategies" [ ("table1", tests) ]
