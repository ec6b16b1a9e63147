(* Figure 4 walkthrough: the rhashtable double fetch (issue #1), and the
   compiler's role in it.

   "(*bkt & ~BIT(0)) ?: bkt" reads the bucket word once in the source,
   but gcc -O2 emits two fetches.  We build the same kernel twice - once
   with the -O2-style double-fetch codegen, once with the single-fetch
   codegen of "-O1 -fno-tree-dominator-opts -fno-tree-fre" - and show
   that the panic exists only in the former.

   Run with: dune exec examples/double_fetch.exe *)

let pf = Format.printf

let attempt label cfg =
  let env = Sched.Exec.make_env cfg in
  let s = match Harness.Scenarios.find 1 with Some s -> s | None -> assert false in
  let a =
    Harness.Scenarios.reproduce env s ~kind:Sched.Explore.Snowboard ~trials:64
      ~seed:7919 ()
  in
  match a.Harness.Scenarios.trials_to_expose with
  | Some n ->
      pf "%-18s PANIC reproduced (%d trials): page fault in the key memcmp@."
        label n
  | None -> pf "%-18s no crash (the single fetch cannot observe the zeroed bucket)@." label

let () =
  pf "writer: msgget(3); msgctl(r0, IPC_RMID)   -- rht_assign_unlock writes 0@.";
  pf "reader: msgget(3)                         -- rht_ptr fetches the bucket@.@.";
  attempt "gcc -O2:" Kernel.Config.all_buggy;
  attempt "gcc -O1 -fno-...:"
    { Kernel.Config.all_buggy with Kernel.Config.bug1_rht_double_fetch = false };
  pf "@.The interleaving window is one instruction wide - between the two@.";
  pf "fetches the compiler emitted.  Snowboard lands on it because the first@.";
  pf "fetch is a PMC read: performed_pmc_access fires, the scheduler switches@.";
  pf "to the writer, the writer's bucket store is a PMC write, and the switch@.";
  pf "back lets the second fetch read NULL (Algorithm 2 in action).@."
