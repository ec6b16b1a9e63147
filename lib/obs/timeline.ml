(* Rendering flight-recorder traces: Chrome trace-event JSON for
   Perfetto/chrome://tracing, and a two-column plain-text interleaving
   report with the PMC write->read edge drawn between the columns. *)

module E = Event
module J = Export

(* ------------------------------------------------------------------ *)
(* Chrome trace-event JSON.

   Track layout: pid 1 for everything; tid = vCPU index for vCPU tracks
   and [sched_track] for the scheduler.  "ts" is the virtual clock, so
   one time unit is one retired guest instruction. *)

let sched_track = 100

let track_of ev = if ev.E.tid = E.sched_tid then sched_track else ev.E.tid

let opt_issue = function None -> J.Null | Some i -> J.Int i

let event_name ev =
  match ev.E.kind with
  | E.Trial_begin _ -> "trial"
  | E.Trial_end _ -> "trial"
  | E.Switch { from_; to_; reason } ->
      Printf.sprintf "switch %d->%d (%s)" from_ to_ reason
  | E.Sched_point _ -> "sched-point"
  | E.Hint_window _ -> "pmc-window"
  | E.Hint_hit { write; _ } -> if write then "pmc-hit W" else "pmc-hit R"
  | E.Hint_miss { reason; _ } -> "pmc-miss (" ^ reason ^ ")"
  | E.Syscall_enter { nr; index } -> Printf.sprintf "syscall %d [%d]" nr index
  | E.Syscall_exit { index; _ } -> Printf.sprintf "syscall [%d]" index
  | E.Access { write; addr; ctx; _ } ->
      Printf.sprintf "%s 0x%x %s" (if write then "W" else "R") addr ctx
  | E.Verdict { kind; _ } -> "verdict: " ^ kind
  | E.Fault { kind; _ } -> "fault: " ^ kind
  | E.Note { name; _ } -> name

(* Phase: B/E spans for syscalls and the trial, instants for the rest. *)
let event_phase = function
  | E.Trial_begin _ | E.Syscall_enter _ -> "B"
  | E.Trial_end _ | E.Syscall_exit _ -> "E"
  | _ -> "i"

let event_args ev =
  match ev.E.kind with
  | E.Trial_begin { threads; first } ->
      [ ("threads", J.Int threads); ("first", J.Int first) ]
  | E.Trial_end { verdict } -> [ ("verdict", J.String verdict) ]
  | E.Switch { from_; to_; reason } ->
      [ ("from", J.Int from_); ("to", J.Int to_); ("reason", J.String reason) ]
  | E.Sched_point { tid } -> [ ("tid", J.Int tid) ]
  | E.Hint_window { pc; addr } -> [ ("pc", J.Int pc); ("addr", J.Int addr) ]
  | E.Hint_hit { write; pc; addr } ->
      [ ("write", J.Bool write); ("pc", J.Int pc); ("addr", J.Int addr) ]
  | E.Hint_miss { reason; window_seen; last_write_pc; last_write_addr } ->
      [
        ("reason", J.String reason);
        ("window_seen", J.Bool window_seen);
        ("last_write_pc", J.Int last_write_pc);
        ("last_write_addr", J.Int last_write_addr);
      ]
  | E.Syscall_enter { index; nr } -> [ ("index", J.Int index); ("nr", J.Int nr) ]
  | E.Syscall_exit { index; ret } -> [ ("index", J.Int index); ("ret", J.Int ret) ]
  | E.Access { pc; addr; size; write; value; ctx } ->
      [
        ("pc", J.Int pc);
        ("addr", J.Int addr);
        ("size", J.Int size);
        ("write", J.Bool write);
        ("value", J.Int value);
        ("ctx", J.String ctx);
      ]
  | E.Verdict { kind; issue; detail } ->
      [
        ("kind", J.String kind);
        ("issue", opt_issue issue);
        ("detail", J.String detail);
      ]
  | E.Fault { kind; detail } ->
      [ ("kind", J.String kind); ("detail", J.String detail) ]
  | E.Note { name; detail } ->
      [ ("name", J.String name); ("detail", J.String detail) ]

(* The virtual clock counts instructions since VM creation and is only
   monotonic, so timestamps are rebased to the first buffered event:
   exported traces start near 0 and are byte-stable across re-executions
   of the same interleaving. *)
let rebase = function [] -> 0 | (ev : E.t) :: _ -> ev.E.vclock

let trace_event ~t0 ev =
  let phase = event_phase ev.E.kind in
  let base =
    [
      ("name", J.String (event_name ev));
      ("cat", J.String (E.kind_label ev.E.kind));
      ("ph", J.String phase);
      ("ts", J.Int (ev.E.vclock - t0));
      ("pid", J.Int 1);
      ("tid", J.Int (track_of ev));
    ]
  in
  let scope = if phase = "i" then [ ("s", J.String "t") ] else [] in
  J.Obj (base @ scope @ [ ("args", J.Obj (event_args ev)) ])

let thread_meta ~tid ~name =
  J.Obj
    [
      ("name", J.String "thread_name");
      ("ph", J.String "M");
      ("pid", J.Int 1);
      ("tid", J.Int tid);
      ("args", J.Obj [ ("name", J.String name) ]);
    ]

let vcpus events =
  List.sort_uniq compare
    (List.filter_map
       (fun ev -> if ev.E.tid >= 0 then Some ev.E.tid else None)
       events)

let chrome_json ?(extra = []) events =
  let metas =
    thread_meta ~tid:sched_track ~name:"scheduler"
    :: List.map
         (fun tid -> thread_meta ~tid ~name:(Printf.sprintf "vCPU %d" tid))
         (vcpus events)
  in
  J.Obj
    ([
       ("schema", J.String "snowboard-trace/1");
       ("displayTimeUnit", J.String "ms");
       ( "otherData",
         J.Obj
           [
             ("clock", J.String "virtual-instructions-retired");
             (* always: events carry only the virtual clock *)
             ("deterministic", J.Bool true);
             ("events", J.Int (List.length events));
             ("dropped", J.Int (E.dropped ()));
           ] );
       ( "traceEvents",
         J.List (metas @ List.map (trace_event ~t0:(rebase events)) events) );
     ]
    @ extra)

(* ------------------------------------------------------------------ *)
(* Two-column plain-text interleaving report.                          *)

let cell_text ev =
  match ev.E.kind with
  | E.Syscall_enter { index; nr } -> Printf.sprintf "enter syscall %d [%d]" nr index
  | E.Syscall_exit { index; ret } -> Printf.sprintf "exit  syscall [%d] = %d" index ret
  | E.Access { write; addr; value; ctx; _ } ->
      Printf.sprintf "%s 0x%x=%d  (%s)" (if write then "W" else "R") addr value ctx
  | E.Hint_window { addr; _ } -> Printf.sprintf "pmc window: 0x%x imminent" addr
  | E.Hint_hit { write; addr; _ } ->
      Printf.sprintf "PMC %s 0x%x" (if write then "WRITE" else "READ") addr
  | E.Sched_point _ -> "sched point"
  | k -> E.kind_label k

let full_line ev =
  match ev.E.kind with
  | E.Trial_begin { threads; first } ->
      Some (Printf.sprintf "trial begins: %d threads, vCPU %d first" threads first)
  | E.Trial_end { verdict } -> Some (Printf.sprintf "trial ends: %s" verdict)
  | E.Switch { from_; to_; reason } ->
      Some (Printf.sprintf "~~ switch vCPU %d -> vCPU %d (%s) ~~" from_ to_ reason)
  | E.Hint_miss { reason; window_seen; last_write_pc; last_write_addr } ->
      Some
        (Printf.sprintf
           "hinted PMC channel not exercised (miss: %s; window %s%s)" reason
           (if window_seen then "seen" else "not reached")
           (if last_write_pc < 0 then "; no shared write"
            else
              Printf.sprintf "; last write pc=%d addr=0x%x" last_write_pc
                last_write_addr))
  | E.Verdict { kind; issue; detail } ->
      Some
        (Printf.sprintf "VERDICT %s%s: %s" kind
           (match issue with
           | Some i -> Printf.sprintf " (issue #%d)" i
           | None -> "")
           detail)
  | E.Fault { kind; detail } -> Some (Printf.sprintf "!! FAULT %s: %s !!" kind detail)
  | E.Note { name; detail } -> Some (Printf.sprintf "%s: %s" name detail)
  | _ -> None

let clip w s = if String.length s <= w then s else String.sub s 0 (w - 1) ^ "~"

let interleaving ?(width = 34) events =
  let b = Buffer.create 4096 in
  let cols = List.fold_left (fun m ev -> max m (ev.E.tid + 1)) 2 events in
  let pad s w = Printf.sprintf "%-*s" w s in
  let add_row ~mark ~vclock cells =
    Buffer.add_string b (Printf.sprintf "%c%9d  " mark vclock);
    List.iteri
      (fun i c ->
        if i > 0 then Buffer.add_string b " | ";
        Buffer.add_string b (pad (clip width c) width))
      cells;
    Buffer.add_char b '\n'
  in
  (* header *)
  add_row ~mark:' ' ~vclock:0
    (List.init cols (fun i -> Printf.sprintf "vCPU %d" i));
  Buffer.add_string b
    (String.make (11 + (cols * width) + ((cols - 1) * 3)) '-' ^ "\n");
  (* the PMC write->read edge: drawn once, when a hint-hit read follows a
     hint-hit write in a different column *)
  let t0 = rebase events in
  let pmc_write : (int * int) option ref = ref None in
  let edge_drawn = ref false in
  List.iter
    (fun ev ->
      match full_line ev with
      | Some line ->
          Buffer.add_string b
            (Printf.sprintf "%10d  %s\n" (ev.E.vclock - t0) line)
      | None ->
          let mark =
            match ev.E.kind with E.Hint_hit _ -> '*' | _ -> ' '
          in
          let cells =
            List.init cols (fun i -> if i = ev.E.tid then cell_text ev else "")
          in
          add_row ~mark ~vclock:(ev.E.vclock - t0) cells;
          (match ev.E.kind with
          | E.Hint_hit { write = true; addr; _ } ->
              pmc_write := Some (ev.E.tid, addr)
          | E.Hint_hit { write = false; addr; _ } -> (
              match !pmc_write with
              | Some (wtid, waddr)
                when wtid <> ev.E.tid && waddr = addr && not !edge_drawn ->
                  edge_drawn := true;
                  let lo = min wtid ev.E.tid and hi = max wtid ev.E.tid in
                  let start = 12 + (lo * (width + 3)) in
                  let span = (hi - lo) * (width + 3) in
                  let body = String.make (max 0 (span - 2)) '=' in
                  Buffer.add_string b
                    (String.make start ' '
                    ^ (if wtid < ev.E.tid then "*" ^ body ^ ">"
                       else "<" ^ body ^ "*")
                    ^ Printf.sprintf "  PMC write -> read edge (0x%x)\n" addr)
              | _ -> ())
          | _ -> ()))
    events;
  if E.dropped () > 0 then
    Buffer.add_string b
      (Printf.sprintf
         "(%d older events dropped by ring wraparound; newest %d kept)\n"
         (E.dropped ()) (List.length events));
  Buffer.contents b
