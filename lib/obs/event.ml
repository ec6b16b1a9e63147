(* Flight recorder: a bounded ring of typed events (see event.mli).

   Same hot-path discipline as Metrics: [emit] self-guards on an atomic
   enabled flag, and instrumented code checks [enabled ()] before
   building a payload, so a disabled recorder adds one atomic load per
   hook site and allocates nothing.  Like Span, the recorder is a
   main-domain facility: parallel campaign workers leave it disabled. *)

let sched_tid = -1

type kind =
  | Trial_begin of { threads : int; first : int }
  | Trial_end of { verdict : string }
  | Switch of { from_ : int; to_ : int; reason : string }
  | Sched_point of { tid : int }
  | Hint_window of { pc : int; addr : int }
  | Hint_hit of { write : bool; pc : int; addr : int }
  | Hint_miss of {
      reason : string;
      window_seen : bool;
      last_write_pc : int;
      last_write_addr : int;
    }
  | Syscall_enter of { index : int; nr : int }
  | Syscall_exit of { index : int; ret : int }
  | Access of {
      pc : int;
      addr : int;
      size : int;
      write : bool;
      value : int;
      ctx : string;
    }
  | Verdict of { kind : string; issue : int option; detail : string }
  | Fault of { kind : string; detail : string }
  | Note of { name : string; detail : string }

type t = { seq : int; vclock : int; tid : int; kind : kind }

let kind_label = function
  | Trial_begin _ -> "trial-begin"
  | Trial_end _ -> "trial-end"
  | Switch _ -> "switch"
  | Sched_point _ -> "sched-point"
  | Hint_window _ -> "pmc-window"
  | Hint_hit _ -> "pmc-hit"
  | Hint_miss _ -> "pmc-miss"
  | Syscall_enter _ -> "syscall-enter"
  | Syscall_exit _ -> "syscall-exit"
  | Access _ -> "access"
  | Verdict _ -> "verdict"
  | Fault _ -> "fault"
  | Note _ -> "note"

let default_capacity = 65_536

let dummy =
  { seq = 0; vclock = 0; tid = 0; kind = Note { name = ""; detail = "" } }

type state = {
  mutable buf : t array;
  mutable next : int;  (* next write slot *)
  mutable size : int;  (* valid entries, <= capacity *)
  mutable seen : int;  (* total emitted since configure/reset *)
}

let st = { buf = Array.make default_capacity dummy; next = 0; size = 0; seen = 0 }
let enabled_flag = Atomic.make false
let clock : (unit -> int) ref = ref (fun () -> 0)

let enabled () = Atomic.get enabled_flag

let set_clock = function
  | Some f -> clock := f
  | None -> clock := fun () -> 0

let configure ?(capacity = default_capacity) ~enabled () =
  let capacity = max 1 capacity in
  st.buf <- Array.make capacity dummy;
  st.next <- 0;
  st.size <- 0;
  st.seen <- 0;
  Atomic.set enabled_flag enabled

let reset () =
  Array.fill st.buf 0 (Array.length st.buf) dummy;
  st.next <- 0;
  st.size <- 0;
  st.seen <- 0

let emit ~tid kind =
  if Atomic.get enabled_flag then begin
    let ev = { seq = st.seen; vclock = !clock (); tid; kind } in
    let cap = Array.length st.buf in
    st.buf.(st.next) <- ev;
    st.next <- (st.next + 1) mod cap;
    if st.size < cap then st.size <- st.size + 1;
    st.seen <- st.seen + 1
  end

let events () =
  let cap = Array.length st.buf in
  if st.size < cap then Array.to_list (Array.sub st.buf 0 st.size)
  else
    (* full ring: the oldest surviving event sits at [next] *)
    List.init cap (fun i -> st.buf.((st.next + i) mod cap))

let seen () = st.seen
let dropped () = st.seen - st.size

type stats = {
  st_seen : int;
  st_dropped : int;
  st_buffered : int;
  st_capacity : int;
}

let stats () =
  {
    st_seen = st.seen;
    st_dropped = st.seen - st.size;
    st_buffered = st.size;
    st_capacity = Array.length st.buf;
  }
