(* Crash-consistent storage primitives (see storage.mli).

   All I/O goes through Unix file descriptors rather than out_channels
   so errors arrive as typed Unix_error values (ENOSPC, EIO, ...) and
   fsync can be issued at the right moments.  The crashpoint machinery
   deliberately lives at this layer: a simulated power loss must tear
   the exact bytes a real one would, which only the code issuing the
   write can do. *)

type err = Enospc | Eio | Other of string

let err_to_string = function
  | Enospc -> "ENOSPC (no space left on device)"
  | Eio -> "EIO (I/O error)"
  | Other msg -> msg

let err_of_unix = function
  | Unix.ENOSPC -> Enospc
  | Unix.EIO -> Eio
  | e -> Other (Unix.error_message e)

let max_attempts = 3

(* ------------------------------------------------------------------ *)
(* Counters.                                                           *)

let c_bytes =
  lazy (Metrics.counter ~unit_:"bytes" "snowboard.storage/bytes_written")

let c_fsyncs = lazy (Metrics.counter "snowboard.storage/fsyncs")
let c_retries = lazy (Metrics.counter "snowboard.storage/write_retries")

let c_recovered =
  lazy (Metrics.counter "snowboard.storage/recovered_records")

let c_dropped =
  lazy (Metrics.counter "snowboard.storage/dropped_tail_records")

let note_recovered ~records ~dropped =
  Metrics.add (Lazy.force c_recovered) records;
  Metrics.add (Lazy.force c_dropped) dropped

(* ------------------------------------------------------------------ *)
(* Sites.                                                              *)

type site = { s_name : string; mutable s_writes : int }

let site_table : (string, site) Hashtbl.t = Hashtbl.create 16
let site_mutex = Mutex.create ()

let get_site name =
  Mutex.lock site_mutex;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock site_mutex)
    (fun () ->
      match Hashtbl.find_opt site_table name with
      | Some s -> s
      | None ->
          let s = { s_name = name; s_writes = 0 } in
          Hashtbl.add site_table name s;
          s)

(* the "any" pseudo-site counts every durable write, for site-agnostic
   crash plans *)
let any_site = get_site "any"

(* ------------------------------------------------------------------ *)
(* Crashpoints.                                                        *)

type crash_mode = Kill | Raise

exception Crash_simulated of string

let crash_exit_code = 42

type plan = {
  cp_site : string;
  cp_k : int;
  cp_target : int;  (* absolute site count at which to fire *)
  cp_mode : crash_mode;
}

let crash_plan : plan option ref = ref None

(* [k] counts writes made AFTER arming, so a plan armed mid-process
   (tests, future re-arming) behaves like one armed at startup *)
let arm_crash ?(mode = Kill) ~site ~k () =
  let s = get_site site in
  let k = max 1 k in
  crash_plan := Some { cp_site = site; cp_k = k; cp_target = s.s_writes + k; cp_mode = mode }

(* seed -> ("any", k): a tiny splitmix step so nearby seeds give spread
   crash placements over the first few dozen durable writes of a run *)
let arm_crash_seeded ?(mode = Kill) ~seed () =
  let z = (seed * 0x9e3779b9) land 0x3FFFFFFF in
  let k = 1 + (z lxor (z lsr 13)) mod 37 in
  arm_crash ~mode ~site:"any" ~k ()

let disarm_crash () = crash_plan := None

let parse_crash_spec spec =
  match String.rindex_opt spec ':' with
  | None -> Error (Printf.sprintf "bad crash spec %S (expected SITE:K)" spec)
  | Some i -> (
      let site = String.sub spec 0 i in
      let num = String.sub spec (i + 1) (String.length spec - i - 1) in
      match int_of_string_opt num with
      | Some k when k >= 1 && site <> "" -> Ok (site, k)
      | _ ->
          Error
            (Printf.sprintf "bad crash spec %S (expected SITE:K with K >= 1)"
               spec))

(* Tear the write and die: the first half of the payload reaches the
   file (un-fsynced, like a page cache partially flushed by the kernel
   before the power failed), then the process vanishes without running
   at_exit hooks.  Raise mode substitutes an exception for death so
   in-process tests can inspect the wreckage. *)
let fire_crash plan fd payload =
  let half = String.length payload / 2 in
  (try
     let rec loop pos len =
       if len > 0 then begin
         let n = Unix.write_substring fd payload pos len in
         loop (pos + n) (len - n)
       end
     in
     loop 0 half
   with Unix.Unix_error _ -> ());
  match plan.cp_mode with
  | Kill ->
      Printf.eprintf "snowboard: simulated power loss at crashpoint %s:%d\n%!"
        plan.cp_site plan.cp_k;
      Unix._exit crash_exit_code
  | Raise -> raise (Crash_simulated plan.cp_site)

(* Count the attempt at [site]; if the armed plan fires here, tear
   [payload] into [fd] and crash. *)
let attempt_write site fd payload =
  site.s_writes <- site.s_writes + 1;
  any_site.s_writes <- any_site.s_writes + 1;
  match !crash_plan with
  | Some p
    when (p.cp_site = site.s_name && site.s_writes = p.cp_target)
         || (p.cp_site = "any" && any_site.s_writes = p.cp_target) ->
      fire_crash p fd payload
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* Fault injection and degradation.                                    *)

let injector : (site:string -> attempt:int -> err option) option ref =
  ref None

let set_fault_injector f = injector := f

let degraded_list : (string * err) list ref = ref []
let degraded () = List.rev !degraded_list
let reset_degraded () = degraded_list := []

let note_degraded site e = degraded_list := (site, e) :: !degraded_list

(* ------------------------------------------------------------------ *)
(* Write plumbing.                                                     *)

let rec really_write fd s pos len =
  if len > 0 then begin
    let n = Unix.write_substring fd s pos len in
    really_write fd s (pos + n) (len - n)
  end

let fsync_fd fd =
  Unix.fsync fd;
  Metrics.incr (Lazy.force c_fsyncs)

(* Directory fsync makes the rename itself durable; platforms that
   refuse to fsync a directory fd just skip the barrier. *)
let fsync_dir dir =
  match Unix.openfile dir [ Unix.O_RDONLY ] 0 with
  | exception Unix.Unix_error _ -> ()
  | fd ->
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () -> try fsync_fd fd with Unix.Unix_error _ -> ())

(* Run one write attempt under the injector / typed-error / retry
   discipline shared by both disciplines.  [f] performs the attempt. *)
let with_attempts ~site f =
  let rec go attempt =
    let fail e =
      if attempt >= max_attempts then begin
        note_degraded site.s_name e;
        Error e
      end
      else begin
        Metrics.incr (Lazy.force c_retries);
        go (attempt + 1)
      end
    in
    let injected =
      match !injector with
      | Some inject -> inject ~site:site.s_name ~attempt
      | None -> None
    in
    match injected with
    | Some e ->
        (* count the attempt even though nothing touched the disk, so
           crash plans and write tallies stay aligned *)
        site.s_writes <- site.s_writes + 1;
        any_site.s_writes <- any_site.s_writes + 1;
        fail e
    | None -> (
        match f () with
        | () -> Ok ()
        | exception Unix.Unix_error (ue, _, _) -> fail (err_of_unix ue)
        | exception Sys_error msg -> fail (Other msg))
  in
  go 1

(* ------------------------------------------------------------------ *)
(* Atomic whole-document writes.                                       *)

let tmp_seq = Atomic.make 0

let tmp_name path =
  Printf.sprintf "%s.%d.%d.tmp" path (Unix.getpid ())
    (Atomic.fetch_and_add tmp_seq 1)

let write_atomic ~site ~path content =
  let s = get_site site in
  with_attempts ~site:s (fun () ->
      let tmp = tmp_name path in
      let fd =
        Unix.openfile tmp
          [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC; Unix.O_CLOEXEC ]
          0o644
      in
      match
        attempt_write s fd content;
        really_write fd content 0 (String.length content);
        fsync_fd fd
      with
      | () ->
          Unix.close fd;
          Sys.rename tmp path;
          fsync_dir (Filename.dirname path);
          Metrics.add (Lazy.force c_bytes) (String.length content)
      | exception e ->
          (try Unix.close fd with Unix.Unix_error _ -> ());
          (try Sys.remove tmp with Sys_error _ -> ());
          raise e)

let sweep_stale_tmp path =
  let dir = Filename.dirname path in
  let base = Filename.basename path ^ "." in
  let stale name =
    String.length name > String.length base + 4
    && String.sub name 0 (String.length base) = base
    && Filename.check_suffix name ".tmp"
  in
  match Sys.readdir dir with
  | exception Sys_error _ -> 0
  | names ->
      Array.fold_left
        (fun n name ->
          if stale name then (
            match Sys.remove (Filename.concat dir name) with
            | () -> n + 1
            | exception Sys_error _ -> n)
          else n)
        0 names

(* ------------------------------------------------------------------ *)
(* Append/stream channels.                                             *)

type chan = { c_site : site; c_fd : Unix.file_descr }

let open_chan ~site ?(append = false) path =
  let s = get_site site in
  let flags =
    [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_CLOEXEC ]
    @ if append then [ Unix.O_APPEND ] else [ Unix.O_TRUNC ]
  in
  match Unix.openfile path flags 0o644 with
  | fd -> Ok { c_site = s; c_fd = fd }
  | exception Unix.Unix_error (ue, _, _) ->
      let e = err_of_unix ue in
      note_degraded s.s_name e;
      Error e

let chan_write c payload =
  with_attempts ~site:c.c_site (fun () ->
      attempt_write c.c_site c.c_fd payload;
      really_write c.c_fd payload 0 (String.length payload);
      fsync_fd c.c_fd;
      Metrics.add (Lazy.force c_bytes) (String.length payload))

let close_chan c = try Unix.close c.c_fd with Unix.Unix_error _ -> ()
