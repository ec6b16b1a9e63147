(* Sequential test programs: self-sufficient sequences of system calls,
   the unit of Snowboard's input corpus (paper section 3.1).  Arguments
   may be constants, references to the results of earlier calls (file
   descriptors, message-queue ids) or user-space buffers installed by the
   executor before the call runs. *)

type arg =
  | Const of int
  | Res of int  (* the result of the call at this index in the program *)
  | Buf of string  (* bytes placed in user memory; the argument becomes
                      the user-space address of the buffer *)

type call = { nr : int; args : arg list }

type t = call list

let max_calls = 8
(* Keeps user-buffer layout and kernel-stack pressure bounded, like the
   paper's "upper limit on sequential test length". *)

(* Where call [i]'s user buffer lives. *)
let buf_addr i = Vmm.Layout.user_base + 0x100 + (i * 64)

let pp_arg ppf = function
  | Const v -> Format.fprintf ppf "%d" v
  | Res i -> Format.fprintf ppf "r%d" i
  | Buf b -> Format.fprintf ppf "&%S" b

let pp_call ppf c =
  Format.fprintf ppf "%s(%a)" (Kernel.Abi.syscall_name c.nr)
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
       pp_arg)
    c.args

let pp ppf (p : t) =
  Format.pp_print_list
    ~pp_sep:(fun ppf () -> Format.fprintf ppf "; ")
    pp_call ppf p

let to_string p = Format.asprintf "%a" pp p

let equal (a : t) (b : t) = a = b

(* A stable structural hash used for corpus dedup. *)
let hash (p : t) = Hashtbl.hash p

(* Compact one-line serialisation for corpus files:
     <nr> <arg>...  calls separated by '|'
   where <arg> is c<int> (constant), r<int> (result reference) or
   b<hex> (buffer bytes). *)

let hex_of_string s =
  String.concat "" (List.init (String.length s) (fun i -> Printf.sprintf "%02x" (Char.code s.[i])))

let string_of_hex h =
  if String.length h mod 2 <> 0 then None
  else
    try
      Some
        (String.init (String.length h / 2) (fun i ->
             Char.chr (int_of_string ("0x" ^ String.sub h (2 * i) 2))))
    with _ -> None

let arg_to_string = function
  | Const v -> "c" ^ string_of_int v
  | Res i -> "r" ^ string_of_int i
  | Buf s -> "b" ^ hex_of_string s

let arg_of_string s =
  if s = "" then None
  else
    let body = String.sub s 1 (String.length s - 1) in
    match s.[0] with
    | 'c' -> Option.map (fun v -> Const v) (int_of_string_opt body)
    | 'r' -> Option.map (fun i -> Res i) (int_of_string_opt body)
    | 'b' -> Option.map (fun b -> Buf b) (string_of_hex body)
    | _ -> None

let to_line (p : t) =
  String.concat "|"
    (List.map
       (fun c ->
         String.concat " " (string_of_int c.nr :: List.map arg_to_string c.args))
       p)

(* Does every buffer fit in the user segment?  The executor pokes buffer
   [j] of call [i] at [buf_addr i + 16 j], so one that ran past the
   segment's end would fault the VM before the program starts. *)
let buffers_fit (p : t) =
  let limit = Vmm.Layout.user_base + Vmm.Layout.user_size in
  let fits i j = function
    | Buf s -> buf_addr i + (16 * j) + String.length s <= limit
    | Const _ | Res _ -> true
  in
  List.for_all Fun.id
    (List.mapi (fun i c -> List.for_all Fun.id (List.mapi (fits i) c.args)) p)

let of_line line =
  let parse_call s =
    match String.split_on_char ' ' (String.trim s) with
    | [] | [ "" ] -> None
    | nr :: args -> (
        match int_of_string_opt nr with
        | None -> None
        | Some nr ->
            let args = List.map arg_of_string (List.filter (fun a -> a <> "") args) in
            if List.for_all Option.is_some args then
              Some { nr; args = List.map Option.get args }
            else None)
  in
  let calls = List.map parse_call (String.split_on_char '|' line) in
  if calls <> [] && List.for_all Option.is_some calls then
    let p = List.map Option.get calls in
    if buffers_fit p then Some p else None
  else None
