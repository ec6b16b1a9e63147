(* Rendering the registry: an aligned text table for humans and
   deterministic JSON for machines (BENCH_*.json, --metrics-out).

   The JSON value type is deliberately tiny and public so other layers
   (Harness.Report.json_summary) can build documents through the same
   printer.  A matching parser is included so tests - and the bench
   harness - can check that every emitted artifact is well-formed without
   adding a JSON dependency.

   Deterministic mode is for diffable artifacts: metrics are already
   emitted in name order, and everything derived from the wall clock
   (metrics whose unit is "us", span durations) is omitted, leaving only
   values that are a pure function of the seed. *)

type json =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of json list
  | Obj of (string * json) list

(* ------------------------------------------------------------------ *)
(* Printing.                                                           *)

let escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let float_repr f =
  if Float.is_integer f && Float.abs f < 1e15 then
    Printf.sprintf "%.1f" f
  else Printf.sprintf "%.6g" f

let rec print b indent v =
  let pad n = String.make n ' ' in
  match v with
  | Null -> Buffer.add_string b "null"
  | Bool x -> Buffer.add_string b (string_of_bool x)
  | Int n -> Buffer.add_string b (string_of_int n)
  | Float f -> Buffer.add_string b (float_repr f)
  | String s ->
      Buffer.add_char b '"';
      Buffer.add_string b (escape s);
      Buffer.add_char b '"'
  | List [] -> Buffer.add_string b "[]"
  | List items ->
      Buffer.add_string b "[\n";
      List.iteri
        (fun i item ->
          if i > 0 then Buffer.add_string b ",\n";
          Buffer.add_string b (pad (indent + 2));
          print b (indent + 2) item)
        items;
      Buffer.add_char b '\n';
      Buffer.add_string b (pad indent);
      Buffer.add_char b ']'
  | Obj [] -> Buffer.add_string b "{}"
  | Obj fields ->
      Buffer.add_string b "{\n";
      List.iteri
        (fun i (k, item) ->
          if i > 0 then Buffer.add_string b ",\n";
          Buffer.add_string b (pad (indent + 2));
          Buffer.add_char b '"';
          Buffer.add_string b (escape k);
          Buffer.add_string b "\": ";
          print b (indent + 2) item)
        fields;
      Buffer.add_char b '\n';
      Buffer.add_string b (pad indent);
      Buffer.add_char b '}'

let to_string v =
  let b = Buffer.create 1024 in
  print b 0 v;
  Buffer.add_char b '\n';
  Buffer.contents b

(* Compact single-line form (no whitespace) for NDJSON streams: one
   snapshot per line, parseable by [of_string]. *)
let rec print_compact b v =
  match v with
  | Null -> Buffer.add_string b "null"
  | Bool x -> Buffer.add_string b (string_of_bool x)
  | Int n -> Buffer.add_string b (string_of_int n)
  | Float f -> Buffer.add_string b (float_repr f)
  | String s ->
      Buffer.add_char b '"';
      Buffer.add_string b (escape s);
      Buffer.add_char b '"'
  | List items ->
      Buffer.add_char b '[';
      List.iteri
        (fun i item ->
          if i > 0 then Buffer.add_char b ',';
          print_compact b item)
        items;
      Buffer.add_char b ']'
  | Obj fields ->
      Buffer.add_char b '{';
      List.iteri
        (fun i (k, item) ->
          if i > 0 then Buffer.add_char b ',';
          Buffer.add_char b '"';
          Buffer.add_string b (escape k);
          Buffer.add_string b "\":";
          print_compact b item)
        fields;
      Buffer.add_char b '}'

let to_line v =
  let b = Buffer.create 256 in
  print_compact b v;
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Parsing (validity checking and round-trip tests).                   *)

exception Parse_error of string

let of_string s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Parse_error (Printf.sprintf "%s at offset %d" msg !pos)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
        advance ();
        skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> fail (Printf.sprintf "expected %c" c)
  in
  let literal word v =
    if !pos + String.length word <= n && String.sub s !pos (String.length word) = word
    then begin
      pos := !pos + String.length word;
      v
    end
    else fail ("expected " ^ word)
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' -> (
          advance ();
          match peek () with
          | Some '"' -> Buffer.add_char b '"'; advance (); go ()
          | Some '\\' -> Buffer.add_char b '\\'; advance (); go ()
          | Some '/' -> Buffer.add_char b '/'; advance (); go ()
          | Some 'n' -> Buffer.add_char b '\n'; advance (); go ()
          | Some 'r' -> Buffer.add_char b '\r'; advance (); go ()
          | Some 't' -> Buffer.add_char b '\t'; advance (); go ()
          | Some 'u' ->
              advance ();
              if !pos + 4 > n then fail "truncated \\u escape";
              let hex = String.sub s !pos 4 in
              let is_hex = function
                | '0' .. '9' | 'a' .. 'f' | 'A' .. 'F' -> true
                | _ -> false
              in
              (* explicit digit check: int_of_string would accept
                 underscores and raise Failure on garbage, and a
                 malformed escape must surface as a Parse_error *)
              if not (String.for_all is_hex hex) then fail "bad \\u escape";
              let code = int_of_string ("0x" ^ hex) in
              pos := !pos + 4;
              (* ASCII-only escapes are produced by [to_string] *)
              if code < 0x80 then Buffer.add_char b (Char.chr code)
              else Buffer.add_string b (Printf.sprintf "\\u%04x" code);
              go ()
          | _ -> fail "bad escape")
      | Some c ->
          Buffer.add_char b c;
          advance ();
          go ()
    in
    go ();
    Buffer.contents b
  in
  let parse_number () =
    let start = !pos in
    let is_num_char c =
      match c with
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while (match peek () with Some c when is_num_char c -> true | _ -> false) do
      advance ()
    done;
    let text = String.sub s start (!pos - start) in
    match int_of_string_opt text with
    | Some i -> Int i
    | None -> (
        match float_of_string_opt text with
        | Some f -> Float f
        | None -> fail "bad number")
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | Some 'n' -> literal "null" Null
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some '"' -> String (parse_string ())
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin
          advance ();
          List []
        end
        else begin
          let items = ref [ parse_value () ] in
          skip_ws ();
          while peek () = Some ',' do
            advance ();
            items := parse_value () :: !items;
            skip_ws ()
          done;
          expect ']';
          List (List.rev !items)
        end
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin
          advance ();
          Obj []
        end
        else begin
          let field () =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            (k, v)
          in
          let fields = ref [ field () ] in
          skip_ws ();
          while peek () = Some ',' do
            advance ();
            fields := field () :: !fields;
            skip_ws ()
          done;
          expect '}';
          Obj (List.rev !fields)
        end
    | Some ('0' .. '9' | '-') -> parse_number ()
    | _ -> fail "unexpected input"
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then fail "trailing input";
  v

let of_string_opt s =
  match of_string s with v -> Some v | exception Parse_error _ -> None

(* ------------------------------------------------------------------ *)
(* Registry rendering.                                                 *)

(* Units whose values derive from the wall clock and therefore vary run to
   run: elapsed time in any granularity and anything-per-second rates
   ("instr/s", "trials/s", "pages/s", ...).  A leading '~' is the opt-in
   marker for metrics that are timing-dependent without being clocks,
   such as the pages a restore copies, which depend on what last ran on
   the machine.  Deterministic artifacts drop metrics carrying any of
   these; matching by unit shape rather than a fixed list means a newly
   added rate gauge (or scheduling-dependent counter) can never leak
   into a byte-stable artifact. *)
let is_nondeterministic_unit u =
  match u with
  | "us" | "ms" | "ns" | "s" -> true
  | _ ->
      (String.length u >= 2 && String.ends_with ~suffix:"/s" u)
      || (String.length u >= 1 && u.[0] = '~')

let sample_json (s : Metrics.sample) =
  let base = [ ("name", String s.Metrics.name) ] in
  let unit_ =
    match s.Metrics.unit_ with Some u -> [ ("unit", String u) ] | None -> []
  in
  let value =
    match s.Metrics.value with
    | Metrics.Sample_counter v -> [ ("type", String "counter"); ("value", Int v) ]
    | Metrics.Sample_gauge v -> [ ("type", String "gauge"); ("value", Int v) ]
    | Metrics.Sample_hist h ->
        [
          ("type", String "histogram");
          ("count", Int h.Metrics.count);
          ("sum", Int h.Metrics.sum);
          ("min", Int h.Metrics.min_);
          ("max", Int h.Metrics.max_);
          ("p50", Int h.Metrics.p50);
          ("p90", Int h.Metrics.p90);
          ("p99", Int h.Metrics.p99);
        ]
  in
  Obj (base @ unit_ @ value)

let metrics_json ?(deterministic = false) () =
  let samples = Metrics.dump () in
  let samples =
    if deterministic then
      List.filter
        (fun (s : Metrics.sample) ->
          match s.Metrics.unit_ with
          | Some u -> not (is_nondeterministic_unit u)
          | None -> true)
        samples
    else samples
  in
  List (List.map sample_json samples)

let rec span_json ~deterministic (sp : Span.span) =
  Obj
    (("name", String sp.Span.name)
     :: (if deterministic then [] else [ ("dur_us", Int sp.Span.dur_us) ])
    @ [
        ( "deltas",
          Obj (List.map (fun (k, v) -> (k, Int v)) sp.Span.deltas) );
        ( "children",
          List (List.map (span_json ~deterministic) sp.Span.children) );
      ])

let spans_json ?(deterministic = false) () =
  List (List.map (span_json ~deterministic) (Span.roots ()))

let registry_json ?(deterministic = false) ?(extra = []) () =
  Obj
    ([
       ("schema", String "snowboard-metrics/1");
       ("deterministic", Bool deterministic);
       ("metrics", metrics_json ~deterministic ());
       ("spans", spans_json ~deterministic ());
     ]
    @ extra)

(* ------------------------------------------------------------------ *)
(* OpenMetrics text rendering (Prometheus-scrapable).                  *)

(* Metric names: [a-zA-Z_:][a-zA-Z0-9_:]*.  Registry names like
   "snowboard.sched/steps" become "snowboard_sched_steps". *)
let om_name name =
  let b = Buffer.create (String.length name + 1) in
  if name = "" then Buffer.add_char b '_'
  else (match name.[0] with '0' .. '9' -> Buffer.add_char b '_' | _ -> ());
  String.iter
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> Buffer.add_char b c
      | _ -> Buffer.add_char b '_')
    name;
  Buffer.contents b

let om_le i = Printf.sprintf "%.1f" (Int64.to_float (Int64.shift_left 1L i))

let openmetrics ?(deterministic = false) () =
  let samples = Metrics.dump () in
  let samples =
    if deterministic then
      List.filter
        (fun (s : Metrics.sample) ->
          match s.Metrics.unit_ with
          | Some u -> not (is_nondeterministic_unit u)
          | None -> true)
        samples
    else samples
  in
  let b = Buffer.create 2048 in
  let help name unit_ =
    match unit_ with
    | Some u -> Buffer.add_string b (Printf.sprintf "# HELP %s unit: %s\n" name u)
    | None -> ()
  in
  List.iter
    (fun (s : Metrics.sample) ->
      let n = om_name s.Metrics.name in
      match s.Metrics.value with
      | Metrics.Sample_counter v ->
          Buffer.add_string b (Printf.sprintf "# TYPE %s counter\n" n);
          help n s.Metrics.unit_;
          Buffer.add_string b (Printf.sprintf "%s_total %d\n" n v)
      | Metrics.Sample_gauge v ->
          Buffer.add_string b (Printf.sprintf "# TYPE %s gauge\n" n);
          help n s.Metrics.unit_;
          Buffer.add_string b (Printf.sprintf "%s %d\n" n v)
      | Metrics.Sample_hist h ->
          Buffer.add_string b (Printf.sprintf "# TYPE %s histogram\n" n);
          help n s.Metrics.unit_;
          (match Metrics.hist_buckets_by_name s.Metrics.name with
          | Some { Metrics.hb_buckets; hb_count; hb_sum } ->
              (* cumulative buckets up to the last populated bound *)
              let last = ref (-1) in
              Array.iteri
                (fun i c -> if c > 0 then last := i)
                hb_buckets;
              let cum = ref 0 in
              for i = 0 to !last do
                cum := !cum + hb_buckets.(i);
                Buffer.add_string b
                  (Printf.sprintf "%s_bucket{le=\"%s\"} %d\n" n (om_le i) !cum)
              done;
              Buffer.add_string b
                (Printf.sprintf "%s_bucket{le=\"+Inf\"} %d\n" n hb_count);
              Buffer.add_string b (Printf.sprintf "%s_sum %d\n" n hb_sum);
              Buffer.add_string b (Printf.sprintf "%s_count %d\n" n hb_count)
          | None ->
              Buffer.add_string b
                (Printf.sprintf "%s_bucket{le=\"+Inf\"} %d\n" n
                   h.Metrics.count);
              Buffer.add_string b (Printf.sprintf "%s_sum %d\n" n h.Metrics.sum);
              Buffer.add_string b
                (Printf.sprintf "%s_count %d\n" n h.Metrics.count)))
    samples;
  Buffer.add_string b "# EOF\n";
  Buffer.contents b

(* Structural validity check used by tests and the bench harness: every
   line is either a well-formed comment or a sample whose family was
   declared by a preceding # TYPE line (counters via their _total series,
   histograms via _bucket/_sum/_count), names are legal, values are
   numeric, histogram buckets are cumulative, and the exposition ends
   with the mandatory "# EOF" terminator. *)
let openmetrics_valid text =
  let legal_name n =
    n <> ""
    && (match n.[0] with
       | 'a' .. 'z' | 'A' .. 'Z' | '_' | ':' -> true
       | _ -> false)
    && String.for_all
         (function
           | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> true
           | _ -> false)
         n
  in
  let types : (string, string) Hashtbl.t = Hashtbl.create 16 in
  let last_bucket : (string, int) Hashtbl.t = Hashtbl.create 16 in
  let strip_suffix n =
    let drop suf =
      if String.ends_with ~suffix:suf n then
        Some (String.sub n 0 (String.length n - String.length suf))
      else None
    in
    match drop "_total" with
    | Some base -> Some (base, `Total)
    | None -> (
        match drop "_bucket" with
        | Some base -> Some (base, `Bucket)
        | None -> (
            match drop "_sum" with
            | Some base -> Some (base, `Sum)
            | None -> (
                match drop "_count" with
                | Some base -> Some (base, `Count)
                | None -> None)))
  in
  let check_sample line =
    (* name[{labels}] value *)
    let name_end =
      let rec go i =
        if i >= String.length line then i
        else match line.[i] with '{' | ' ' -> i | _ -> go (i + 1)
      in
      go 0
    in
    let name = String.sub line 0 name_end in
    if not (legal_name name) then false
    else
      let rest = String.sub line name_end (String.length line - name_end) in
      let labels, value_str =
        if rest <> "" && rest.[0] = '{' then
          match String.index_opt rest '}' with
          | None -> ("", "")
          | Some close ->
              ( String.sub rest 1 (close - 1),
                String.trim
                  (String.sub rest (close + 1) (String.length rest - close - 1))
              )
        else ("", String.trim rest)
      in
      if value_str = "" || float_of_string_opt value_str = None then false
      else
        let family_ok =
          match strip_suffix name with
          | Some (base, kind) when Hashtbl.mem types base -> (
              let ty = Hashtbl.find types base in
              match (ty, kind) with
              | "counter", `Total -> true
              | "histogram", (`Bucket | `Sum | `Count) -> true
              | _ ->
                  (* e.g. a gauge that happens to end in _count *)
                  Hashtbl.mem types name)
          | _ -> Hashtbl.mem types name
        in
        if not family_ok then false
        else if String.length labels > 6 && String.sub labels 0 4 = "le=\"" then begin
          (* cumulative-bucket check per family *)
          match strip_suffix name with
          | Some (base, `Bucket) ->
              let v = int_of_float (float_of_string value_str) in
              let prev =
                match Hashtbl.find_opt last_bucket base with
                | Some p -> p
                | None -> 0
              in
              if v < prev then false
              else begin
                Hashtbl.replace last_bucket base v;
                true
              end
          | _ -> true
        end
        else true
  in
  let lines = String.split_on_char '\n' text in
  let rec go saw_eof = function
    | [] -> saw_eof
    | "" :: rest -> go saw_eof rest
    | line :: rest ->
        if saw_eof then false (* nothing may follow # EOF *)
        else if line = "# EOF" then go true rest
        else if String.length line > 0 && line.[0] = '#' then begin
          match String.split_on_char ' ' line with
          | "#" :: "TYPE" :: name :: [ ty ] ->
              if
                legal_name name
                && List.mem ty [ "counter"; "gauge"; "histogram"; "summary" ]
              then begin
                Hashtbl.replace types name ty;
                go saw_eof rest
              end
              else false
          | "#" :: "HELP" :: name :: _ ->
              if legal_name name then go saw_eof rest else false
          | _ -> false
        end
        else if check_sample line then go saw_eof rest
        else false
  in
  go false lines

let table () =
  let b = Buffer.create 1024 in
  let samples = Metrics.dump () in
  let name_w =
    List.fold_left
      (fun w (s : Metrics.sample) -> max w (String.length s.Metrics.name))
      20 samples
  in
  Buffer.add_string b
    (Printf.sprintf "%-*s %-9s %12s  %s\n" name_w "metric" "type" "value"
       "detail");
  Buffer.add_string b (String.make (name_w + 50) '-' ^ "\n");
  List.iter
    (fun (s : Metrics.sample) ->
      let unit_ = match s.Metrics.unit_ with Some u -> " " ^ u | None -> "" in
      match s.Metrics.value with
      | Metrics.Sample_counter v ->
          Buffer.add_string b
            (Printf.sprintf "%-*s %-9s %12d%s\n" name_w s.Metrics.name
               "counter" v unit_)
      | Metrics.Sample_gauge v ->
          Buffer.add_string b
            (Printf.sprintf "%-*s %-9s %12d%s\n" name_w s.Metrics.name "gauge"
               v unit_)
      | Metrics.Sample_hist h ->
          Buffer.add_string b
            (Printf.sprintf
               "%-*s %-9s %12d%s  min %d  p50 %d  p90 %d  p99 %d  max %d\n"
               name_w s.Metrics.name "histogram" h.Metrics.count unit_
               h.Metrics.min_ h.Metrics.p50 h.Metrics.p90 h.Metrics.p99
               h.Metrics.max_))
    samples;
  let rec add_span indent sp =
    Buffer.add_string b
      (Printf.sprintf "%s%s  %d us%s\n" (String.make indent ' ') sp.Span.name
         sp.Span.dur_us
         (match sp.Span.deltas with
         | [] -> ""
         | l ->
             "  ["
             ^ String.concat ", "
                 (List.map (fun (k, v) -> Printf.sprintf "%s +%d" k v) l)
             ^ "]"));
    List.iter (add_span (indent + 2)) sp.Span.children
  in
  (match Span.roots () with
  | [] -> ()
  | roots ->
      Buffer.add_string b "\nphase spans:\n";
      List.iter (add_span 2) roots);
  Buffer.contents b

let write_file ?(site = "artifact") path v =
  match Storage.write_atomic ~site ~path (to_string v) with
  | Ok () -> ()
  | Error e -> raise (Sys_error (Storage.err_to_string e))
