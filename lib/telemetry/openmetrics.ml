(* OpenMetrics / Prometheus text exposition of a frozen record, plus a
   self-contained format validator (the repo carries no HTTP or metrics
   dependency; CI runs the validator over the exported snapshot).

   Mapping:
   - every metric name is prefixed [powercode_] with dots mangled to
     underscores;
   - counters become counter families ([# TYPE fam counter], sample
     [fam_total v]);
   - histograms are categorical (tau names, log2 sizes), not cumulative,
     so they export as counter families labeled [{bucket="..."}] with zero
     buckets elided;
   - gauges export every slot as [{slot="..."}] — a zero level is a
     reading, not an absence;
   - spans export as three families labeled [{path="..."}]:
     [powercode_span_calls] (counter), [powercode_span_ns] (counter),
     [powercode_span_max_ns] (gauge);
   - the exposition ends with [# EOF] per the OpenMetrics spec. *)

let mangle name =
  let b = Buffer.create (String.length name + 10) in
  Buffer.add_string b "powercode_";
  String.iter
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> Buffer.add_char b c
      | _ -> Buffer.add_char b '_')
    name;
  Buffer.contents b

(* Label-value and HELP escaping: backslash, double quote, newline. *)
let escape s =
  let b = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string b "\\\\"
      | '"' -> Buffer.add_string b "\\\""
      | '\n' -> Buffer.add_string b "\\n"
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let to_string (f : Metrics.frozen) =
  let b = Buffer.create 4096 in
  let p fmt = Printf.bprintf b fmt in
  let header fam kind doc =
    p "# TYPE %s %s\n" fam kind;
    if doc <> "" then p "# HELP %s %s\n" fam (escape doc)
  in
  List.iter
    (fun (name, _, total) ->
      let fam = mangle name in
      header fam "counter" (Metrics.doc name);
      p "%s_total %d\n" fam total)
    f.Metrics.counters;
  List.iter
    (fun (name, _, buckets) ->
      let fam = mangle name in
      header fam "counter" (Metrics.doc name);
      List.iter
        (fun (label, n) ->
          if n > 0 then p "%s_total{bucket=\"%s\"} %d\n" fam (escape label) n)
        buckets)
    f.Metrics.histograms;
  List.iter
    (fun (name, _, slots) ->
      let fam = mangle name in
      header fam "gauge" (Metrics.doc name);
      List.iter
        (fun (label, v) -> p "%s{slot=\"%s\"} %d\n" fam (escape label) v)
        slots)
    f.Metrics.gauges;
  if f.Metrics.spans <> [] then begin
    header "powercode_span_calls" "counter" "Completed calls per span path";
    List.iter
      (fun (path, r) ->
        p "powercode_span_calls_total{path=\"%s\"} %d\n" (escape path)
          r.Metrics.span_count)
      f.Metrics.spans;
    header "powercode_span_ns" "counter"
      "Cumulative wall nanoseconds per span path";
    List.iter
      (fun (path, r) ->
        p "powercode_span_ns_total{path=\"%s\"} %.0f\n" (escape path)
          r.Metrics.total_ns)
      f.Metrics.spans;
    header "powercode_span_max_ns" "gauge"
      "Longest single call in wall nanoseconds per span path";
    List.iter
      (fun (path, r) ->
        p "powercode_span_max_ns{path=\"%s\"} %.0f\n" (escape path)
          r.Metrics.max_ns)
      f.Metrics.spans
  end;
  p "# EOF\n";
  Buffer.contents b

(* ---- validator -------------------------------------------------------- *)

let is_name_start c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_' || c = ':'

let is_name_char c = is_name_start c || (c >= '0' && c <= '9')

let valid_name s =
  String.length s > 0
  && is_name_start s.[0]
  && String.for_all is_name_char s

let is_label_start c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'

let valid_label s =
  String.length s > 0
  && is_label_start s.[0]
  && String.for_all (fun c -> is_label_start c || (c >= '0' && c <= '9')) s

(* Parse [{k="v",...}] starting at [pos] (which must point at '{');
   returns the position just past '}' or an error string.  Label names
   must be unique within one set (per the exposition format) — an
   unescaped quote inside a value is exactly what smuggles a phantom
   second label past a laxer parser. *)
let parse_labelset line pos =
  let len = String.length line in
  let seen : (string, unit) Hashtbl.t = Hashtbl.create 4 in
  let rec labels pos first =
    if pos >= len then Error "unterminated label set"
    else if line.[pos] = '}' then Ok (pos + 1)
    else begin
      let pos =
        if first then pos
        else if line.[pos] = ',' then pos + 1
        else -1
      in
      if pos < 0 then Error "expected ',' between labels"
      else begin
        (* label name *)
        let n0 = pos in
        let rec name_end i =
          if i < len && line.[i] <> '=' && line.[i] <> '}' && line.[i] <> ','
          then name_end (i + 1)
          else i
        in
        let ne = name_end n0 in
        let lname = String.sub line n0 (ne - n0) in
        if not (valid_label lname) then
          Error (Printf.sprintf "bad label name %S" lname)
        else if Hashtbl.mem seen lname then
          Error (Printf.sprintf "duplicate label name %S" lname)
        else if ne >= len || line.[ne] <> '=' then
          Error "expected '=' after label name"
        else if ne + 1 >= len || line.[ne + 1] <> '"' then
          Error "label value must be double-quoted"
        else begin
          Hashtbl.add seen lname ();
          (* quoted value; backslash, quote and newline escapes *)
          let rec value i =
            if i >= len then Error "unterminated label value"
            else
              match line.[i] with
              | '"' -> Ok (i + 1)
              | '\\' ->
                  if i + 1 >= len then Error "dangling escape in label value"
                  else begin
                    match line.[i + 1] with
                    | '\\' | '"' | 'n' -> value (i + 2)
                    | c ->
                        Error (Printf.sprintf "bad escape '\\%c' in label" c)
                  end
              | _ -> value (i + 1)
          in
          match value (ne + 2) with
          | Error e -> Error e
          | Ok after -> labels after false
        end
      end
    end
  in
  labels (pos + 1) true

let validate text =
  let fail lineno msg = Error (Printf.sprintf "line %d: %s" lineno msg) in
  let types : (string, string) Hashtbl.t = Hashtbl.create 64 in
  let helped : (string, unit) Hashtbl.t = Hashtbl.create 64 in
  let saw_eof = ref false in
  let lines = String.split_on_char '\n' text in
  (* a final newline yields one trailing "" which is not a line *)
  let lines =
    match List.rev lines with "" :: rest -> List.rev rest | _ -> lines
  in
  let check_line lineno line =
    if !saw_eof then fail lineno "content after # EOF"
    else if line = "" then fail lineno "empty line"
    else if line = "# EOF" then begin
      saw_eof := true;
      Ok ()
    end
    else if String.length line >= 2 && String.sub line 0 2 = "# " then begin
      (* comment: # TYPE <name> <kind> | # HELP <name> <text> *)
      match String.split_on_char ' ' line with
      | "#" :: "TYPE" :: name :: [ kind ] ->
          if not (valid_name name) then
            fail lineno (Printf.sprintf "bad family name %S" name)
          else if kind <> "counter" && kind <> "gauge" then
            fail lineno
              (Printf.sprintf "unsupported type %S (counter|gauge)" kind)
          else if Hashtbl.mem types name then
            fail lineno (Printf.sprintf "duplicate TYPE for %s" name)
          else begin
            Hashtbl.replace types name kind;
            Ok ()
          end
      | "#" :: "HELP" :: name :: _ :: _ ->
          if not (valid_name name) then
            fail lineno (Printf.sprintf "bad family name %S" name)
          else if not (Hashtbl.mem types name) then
            fail lineno (Printf.sprintf "HELP for undeclared family %s" name)
          else if Hashtbl.mem helped name then
            fail lineno (Printf.sprintf "duplicate HELP for %s" name)
          else begin
            Hashtbl.replace helped name ();
            Ok ()
          end
      | _ -> fail lineno "malformed comment (expected # TYPE / # HELP / # EOF)"
    end
    else begin
      (* sample: name[{labels}] value *)
      let len = String.length line in
      let rec name_end i =
        if i < len && is_name_char line.[i] then name_end (i + 1) else i
      in
      let ne = name_end 0 in
      let sample = String.sub line 0 ne in
      if not (valid_name sample) then
        fail lineno (Printf.sprintf "bad sample name %S" sample)
      else begin
        let after_labels =
          if ne < len && line.[ne] = '{' then parse_labelset line ne
          else Ok ne
        in
        match after_labels with
        | Error e -> fail lineno e
        | Ok vpos ->
            if vpos >= len || line.[vpos] <> ' ' then
              fail lineno "expected single space before value"
            else begin
              let value = String.sub line (vpos + 1) (len - vpos - 1) in
              if value = "" || String.contains value ' ' then
                fail lineno "expected exactly one value after the space"
              else if Option.is_none (float_of_string_opt value) then
                fail lineno (Printf.sprintf "bad value %S" value)
              else begin
                (* family resolution: counters sample as fam_total *)
                let family =
                  if Hashtbl.mem types sample then Some sample
                  else
                    let n = String.length sample in
                    if
                      n > 6
                      && String.sub sample (n - 6) 6 = "_total"
                      && Hashtbl.mem types (String.sub sample 0 (n - 6))
                    then Some (String.sub sample 0 (n - 6))
                    else None
                in
                match family with
                | None ->
                    fail lineno
                      (Printf.sprintf "sample %s has no preceding TYPE" sample)
                | Some fam ->
                    let kind = Hashtbl.find types fam in
                    if kind = "counter" && fam = sample then
                      fail lineno
                        (Printf.sprintf
                           "counter %s must sample as %s_total" fam fam)
                    else if kind = "gauge" && fam <> sample then
                      fail lineno
                        (Printf.sprintf "gauge %s must sample as %s" fam fam)
                    else Ok ()
              end
            end
      end
    end
  in
  let rec go lineno = function
    | [] -> if !saw_eof then Ok () else Error "missing # EOF terminator"
    | line :: rest -> (
        match check_line lineno line with
        | Error _ as e -> e
        | Ok () -> go (lineno + 1) rest)
  in
  go 1 lines
