(* Reporters over a frozen record.  The JSON form is written by hand with
   [Json.escape] and embeds as one object, e.g. the "telemetry" key of
   BENCH_encoding.json; the human form is what the CLI's --stats flag
   prints to stderr. *)

let to_json (f : Metrics.frozen) =
  let b = Buffer.create 1024 in
  let p fmt = Printf.bprintf b fmt in
  let sep_iter items emit =
    List.iteri (fun i x ->
        if i > 0 then p ",";
        emit x)
      items
  in
  p "{";
  p "\"counters\": {";
  sep_iter f.Metrics.counters (fun (name, _, total) ->
      p "\"%s\": %d" (Json.escape name) total);
  p "}, ";
  p "\"histograms\": {";
  sep_iter f.Metrics.histograms (fun (name, _, buckets) ->
      p "\"%s\": {" (Json.escape name);
      (* zero buckets are elided: the label set is large and sparse *)
      sep_iter
        (List.filter (fun (_, n) -> n > 0) buckets)
        (fun (label, n) -> p "\"%s\": %d" (Json.escape label) n);
      p "}");
  p "}, ";
  p "\"gauges\": {";
  sep_iter f.Metrics.gauges (fun (name, _, slots) ->
      p "\"%s\": {" (Json.escape name);
      (* all slots, even zero: a gauge's slot set is small and fixed, and a
         zero level is a reading, not an absence *)
      sep_iter slots (fun (label, v) -> p "\"%s\": %d" (Json.escape label) v);
      p "}");
  p "}, ";
  p "\"spans\": {";
  sep_iter f.Metrics.spans (fun (path, r) ->
      p "\"%s\": {\"count\": %d, \"total_ns\": %.0f, \"max_ns\": %.0f}"
        (Json.escape path) r.Metrics.span_count r.Metrics.total_ns
        r.Metrics.max_ns);
  p "}";
  p "}";
  Buffer.contents b

let stability_str = function
  | Metrics.Stable -> "stable"
  | Metrics.Runtime -> "runtime"

(* The bench JSON's "telemetry" object: like [to_json] but every counter,
   histogram and gauge carries its registry doc and stability class, so the
   schema is inspectable from the artifact without grepping registry.mli.
   Docs come from [Metrics.registered]; a metric frozen before this process
   registered it (impossible today) would fall back to an empty doc. *)
let to_json_annotated (f : Metrics.frozen) =
  let docs = Hashtbl.create 64 in
  List.iter
    (fun (name, _, _, doc) -> Hashtbl.replace docs name doc)
    (Metrics.registered ());
  let doc_of name =
    match Hashtbl.find_opt docs name with Some d -> d | None -> ""
  in
  let b = Buffer.create 4096 in
  let p fmt = Printf.bprintf b fmt in
  let sep_iter items emit =
    List.iteri (fun i x ->
        if i > 0 then p ",";
        emit x)
      items
  in
  p "{";
  p "\"counters\": {";
  sep_iter f.Metrics.counters (fun (name, st, total) ->
      p "\"%s\": {\"value\": %d, \"stability\": \"%s\", \"doc\": \"%s\"}"
        (Json.escape name) total (stability_str st)
        (Json.escape (doc_of name)));
  p "}, ";
  p "\"histograms\": {";
  sep_iter f.Metrics.histograms (fun (name, st, buckets) ->
      p "\"%s\": {\"stability\": \"%s\", \"doc\": \"%s\", \"buckets\": {"
        (Json.escape name) (stability_str st)
        (Json.escape (doc_of name));
      sep_iter
        (List.filter (fun (_, n) -> n > 0) buckets)
        (fun (label, n) -> p "\"%s\": %d" (Json.escape label) n);
      p "}}");
  p "}, ";
  p "\"gauges\": {";
  sep_iter f.Metrics.gauges (fun (name, st, slots) ->
      p "\"%s\": {\"stability\": \"%s\", \"doc\": \"%s\", \"slots\": {"
        (Json.escape name) (stability_str st)
        (Json.escape (doc_of name));
      sep_iter slots (fun (label, v) -> p "\"%s\": %d" (Json.escape label) v);
      p "}}");
  p "}, ";
  p "\"spans\": {";
  sep_iter f.Metrics.spans (fun (path, r) ->
      p "\"%s\": {\"count\": %d, \"total_ns\": %.0f, \"max_ns\": %.0f}"
        (Json.escape path) r.Metrics.span_count r.Metrics.total_ns
        r.Metrics.max_ns);
  p "}";
  p "}";
  Buffer.contents b

(* Self time per span path: total minus the totals of direct children
   (paths one '/'-segment deeper).  Negative rounding residue clamps to 0.
   Sorted by self time, heaviest first — the profile subcommand's table. *)
let self_times (f : Metrics.frozen) =
  let direct_child_total path =
    let prefix = path ^ "/" in
    let plen = String.length prefix in
    List.fold_left
      (fun acc (p, r) ->
        if
          String.length p > plen
          && String.sub p 0 plen = prefix
          && not (String.contains_from p plen '/')
        then acc +. r.Metrics.total_ns
        else acc)
      0.0 f.Metrics.spans
  in
  f.Metrics.spans
  |> List.map (fun (path, r) ->
         let self =
           Float.max 0.0 (r.Metrics.total_ns -. direct_child_total path)
         in
         (path, r.Metrics.span_count, r.Metrics.total_ns, self))
  |> List.sort (fun (_, _, _, a) (_, _, _, b) -> Float.compare b a)

let human_ns v =
  if v >= 1e9 then Printf.sprintf "%.2f s" (v /. 1e9)
  else if v >= 1e6 then Printf.sprintf "%.2f ms" (v /. 1e6)
  else if v >= 1e3 then Printf.sprintf "%.2f us" (v /. 1e3)
  else Printf.sprintf "%.0f ns" v

let stability_header = function
  | Metrics.Stable -> "stable (workload-derived, order-independent)"
  | Metrics.Runtime -> "runtime (cache/scheduling/time-dependent)"

(* Did the window record anything at all?  Distinguishes "collection was
   never enabled" (or an empty delta) from a legitimately quiet report, so
   --stats never prints pages of zeros without saying why. *)
let has_data (f : Metrics.frozen) =
  List.exists (fun (_, _, v) -> v <> 0) f.Metrics.counters
  || List.exists
       (fun (_, _, buckets) -> List.exists (fun (_, n) -> n <> 0) buckets)
       f.Metrics.histograms
  || List.exists
       (fun (_, _, slots) -> List.exists (fun (_, v) -> v <> 0) slots)
       f.Metrics.gauges
  || f.Metrics.spans <> []

let pp_human fmt (f : Metrics.frozen) =
  if not (has_data f) then
    Format.fprintf fmt
      "telemetry: nothing recorded — collection was disabled or no \
       instrumented work ran in this window (enable with --stats or \
       Telemetry.Metrics.set_enabled).@."
  else
  let counters_of cls =
    List.filter (fun (_, s, _) -> s = cls) f.Metrics.counters
  in
  List.iter
    (fun cls ->
      match counters_of cls with
      | [] -> ()
      | cs ->
          Format.fprintf fmt "telemetry counters — %s@." (stability_header cls);
          List.iter
            (fun (name, _, total) ->
              Format.fprintf fmt "  %-28s %12d@." name total)
            cs)
    [ Metrics.Stable; Metrics.Runtime ];
  List.iter
    (fun (name, _, buckets) ->
      match List.filter (fun (_, n) -> n > 0) buckets with
      | [] -> ()
      | live ->
          Format.fprintf fmt "telemetry histogram — %s@." name;
          List.iter
            (fun (label, n) -> Format.fprintf fmt "  %-28s %12d@." label n)
            live)
    f.Metrics.histograms;
  List.iter
    (fun (name, _, slots) ->
      match List.filter (fun (_, v) -> v <> 0) slots with
      | [] -> ()
      | live ->
          Format.fprintf fmt "telemetry gauge — %s@." name;
          List.iter
            (fun (label, v) -> Format.fprintf fmt "  %-28s %12d@." label v)
            live)
    f.Metrics.gauges;
  if f.Metrics.spans <> [] then begin
    Format.fprintf fmt
      "telemetry spans — path, calls, total, max (children indent under \
       parents)@.";
    List.iter
      (fun (path, r) ->
        (* the sorted paths put parents right before children; indent by
           nesting depth and show only the leaf segment *)
        let depth =
          String.fold_left (fun d c -> if c = '/' then d + 1 else d) 0 path
        in
        let leaf =
          match String.rindex_opt path '/' with
          | None -> path
          | Some i -> String.sub path (i + 1) (String.length path - i - 1)
        in
        Format.fprintf fmt "  %s%-*s %8d %12s %12s@."
          (String.make (2 * depth) ' ')
          (max 1 (28 - (2 * depth)))
          leaf r.Metrics.span_count
          (human_ns r.Metrics.total_ns)
          (human_ns r.Metrics.max_ns))
      f.Metrics.spans
  end
