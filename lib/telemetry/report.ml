(* Reporters over a frozen record.  The JSON form is written by hand with
   [Json.escape] and embeds as one object, e.g. the "telemetry" key of
   BENCH_encoding.json; the human form is what the CLI's --stats flag
   prints to stderr. *)

(* One writer for both forms.  [annotated] is the bench JSON's "telemetry"
   object: every counter, histogram and gauge also carries its stability
   class and registry doc, so the schema is inspectable from the artifact
   without grepping registry.mli. *)
let write ~annotated (f : Metrics.frozen) =
  let b = Buffer.create 1024 in
  let p fmt = Printf.bprintf b fmt in
  let sep_iter items emit =
    List.iteri (fun i x ->
        if i > 0 then p ",";
        emit x)
      items
  in
  let section key items emit =
    p "\"%s\": {" key;
    sep_iter items emit;
    p "}"
  in
  let meta name st =
    p "\"stability\": \"%s\", \"doc\": \"%s\"" (Metrics.stability_name st)
      (Json.escape (Metrics.doc name))
  in
  let labelled key (name, st, values) =
    p "\"%s\": {" (Json.escape name);
    if annotated then begin
      meta name st;
      p ", \"%s\": {" key
    end;
    sep_iter values (fun (label, v) -> p "\"%s\": %d" (Json.escape label) v);
    p (if annotated then "}}" else "}")
  in
  p "{";
  section "counters" f.Metrics.counters (fun (name, st, total) ->
      if annotated then begin
        p "\"%s\": {\"value\": %d, " (Json.escape name) total;
        meta name st;
        p "}"
      end
      else p "\"%s\": %d" (Json.escape name) total);
  p ", ";
  (* zero buckets are elided: the label set is large and sparse *)
  section "histograms" f.Metrics.histograms (fun (name, st, buckets) ->
      labelled "buckets" (name, st, List.filter (fun (_, n) -> n > 0) buckets));
  p ", ";
  (* all slots, even zero: a gauge's slot set is small and fixed, and a
     zero level is a reading, not an absence *)
  section "gauges" f.Metrics.gauges (labelled "slots");
  p ", ";
  section "spans" f.Metrics.spans (fun (path, r) ->
      p "\"%s\": {\"count\": %d, \"total_ns\": %.0f, \"max_ns\": %.0f}"
        (Json.escape path) r.Metrics.span_count r.Metrics.total_ns
        r.Metrics.max_ns);
  p "}";
  Buffer.contents b

let to_json = write ~annotated:false
let to_json_annotated = write ~annotated:true

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
