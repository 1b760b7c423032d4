(* Speedscope flamegraph export over the span tree.

   [Telemetry.Metrics.with_spans] hands over every span exit as an
   interval (full path, recording domain, wall-clock endpoints).
   Speedscope's "evented" profile format wants a per-thread stream of
   open/close events whose frames nest like a call stack; spans
   nest lexically per domain, so sorting each domain's intervals by start
   time (ties: longer first, i.e. parents before children) and sweeping
   with a stack reconstructs exactly that stream.  Clock jitter between a
   parent's recorded stop and a child's can make a child overhang its
   parent by a few nanoseconds; children clamp to the enclosing interval so
   the output always nests.

   Frames are named by the span's leaf segment (the path is recoverable
   from nesting in the viewer), deduplicated into the shared frame table.
   Times are nanoseconds normalized to the earliest span start. *)

let schema_url = "https://www.speedscope.app/file-format-schema.json"

type interval = { frame : int; i_start : float; i_stop : float }

let leaf path =
  match String.rindex_opt path '/' with
  | None -> path
  | Some i -> String.sub path (i + 1) (String.length path - i - 1)

(* One domain's open/close event stream, [(typ, frame, at)] with [at]
   non-decreasing, from start-sorted intervals. *)
let sweep intervals =
  let sorted =
    List.sort
      (fun a b ->
        match Float.compare a.i_start b.i_start with
        | 0 -> Float.compare b.i_stop a.i_stop
        | c -> c)
      intervals
  in
  let out = ref [] in
  let emit typ frame at = out := (typ, frame, at) :: !out in
  let stack = ref [] in
  let pop () =
    match !stack with
    | [] -> ()
    | iv :: rest ->
        emit 'C' iv.frame iv.i_stop;
        stack := rest
  in
  List.iter
    (fun iv ->
      let rec close_finished () =
        match !stack with
        | top :: _ when top.i_stop <= iv.i_start ->
            pop ();
            close_finished ()
        | _ -> ()
      in
      close_finished ();
      let stop =
        match !stack with
        | [] -> iv.i_stop
        | top :: _ -> Float.min iv.i_stop top.i_stop
      in
      let iv = { iv with i_stop = Float.max iv.i_start stop } in
      emit 'O' iv.frame iv.i_start;
      stack := iv :: !stack)
    sorted;
  while !stack <> [] do
    pop ()
  done;
  List.rev !out

let to_string ?(name = "powercode profile") spans =
  let frames = Hashtbl.create 32 in
  let frame_names = ref [] in
  let nframes = ref 0 in
  let frame_of path =
    let n = leaf path in
    match Hashtbl.find_opt frames n with
    | Some i -> i
    | None ->
        let i = !nframes in
        Hashtbl.replace frames n i;
        frame_names := n :: !frame_names;
        incr nframes;
        i
  in
  let t0 =
    List.fold_left
      (fun acc { Telemetry.Metrics.start_ns; _ } -> Float.min acc start_ns)
      infinity spans
  in
  let by_tid : (int, interval list ref) Hashtbl.t = Hashtbl.create 8 in
  let tids = ref [] in
  List.iter
    (fun { Telemetry.Metrics.path; tid; start_ns; stop_ns } ->
      let iv =
        {
          frame = frame_of path;
          i_start = start_ns -. t0;
          i_stop = Float.max (start_ns -. t0) (stop_ns -. t0);
        }
      in
      match Hashtbl.find_opt by_tid tid with
      | Some l -> l := iv :: !l
      | None ->
          Hashtbl.add by_tid tid (ref [ iv ]);
          tids := tid :: !tids)
    spans;
  let tids = List.sort compare !tids in
  let b = Buffer.create 4096 in
  let p fmt = Printf.bprintf b fmt in
  p "{\n";
  p "  \"$schema\": \"%s\",\n" schema_url;
  p "  \"name\": \"%s\",\n" (Telemetry.Json.escape name);
  p "  \"exporter\": \"powercode\",\n";
  if tids <> [] then p "  \"activeProfileIndex\": 0,\n";
  p "  \"shared\": {\"frames\": [";
  List.iteri
    (fun i n ->
      if i > 0 then p ", ";
      p "{\"name\": \"%s\"}" (Telemetry.Json.escape n))
    (List.rev !frame_names);
  p "]},\n";
  p "  \"profiles\": [";
  List.iteri
    (fun i tid ->
      if i > 0 then p ",";
      let intervals = !(Hashtbl.find by_tid tid) in
      let events = sweep intervals in
      let end_value =
        List.fold_left
          (fun acc iv -> Float.max acc iv.i_stop)
          0.0 intervals
      in
      p "\n    {\"type\": \"evented\", \"name\": \"domain %d\", " tid;
      p "\"unit\": \"nanoseconds\", ";
      p "\"startValue\": 0, \"endValue\": %.0f, \"events\": [" end_value;
      List.iteri
        (fun j (typ, frame, at) ->
          if j > 0 then p ", ";
          p "{\"type\": \"%c\", \"frame\": %d, \"at\": %.0f}" typ frame at)
        events;
      p "]}")
    tids;
  if tids <> [] then p "\n  ";
  p "]\n";
  p "}\n";
  Buffer.contents b
