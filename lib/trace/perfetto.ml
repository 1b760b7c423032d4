let default_max_counter_samples = 2000

(* Cumulative transition counts along the fetch stream, as the collector
   recorded them on each Fetch and Bus event, downsampled to at most [max]
   points (always keeping the final one so the end value of the counter
   track is exact).  A wrapped ring may open mid-fetch: Bus events before
   the first retained Fetch are skipped, as their baseline total went
   with it. *)
let counter_samples ~max events =
  let ticks = ref [] and last_fetch = ref None and base_total = ref 0 in
  List.iter
    (function
      | Event.Fetch { time; transitions; _ } ->
          base_total := transitions;
          last_fetch := Some time
      | Event.Bus { time; transitions; _ } when !last_fetch <> None ->
          ticks := (time, !base_total, transitions) :: !ticks
      | _ -> ())
    events;
  (* A pure-baseline trace (no Bus events) still gets a counter track. *)
  (if !ticks = [] then
     match !last_fetch with
     | Some t -> ticks := [ (t, !base_total, [||]) ]
     | None -> ());
  let samples = List.rev !ticks in
  let total = List.length samples in
  (* ceiling division: floor keeps stride 1 up to 2 * max - 1 ticks, which
     would overshoot the cap for every count in (max, 2 * max) *)
  let max = Stdlib.max 1 max in
  let stride = Stdlib.max 1 ((total + max - 1) / max) in
  let kept = ref [] in
  List.iteri
    (fun i s -> if i mod stride = 0 || i = total - 1 then kept := s :: !kept)
    samples;
  List.rev !kept

let to_string ?(max_counter_samples = default_max_counter_samples) ~encoded_names
    events =
  let b = Buffer.create 8192 in
  let first = ref true in
  let obj fields =
    if !first then first := false else Buffer.add_char b ',';
    Buffer.add_string b "\n  {";
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char b ',';
        Buffer.add_string b (Printf.sprintf "\"%s\":%s" k v))
      fields;
    Buffer.add_char b '}'
  in
  let str s = "\"" ^ Telemetry.Json.escape s ^ "\"" in
  let num f =
    if Float.is_integer f && Float.abs f < 1e15 then
      Printf.sprintf "%.0f" f
    else Printf.sprintf "%.3f" f
  in
  Buffer.add_string b "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
  (* process names *)
  obj
    [ ("ph", str "M"); ("pid", "1"); ("name", str "process_name");
      ("args", "{\"name\":" ^ str "telemetry spans" ^ "}") ];
  obj
    [ ("ph", str "M"); ("pid", "2"); ("name", str "process_name");
      ("args", "{\"name\":" ^ str "fetch stream" ^ "}") ];
  (* spans: wall-clock, one track per recording domain *)
  List.iter
    (fun e ->
      match e with
      | Event.Span { path; tid; start_ns; stop_ns } ->
          obj
            [ ("ph", str "X"); ("pid", "1"); ("tid", string_of_int tid);
              ("name", str path); ("cat", str "telemetry");
              ("ts", num (start_ns /. 1e3));
              ("dur", num ((stop_ns -. start_ns) /. 1e3)) ]
      | _ -> ())
    events;
  (* counters: cumulative transitions along the fetch-tick axis *)
  let samples = counter_samples ~max:max_counter_samples events in
  let name_of i =
    match List.nth_opt encoded_names i with
    | Some n -> "transitions." ^ n
    | None -> Printf.sprintf "transitions.image%d" i
  in
  List.iter
    (fun (t, base, encs) ->
      obj
        [ ("ph", str "C"); ("pid", "2"); ("tid", "0");
          ("name", str "transitions.baseline"); ("ts", string_of_int t);
          ("args", Printf.sprintf "{\"transitions\":%d}" base) ];
      Array.iteri
        (fun i enc ->
          obj
            [ ("ph", str "C"); ("pid", "2"); ("tid", "0");
              ("name", str (name_of i)); ("ts", string_of_int t);
              ("args", Printf.sprintf "{\"transitions\":%d}" enc) ])
        encs)
    samples;
  (* instants: TT reprogramming *)
  List.iter
    (function
      | Event.Tt_program { time; index } ->
          obj
            [ ("ph", str "i"); ("pid", "2"); ("tid", "0");
              ("name", str "tt.program"); ("s", str "t");
              ("ts", string_of_int time);
              ("args", Printf.sprintf "{\"index\":%d}" index) ]
      | _ -> ())
    events;
  Buffer.add_string b "\n]}\n";
  Buffer.contents b
