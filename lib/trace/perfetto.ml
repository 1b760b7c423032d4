let default_max_counter_samples = 2000

(* Cumulative transition counts along the fetch stream, downsampled to at
   most [max] points (always keeping the final one so the end value of the
   counter track is exact). *)
let counter_samples ~max events =
  let ticks = ref [] and n = ref 0 in
  let nimages = ref 0 in
  let last_fetch = ref None in
  let prev_base = ref None in
  let prevs = ref [||] in
  let base_total = ref 0 and enc_totals = ref [||] in
  let ensure_images n =
    if n > !nimages then begin
      let grow a fill = Array.init n (fun i -> if i < Array.length a then a.(i) else fill) in
      prevs := grow !prevs None;
      enc_totals := grow !enc_totals 0;
      nimages := n
    end
  in
  let flush_tick t =
    incr n;
    ticks := (t, !base_total, Array.copy !enc_totals) :: !ticks
  in
  List.iter
    (fun e ->
      match e with
      | Event.Fetch { time; word; _ } ->
          (match !prev_base with
          | Some p -> base_total := !base_total + Bitutil.Popcount.count32 (p lxor word)
          | None -> ());
          prev_base := Some word;
          last_fetch := Some time
      | Event.Bus { time; encoded; _ } ->
          ensure_images (Array.length encoded);
          let prevs = !prevs and enc_totals = !enc_totals in
          Array.iteri
            (fun i w ->
              (match prevs.(i) with
              | Some p ->
                  enc_totals.(i) <- enc_totals.(i) + Bitutil.Popcount.count32 (p lxor w)
              | None -> ());
              prevs.(i) <- Some w)
            encoded;
          flush_tick time
      | _ -> ())
    events;
  (* A pure-baseline trace (no Bus events) still gets a counter track. *)
  (if !n = 0 then
     match !last_fetch with Some t -> flush_tick t | None -> ());
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
  (!nimages, List.rev !kept)

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
  let nimages, samples = counter_samples ~max:max_counter_samples events in
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
      for i = 0 to nimages - 1 do
        obj
          [ ("ph", str "C"); ("pid", "2"); ("tid", "0");
            ("name", str (name_of i)); ("ts", string_of_int t);
            ("args", Printf.sprintf "{\"transitions\":%d}" encs.(i)) ]
      done)
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
