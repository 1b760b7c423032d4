(* The tracing subsystem: ring-buffer mechanics, collector gating, the VCD
   round-trip (generated dumps parse back to the recorded words), Perfetto
   document shape, and — the load-bearing guarantee — per-bitline / per-block
   attribution summing bit-exactly to the aggregate transition counts of
   Pipeline.Evaluate for every benchmark and every block size. *)

module Event = Trace.Event
module Ring = Telemetry.Ring
module Collector = Trace.Collector
module Vcd = Trace.Vcd
module Attribution = Trace.Attribution
module Evaluate = Pipeline.Evaluate

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let scaled name = Workloads.by_name Workloads.scaled name

(* a Fetch whose running baseline total no test reads *)
let fetch ~time ~pc ~word = Event.Fetch { time; pc; word; transitions = 0 }

(* every trace test must leave the global collector clean *)
let with_collector ?capacity f =
  Collector.start ?capacity ();
  Fun.protect ~finally:(fun () -> Collector.clear ()) f

(* ---- ring -------------------------------------------------------------- *)

let test_ring_wrap () =
  let dummy = fetch ~time:0 ~pc:0 ~word:0 in
  let r = Ring.create ~capacity:3 ~dummy in
  check_int "empty" 0 (List.length (Ring.to_list r));
  for i = 1 to 5 do
    Ring.push r (fetch ~time:i ~pc:i ~word:i)
  done;
  check_int "length capped" 3 (Ring.length r);
  check_int "pushed counts everything" 5 (Ring.pushed r);
  check_int "dropped = pushed - capacity" 2 (Ring.dropped r);
  let times =
    List.map
      (function Event.Fetch { time; _ } -> time | _ -> -1)
      (Ring.to_list r)
  in
  Alcotest.(check (list int)) "suffix window, oldest first" [ 3; 4; 5 ] times;
  Ring.clear r;
  check_int "clear empties" 0 (Ring.length r);
  check_int "clear resets dropped" 0 (Ring.dropped r)

let test_ring_rejects_empty () =
  Alcotest.check_raises "capacity 0"
    (Invalid_argument "Telemetry.Ring.create: capacity < 1") (fun () ->
      ignore (Ring.create ~capacity:0 ~dummy:(fetch ~time:0 ~pc:0 ~word:0)))

(* ---- collector --------------------------------------------------------- *)

let test_collector_gating () =
  Collector.clear ();
  check_bool "disabled by default" false (Collector.enabled ());
  Collector.fetch ~pc:0 ~word:1;
  Collector.emit (fetch ~time:0 ~pc:0 ~word:1);
  check_int "no events while disabled" 0 (List.length (Collector.events ()));
  check_int "clock did not move" 0 (Collector.fetches ());
  with_collector @@ fun () ->
  check_bool "enabled after start" true (Collector.enabled ());
  Collector.fetch ~pc:7 ~word:42;
  Collector.fetch ~pc:8 ~word:43;
  Collector.emit (Event.Tt_program { time = Collector.now (); index = 3 });
  check_int "fetch ticks" 2 (Collector.fetches ());
  check_int "now is the current tick" 1 (Collector.now ());
  (match Collector.events () with
  | [ Event.Fetch f0; Event.Fetch f1; Event.Tt_program t ] ->
      check_int "tick 0" 0 f0.time;
      check_int "tick 1" 1 f1.time;
      check_int "stamped with current tick" 1 t.time
  | evs -> Alcotest.failf "unexpected event shape (%d events)" (List.length evs));
  Collector.stop ();
  Collector.fetch ~pc:9 ~word:44;
  check_int "stop gates recording" 3 (List.length (Collector.events ()))

let test_collector_ring_wraps () =
  with_collector ~capacity:4 @@ fun () ->
  for pc = 0 to 9 do
    Collector.fetch ~pc ~word:pc
  done;
  check_int "window" 4 (List.length (Collector.events ()));
  check_int "dropped" 6 (Collector.dropped ())

(* ---- VCD round-trip ---------------------------------------------------- *)

let test_vcd_round_trip_synthetic () =
  let events =
    [
      Event.Fetch { time = 0; pc = 0; word = 5; transitions = 0 };
      Event.Bus
        { time = 0; pc = 0; encoded = [| 3; 7 |]; transitions = [| 0; 0 |] };
      (* word unchanged at tick 1: the baseline change must be elided *)
      Event.Fetch { time = 1; pc = 1; word = 5; transitions = 0 };
      Event.Bus
        { time = 1; pc = 1; encoded = [| 3; 1 |]; transitions = [| 0; 2 |] };
      Event.Block_entry { time = 1; pc = 1; block = 0 };
      Event.Fetch { time = 2; pc = 2; word = 9; transitions = 2 };
      Event.Bus
        { time = 2; pc = 2; encoded = [| 2; 1 |]; transitions = [| 1; 2 |] };
      (* Span events never appear on the tick timeline *)
      Event.Span { path = "x"; tid = 0; start_ns = 0.; stop_ns = 1. };
    ]
  in
  let dump = Vcd.to_string ~encoded_names:[ "k4"; "k5" ] events in
  let p = Vcd.parse dump in
  Alcotest.(check string) "timescale" "1 ns" p.Vcd.timescale;
  Alcotest.(check (list string))
    "declared wires, declaration order"
    [ "baseline"; "k4"; "k5"; "block_entry" ]
    (List.map (fun (v : Vcd.var) -> v.Vcd.name) p.Vcd.vars);
  List.iter
    (fun (v : Vcd.var) ->
      check_int
        (v.Vcd.name ^ " width")
        (if v.Vcd.name = "block_entry" then 1 else 32)
        v.Vcd.width)
    p.Vcd.vars;
  Alcotest.(check (list (pair int int)))
    "baseline change points (elided while constant)"
    [ (0, 5); (2, 9) ]
    (Vcd.changes_for p ~name:"baseline");
  Alcotest.(check (list (pair int int)))
    "k4 change points"
    [ (0, 3); (2, 2) ]
    (Vcd.changes_for p ~name:"k4");
  Alcotest.(check (list (pair int int)))
    "k5 change points"
    [ (0, 7); (1, 1) ]
    (Vcd.changes_for p ~name:"k5");
  Alcotest.(check (list (pair int int)))
    "block_entry pulses exactly at its tick"
    [ (0, 0); (1, 1); (2, 0) ]
    (Vcd.changes_for p ~name:"block_entry")

let test_vcd_rejects_garbage () =
  Alcotest.check_raises "unterminated section"
    (Vcd.Parse_error "unterminated $ section") (fun () ->
      ignore (Vcd.parse "$var wire 32 ! baseline"));
  check_bool "value before #time raises" true
    (match Vcd.parse "b101 !" with
    | exception Vcd.Parse_error _ -> true
    | _ -> false)

let test_vcd_from_real_run () =
  let w = scaled "tri" in
  let report =
    with_collector ~capacity:200_000 @@ fun () ->
    let r = Evaluate.evaluate_workload w in
    check_int "nothing dropped at this capacity" 0 (Collector.dropped ());
    (* only the live run ticks, whether or not the plan cache was warm *)
    check_int "fetch ticks = 1 run of the program" r.Evaluate.instructions
      (Collector.fetches ());
    let events = Collector.events () in
    let dump =
      Vcd.to_string ~encoded_names:[ "k4"; "k5"; "k6"; "k7" ] events
    in
    let p = Vcd.parse dump in
    let names = List.map (fun (v : Vcd.var) -> v.Vcd.name) p.Vcd.vars in
    List.iter
      (fun n -> check_bool ("wire " ^ n) true (List.mem n names))
      [ "baseline"; "k4"; "k5"; "k6"; "k7"; "block_entry"; "tt_program" ];
    (* times strictly increasing, and every change value a 32-bit word *)
    let last = ref (-1) in
    List.iter
      (fun (t, chs) ->
        check_bool "ascending ticks" true (t > !last);
        last := t;
        List.iter
          (fun (_, v) -> check_bool "32-bit value" true (v >= 0 && v < 1 lsl 32))
          chs)
      p.Vcd.changes;
    (* the final baseline change must agree with the last Fetch recorded *)
    let final_word l = match List.rev l with (_, v) :: _ -> v | [] -> -1 in
    let last_fetch =
      List.fold_left
        (fun acc e -> match e with Event.Fetch { word; _ } -> word | _ -> acc)
        (-1) events
    in
    check_int "last baseline value round-trips" last_fetch
      (final_word (Vcd.changes_for p ~name:"baseline"));
    r
  in
  check_bool "evaluation still sane" true (report.Evaluate.baseline_transitions > 0)

(* ---- Perfetto ----------------------------------------------------------- *)

let test_perfetto_shape () =
  let events =
    [
      Event.Span
        { path = "pipeline.evaluate"; tid = 0; start_ns = 1000.; stop_ns = 9000. };
      Event.Fetch { time = 0; pc = 0; word = 0; transitions = 0 };
      Event.Bus { time = 0; pc = 0; encoded = [| 0 |]; transitions = [| 0 |] };
      Event.Fetch { time = 1; pc = 1; word = 7; transitions = 3 };
      Event.Bus { time = 1; pc = 1; encoded = [| 1 |]; transitions = [| 1 |] };
      Event.Tt_program { time = 1; index = 2 };
    ]
  in
  let doc = Trace.Perfetto.to_string ~encoded_names:[ "k5" ] events in
  let contains needle =
    let nl = String.length needle and dl = String.length doc in
    let rec go i = i + nl <= dl && (String.sub doc i nl = needle || go (i + 1)) in
    go 0
  in
  check_bool "envelope" true (String.length doc > 2 && doc.[0] = '{');
  List.iter
    (fun s -> check_bool ("contains " ^ s) true (contains s))
    [
      "\"traceEvents\":[";
      "\"ph\":\"X\"";
      "\"name\":\"pipeline.evaluate\"";
      "\"ph\":\"C\"";
      "\"name\":\"transitions.baseline\"";
      "\"name\":\"transitions.k5\"";
      "\"name\":\"tt.program\"";
    ];
  (* cumulative counter: the k5 track ends at popcount(0 xor 1) = 1 *)
  check_bool "counter value present" true (contains "{\"transitions\":1}")

let count_occurrences doc needle =
  let count = ref 0 and i = ref 0 in
  let nl = String.length needle in
  while !i + nl <= String.length doc do
    if String.sub doc !i nl = needle then incr count;
    incr i
  done;
  !count

let test_perfetto_downsampling_boundaries () =
  (* one Bus event per tick = one counter sample per tick, downsampled to
     at most max_counter_samples points with the final tick always kept *)
  let bus_ticks n =
    let base = Array.make (max n 1) 0 in
    for i = 1 to n - 1 do
      base.(i) <- base.(i - 1) + Bitutil.Popcount.count32 ((i - 1) lxor i)
    done;
    List.concat
      (List.init n (fun i ->
           [
             Event.Fetch { time = i; pc = i; word = i; transitions = base.(i) };
             Event.Bus
               {
                 time = i;
                 pc = i;
                 encoded = [| i land 1 |];
                 transitions = [| i |];
               };
           ]))
  in
  let baseline_samples events =
    count_occurrences
      (Trace.Perfetto.to_string ~encoded_names:[ "k5" ] events)
      "\"name\":\"transitions.baseline\""
  in
  (* exactly at the cap: stride stays 1 and nothing is dropped *)
  check_int "2000 ticks keep all 2000 samples" 2000
    (baseline_samples (bus_ticks 2000));
  (* one past the cap: stride jumps to 2 (ceiling division) — the count
     must drop under the cap, not overshoot to 2001 *)
  check_int "2001 ticks downsample to 1001" 1001
    (baseline_samples (bus_ticks 2001));
  let doc_2001 =
    Trace.Perfetto.to_string ~encoded_names:[ "k5" ] (bus_ticks 2001)
  in
  (* both counter tracks (baseline and k5) sample the final tick *)
  check_int "final tick survives downsampling" 2
    (count_occurrences doc_2001 "\"ts\":2000,");
  (* zero samples: an eventless trace has no counter track at all, and a
     pure-baseline trace (fetches, no Bus) still gets one closing sample *)
  check_int "no events, no counter samples" 0 (baseline_samples []);
  check_int "fetch-only trace gets one sample" 1
    (baseline_samples [ fetch ~time:4 ~pc:0 ~word:9 ])

(* The last value of each counter track of a Perfetto document, by name. *)
let final_counters doc =
  let module J = Telemetry.Json in
  let field k ev = Option.get (J.member k ev) in
  let events =
    match field "traceEvents" (J.of_string doc) with J.Arr l -> l | _ -> []
  in
  List.fold_left
    (fun acc ev ->
      match (field "ph" ev, field "name" ev) with
      | J.Str "C", J.Str name -> (
          match field "transitions" (field "args" ev) with
          | J.Int v -> (name, v) :: List.remove_assoc name acc
          | _ -> acc)
      | _ -> acc)
    [] events

(* A verified sor records about nine events a fetch and wraps the default
   ring, yet every counter track still ends at the report's total: the
   counters are the collector's running totals, not a recount of the
   retained words. *)
let test_perfetto_exact_when_wrapped () =
  let r, doc =
    with_collector @@ fun () ->
    let r = Evaluate.evaluate_workload ~verify:true (scaled "sor") in
    check_bool "the ring wrapped" true (Collector.dropped () > 0);
    ( r,
      Trace.Perfetto.to_string ~encoded_names:[ "k4"; "k5"; "k6"; "k7" ]
        (Collector.events ()) )
  in
  let finals = final_counters doc in
  check_int "baseline ends at TR" r.Evaluate.baseline_transitions
    (List.assoc "transitions.baseline" finals);
  List.iter
    (fun (run : Evaluate.encoded_run) ->
      check_int
        (Printf.sprintf "k%d ends at the report" run.k)
        run.transitions
        (List.assoc (Printf.sprintf "transitions.k%d" run.k) finals))
    r.Evaluate.runs

(* Over an unwrapped session of two evaluates (as [evaluate tri tri]) the
   recorded totals equal a recount of the retained words, each bus
   carrying on from its last word of the first run: an unwrapped export
   reads the counters a recount would give. *)
let test_totals_equal_recount () =
  with_collector ~capacity:200_000 @@ fun () ->
  ignore (Evaluate.evaluate_workload (scaled "tri"));
  ignore (Evaluate.evaluate_workload (scaled "tri"));
  check_int "nothing dropped" 0 (Collector.dropped ());
  let step (last, total) w =
    ( Some w,
      match last with
      | Some p -> total + Bitutil.Popcount.count32 (p lxor w)
      | None -> total )
  in
  let base = ref (None, 0) and images = ref [||] in
  let fetches = ref 0 and buses = ref 0 and mismatches = ref 0 in
  List.iter
    (function
      | Event.Fetch { word; transitions; _ } ->
          incr fetches;
          base := step !base word;
          if snd !base <> transitions then incr mismatches
      | Event.Bus { encoded; transitions; _ } ->
          incr buses;
          if !images = [||] then
            images := Array.map (fun _ -> (None, 0)) encoded;
          Array.iteri (fun i w -> !images.(i) <- step !images.(i) w) encoded;
          if Array.map snd !images <> transitions then incr mismatches
      | _ -> ())
    (Collector.events ());
  check_int "two runs of fetches" (2 * 7046) !fetches;
  check_int "a Bus per fetch" !fetches !buses;
  check_int "events whose totals differ from the recount" 0 !mismatches

let test_vcd_empty_trace () =
  let dump = Vcd.to_string ~encoded_names:[ "k4"; "k5" ] [] in
  let p = Vcd.parse dump in
  Alcotest.(check string) "timescale still declared" "1 ns" p.Vcd.timescale;
  Alcotest.(check (list string))
    "bus wires declared, pulse wires elided"
    [ "baseline"; "k4"; "k5" ]
    (List.map (fun (v : Vcd.var) -> v.Vcd.name) p.Vcd.vars);
  check_int "no change sections" 0 (List.length p.Vcd.changes);
  Alcotest.(check (list (pair int int)))
    "no baseline changes" []
    (Vcd.changes_for p ~name:"baseline")

(* ---- speedscope --------------------------------------------------------- *)

let test_speedscope_structure () =
  let span path tid start_ns stop_ns =
    Event.Span { path; tid; start_ns; stop_ns }
  in
  let doc =
    Trace.Speedscope.to_string ~name:"unit"
      [
        span "pipeline.evaluate" 0 1000. 1100.;
        (* child overhangs its parent by clock jitter: the exporter must
           clamp its close to the parent's, keeping events nested *)
        span "pipeline.evaluate/pipeline.plan" 0 1010. 1130.;
        span "encode.block" 3 1005. 1050.;
        (* same leaf again, other domain: frame table must deduplicate *)
        span "encode.block" 0 1150. 1160.;
      ]
  in
  let contains needle = count_occurrences doc needle > 0 in
  check_bool "schema url" true (contains Trace.Speedscope.schema_url);
  check_bool "document name" true (contains "\"name\": \"unit\"");
  check_int "frames deduplicated by leaf" 3
    (count_occurrences doc "{\"name\": ");
  check_int "one evented profile per domain" 2
    (count_occurrences doc "\"type\": \"evented\"");
  check_bool "profiles named by domain" true
    (contains "\"name\": \"domain 0\"" && contains "\"name\": \"domain 3\"");
  check_bool "active profile set" true (contains "\"activeProfileIndex\": 0");
  check_bool "times normalized to the earliest start" true
    (contains "\"at\": 0}");
  (* frame ids: pipeline.evaluate=0, pipeline.plan=1, encode.block=2 *)
  check_bool "overhanging child clamps to its parent's stop" true
    (contains "{\"type\": \"C\", \"frame\": 1, \"at\": 100}");
  check_bool "parent closes at its own stop" true
    (contains "{\"type\": \"C\", \"frame\": 0, \"at\": 100}");
  check_int "opens and closes balance" 0
    (count_occurrences doc "\"type\": \"O\""
    - count_occurrences doc "\"type\": \"C\"")

let test_speedscope_empty_trace () =
  let doc = Trace.Speedscope.to_string [] in
  let contains needle = count_occurrences doc needle > 0 in
  check_bool "schema url" true (contains Trace.Speedscope.schema_url);
  check_bool "empty frame table" true (contains "\"frames\": []");
  check_bool "empty profile list" true (contains "\"profiles\": []");
  check_bool "no active profile index" false (contains "activeProfileIndex");
  (* non-span events alone are still an empty document *)
  let doc2 = Trace.Speedscope.to_string [ fetch ~time:0 ~pc:0 ~word:1 ] in
  check_bool "non-span events ignored" true
    (count_occurrences doc2 "\"profiles\": []" > 0)

(* ---- attribution -------------------------------------------------------- *)

let test_attribution_validates_width () =
  let a =
    Attribution.create ~labels:[| "k4"; "k5" |] ~block_starts:[| 0 |]
      ~block_of_pc:(fun _ -> 0)
  in
  Alcotest.check_raises "wrong image count"
    (Invalid_argument "Trace.Attribution.record: encoded word count <> labels")
    (fun () -> Attribution.record a ~pc:0 ~baseline:0 ~encoded:[| 1 |])

let test_attribution_hand_computed () =
  let a =
    Attribution.create ~labels:[| "e" |] ~block_starts:[| 0; 2 |]
      ~block_of_pc:(fun pc -> if pc < 2 then 0 else 1)
  in
  (* baseline 0 -> 3 -> 2: line0 flips twice, line1 once; first fetch primes *)
  Attribution.record a ~pc:0 ~baseline:0 ~encoded:[| 0 |];
  Attribution.record a ~pc:1 ~baseline:3 ~encoded:[| 1 |];
  Attribution.record a ~pc:2 ~baseline:2 ~encoded:[| 1 |];
  let s = Attribution.summarize a in
  check_int "fetches" 3 s.Attribution.fetches;
  check_int "line 0 baseline" 2 s.Attribution.line_baseline.(0);
  check_int "line 1 baseline" 1 s.Attribution.line_baseline.(1);
  check_int "line 2 baseline" 0 s.Attribution.line_baseline.(2);
  check_int "total baseline" 3 s.Attribution.total_baseline;
  check_int "encoded total" 1 s.Attribution.total_encoded.(0);
  (* the pc=1 fetch lands in block 0, the pc=2 fetch in block 1 *)
  check_int "block 0 baseline" 2 s.Attribution.block_baseline.(0);
  check_int "block 1 baseline" 1 s.Attribution.block_baseline.(1);
  check_int "block 0 encoded" 1 s.Attribution.block_encoded.(0).(0);
  check_int "block 1 encoded" 0 s.Attribution.block_encoded.(0).(1)

(* The acceptance criterion: for every benchmark (paper suite at scaled
   sizes plus the extended kernels) and every block size, the 32 per-line
   counters sum exactly to the aggregate transition count of the
   evaluation, and the per-block counters never exceed it. *)
let test_attribution_sums_exact () =
  List.iter
    (fun w ->
      let r = Evaluate.evaluate_workload ~attribution:true w in
      let s =
        match r.Evaluate.attribution with
        | Some s -> s
        | None -> Alcotest.fail "attribution requested but absent"
      in
      let name = w.Workloads.name in
      let sum = Array.fold_left ( + ) 0 in
      check_int (name ^ ": fetches = instructions") r.Evaluate.instructions
        s.Attribution.fetches;
      check_int (name ^ ": 32 lines") 32 (Array.length s.Attribution.line_baseline);
      check_int
        (name ^ ": baseline lines sum to the aggregate")
        r.Evaluate.baseline_transitions
        (sum s.Attribution.line_baseline);
      check_int
        (name ^ ": summary total agrees")
        r.Evaluate.baseline_transitions s.Attribution.total_baseline;
      check_bool
        (name ^ ": block baseline within aggregate")
        true
        (sum s.Attribution.block_baseline <= r.Evaluate.baseline_transitions);
      List.iteri
        (fun i (run : Evaluate.encoded_run) ->
          check_int
            (Printf.sprintf "%s: k=%d label" name run.Evaluate.k)
            run.Evaluate.k
            (int_of_string
               (String.sub s.Attribution.labels.(i) 1
                  (String.length s.Attribution.labels.(i) - 1)));
          check_int
            (Printf.sprintf "%s: k=%d lines sum to the aggregate" name
               run.Evaluate.k)
            run.Evaluate.transitions
            (sum s.Attribution.line_encoded.(i));
          check_int
            (Printf.sprintf "%s: k=%d summary total agrees" name run.Evaluate.k)
            run.Evaluate.transitions s.Attribution.total_encoded.(i);
          check_bool
            (Printf.sprintf "%s: k=%d block attribution within aggregate" name
               run.Evaluate.k)
            true
            (sum s.Attribution.block_encoded.(i) <= run.Evaluate.transitions))
        r.Evaluate.runs)
    (Workloads.scaled @ Workloads.extended)

let test_attribution_json_embeds () =
  let a =
    Attribution.create ~labels:[| "k4" |] ~block_starts:[| 0 |]
      ~block_of_pc:(fun _ -> 0)
  in
  Attribution.record a ~pc:0 ~baseline:1 ~encoded:[| 1 |];
  Attribution.record a ~pc:0 ~baseline:2 ~encoded:[| 2 |];
  let json = Attribution.to_json ~name:"t\"est" (Attribution.summarize a) in
  check_bool "escapes the name" true
    (let needle = "\"name\": \"t\\\"est\"" in
     let nl = String.length needle and dl = String.length json in
     let rec go i = i + nl <= dl && (String.sub json i nl = needle || go (i + 1)) in
     go 0);
  check_bool "object shaped" true
    (json.[0] = '{' && json.[String.length json - 1] = '}')

(* A stream where each pc drives one fixed word, accounted fetch by fetch
   and from its pair profile: the two summaries must be equal. *)
let test_attribution_pairs_equal_stream () =
  let create () =
    Attribution.create ~labels:[| "k5" |] ~block_starts:[| 0; 2 |]
      ~block_of_pc:(fun pc -> if pc < 2 then 0 else 1)
  in
  let baseline = [| 0b0000; 0b0011; 0b0111; 0; 0; 0b1000 |] in
  let encoded = [| [| 0b0000; 0b0001; 0b0011; 0; 0; 0b1001 |] |] in
  let stream = create () in
  List.iter
    (fun pc ->
      Attribution.record stream ~pc ~baseline:baseline.(pc)
        ~encoded:[| encoded.(0).(pc) |])
    [ 0; 1; 2; 5; 2; 5; 2 ];
  let replayed = create () in
  Attribution.record_pairs replayed ~first_pc:0
    ~pairs:(fun f ->
      List.iter
        (fun (src, dst, count) -> f ~src ~dst ~count)
        [ (0, 1, 1); (1, 2, 1); (2, 5, 2); (5, 2, 2) ])
    ~baseline ~encoded;
  check_bool "same summary" true
    (Attribution.summarize stream = Attribution.summarize replayed);
  check_int "fetches" 7 (Attribution.summarize replayed).Attribution.fetches;
  Alcotest.check_raises "a fed accumulator refuses a replay"
    (Invalid_argument "Trace.Attribution.record_pairs: accumulator already fed")
    (fun () ->
      Attribution.record_pairs replayed ~first_pc:0 ~pairs:(fun _ -> ())
        ~baseline ~encoded)

(* ---- evaluate emits trace events ---------------------------------------- *)

let test_evaluate_emits_events () =
  with_collector ~capacity:200_000 @@ fun () ->
  let r = Evaluate.evaluate_workload ~verify:true (scaled "tri") in
  let events = Collector.events () in
  let count p = List.length (List.filter p events) in
  let bus = count (function Event.Bus _ -> true | _ -> false) in
  check_int "one Bus event per counting-run fetch" r.Evaluate.instructions bus;
  List.iter
    (fun (what, p) -> check_bool (what ^ " present") true (count p > 0))
    [
      ("Fetch", (function Event.Fetch _ -> true | _ -> false));
      ("Block_entry", (function Event.Block_entry _ -> true | _ -> false));
      ("Tt_program", (function Event.Tt_program _ -> true | _ -> false));
      ("Bbit_probe", (function Event.Bbit_probe _ -> true | _ -> false));
      ("Decode", (function Event.Decode _ -> true | _ -> false));
    ];
  List.iter
    (fun e ->
      match e with
      | Event.Bus { encoded; _ } -> check_int "4 images" 4 (Array.length encoded)
      | _ -> ())
    events;
  (* the tick precedes every sink, so each event of a fetch (verify's
     probes and decodes, its Bus, its block entry) carries that fetch's
     tick, the tick of the Fetch event at the same pc *)
  let fetch_pc = Hashtbl.create 8192 in
  List.iter
    (function
      | Event.Fetch { time; pc; _ } -> Hashtbl.replace fetch_pc time pc
      | _ -> ())
    events;
  check_int "every fetch's events carry its tick" 0
    (List.length
       (List.filter
          (function
            | Event.Bus { time; pc; _ }
            | Event.Bbit_probe { time; pc; _ }
            | Event.Decode { time; pc; _ }
            | Event.Block_entry { time; pc; _ } ->
                Hashtbl.find_opt fetch_pc time <> Some pc
            | _ -> false)
          events));
  (* times never decrease in buffer order (Span events carry no tick) *)
  let last = ref 0 in
  List.iter
    (fun e ->
      match Event.time e with
      | Some t ->
          check_bool "monotonic ticks" true (t >= !last);
          last := t
      | None -> ())
    events

(* The timeline belongs to the exported run alone: a cold evaluate, which
   also records the program, and a warm one, served from the plan cache,
   each tick once per fetch and record the same events. *)
let test_one_tick_per_fetch_cold_or_warm () =
  let w = scaled "tri" in
  let traced () =
    with_collector ~capacity:200_000 @@ fun () ->
    let r = Evaluate.evaluate_workload w in
    check_int "one tick per fetch" r.Evaluate.instructions
      (Collector.fetches ());
    check_int "nothing dropped" 0 (Collector.dropped ());
    List.filter
      (function Event.Span _ -> false | _ -> true)
      (Collector.events ())
  in
  Evaluate.Plan_cache.clear ();
  let cold = traced () in
  let hits, misses = Evaluate.Plan_cache.stats () in
  check_int "the first evaluate missed" 1 misses;
  let warm = traced () in
  check_int "the second evaluate hit" (hits + 1)
    (fst (Evaluate.Plan_cache.stats ()));
  check_int "same event count" (List.length cold) (List.length warm);
  check_bool "same events, cold or warm" true (cold = warm)

(* The trace sink reads the TT writes off the plans; they must be the ones
   Reprogram.build makes: image by image the programmed slots, one event
   per write.  The writes are the run's first events, so the ring holds
   all of them (a Fetch, a Bus and at most one Block_entry per fetch). *)
let test_tt_program_events () =
  List.iter
    (fun (w : Workloads.t) ->
      let program = (Workloads.compile w).Minic.Compile.program in
      let name = w.Workloads.name in
      let fetches = (Evaluate.evaluate ~ks:[ 4 ] ~name program).instructions in
      let written =
        with_collector ~capacity:((3 * fetches) + 4096) @@ fun () ->
        ignore (Evaluate.evaluate ~name program);
        check_int (name ^ ": nothing dropped") 0 (Collector.dropped ());
        List.filter_map
          (function Event.Tt_program { index; _ } -> Some index | _ -> None)
          (Collector.events ())
      in
      let rest =
        List.fold_left
          (fun written (p : Evaluate.prepared) ->
            let tt = (p.rebuild ()).Hardware.Reprogram.tt in
            let n = Hardware.Tt.writes_performed tt in
            (* written in placement order, listed in slot order *)
            let mine =
              List.sort compare (List.filteri (fun i _ -> i < n) written)
            in
            Alcotest.(check (list int))
              (Printf.sprintf "%s k=%d: programmed slots" name p.prep_k)
              (List.map fst (Hardware.Tt.programmed tt))
              mine;
            List.filteri (fun i _ -> i >= n) written)
          written (Evaluate.prepare program)
      in
      check_int (name ^ ": no write beyond the systems'") 0 (List.length rest))
    (Workloads.scaled @ Workloads.extended)

let test_evaluate_without_collector_is_clean () =
  (* tracing off: no events accumulate anywhere, and results are identical *)
  Collector.clear ();
  let r1 = Evaluate.evaluate_workload (scaled "tri") in
  let r2 =
    with_collector @@ fun () -> Evaluate.evaluate_workload (scaled "tri")
  in
  check_int "same transitions with and without tracing"
    r1.Evaluate.baseline_transitions r2.Evaluate.baseline_transitions;
  check_int "no residual events" 0 (List.length (Collector.events ()))

let () =
  Alcotest.run "trace"
    [
      ( "ring",
        [
          Alcotest.test_case "wrap, order, dropped" `Quick test_ring_wrap;
          Alcotest.test_case "rejects empty" `Quick test_ring_rejects_empty;
        ] );
      ( "collector",
        [
          Alcotest.test_case "gating and clock" `Quick test_collector_gating;
          Alcotest.test_case "ring wraps" `Quick test_collector_ring_wraps;
        ] );
      ( "vcd",
        [
          Alcotest.test_case "round-trip, synthetic" `Quick
            test_vcd_round_trip_synthetic;
          Alcotest.test_case "parser rejects garbage" `Quick
            test_vcd_rejects_garbage;
          Alcotest.test_case "round-trip, real run" `Quick test_vcd_from_real_run;
          Alcotest.test_case "empty trace still renders" `Quick
            test_vcd_empty_trace;
        ] );
      ( "perfetto",
        [
          Alcotest.test_case "document shape" `Quick test_perfetto_shape;
          Alcotest.test_case "downsampling boundaries" `Quick
            test_perfetto_downsampling_boundaries;
          Alcotest.test_case "exact when the ring wraps" `Quick
            test_perfetto_exact_when_wrapped;
          Alcotest.test_case "totals equal the recount" `Quick
            test_totals_equal_recount;
        ] );
      ( "speedscope",
        [
          Alcotest.test_case "frames, profiles, clamping" `Quick
            test_speedscope_structure;
          Alcotest.test_case "empty trace" `Quick test_speedscope_empty_trace;
        ] );
      ( "attribution",
        [
          Alcotest.test_case "validates width" `Quick
            test_attribution_validates_width;
          Alcotest.test_case "hand-computed counts" `Quick
            test_attribution_hand_computed;
          Alcotest.test_case "sums exact on every benchmark and k" `Quick
            test_attribution_sums_exact;
          Alcotest.test_case "json embeds" `Quick test_attribution_json_embeds;
          Alcotest.test_case "pairs equal the stream" `Quick
            test_attribution_pairs_equal_stream;
        ] );
      ( "evaluate",
        [
          Alcotest.test_case "emits events when recording" `Quick
            test_evaluate_emits_events;
          Alcotest.test_case "one tick per fetch, cold or warm" `Quick
            test_one_tick_per_fetch_cold_or_warm;
          Alcotest.test_case "TT writes match the built tables" `Quick
            test_tt_program_events;
          Alcotest.test_case "clean when not recording" `Quick
            test_evaluate_without_collector_is_clean;
        ] );
    ]
