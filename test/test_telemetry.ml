(* The telemetry registry IS the metric schema: every name the system can
   emit is declared in Telemetry.Registry and pinned here, so adding,
   renaming or reclassifying a metric is a deliberate, reviewed change.
   The rest exercises the Metrics contract: disabled recording is a no-op,
   totals sum over domains, spans nest into paths, freeze/reset behave. *)

module Metrics = Telemetry.Metrics
module Tel = Telemetry.Registry
module Boolfun = Powercode.Boolfun

let kind_str = function
  | Metrics.Counter -> "counter"
  | Metrics.Histogram -> "histogram"
  | Metrics.Gauge -> "gauge"
  | Metrics.Span -> "span"

let stability_str = function
  | Metrics.Stable -> "stable"
  | Metrics.Runtime -> "runtime"

(* (name, kind, stability), sorted by name — the full schema *)
let expected_schema =
  [
    ("blockword.memo_hits", "counter", "runtime");
    ("blockword.memo_misses", "counter", "runtime");
    ("chain.code_blocks", "counter", "stable");
    ("chain.decodes", "counter", "stable");
    ("chain.streams", "counter", "stable");
    ("codetable.build", "span", "runtime");
    ("codetable.hits", "counter", "runtime");
    ("codetable.misses", "counter", "runtime");
    ("cpu.instructions", "counter", "stable");
    ("encode.block", "span", "runtime");
    ("encode.block_bits", "histogram", "stable");
    ("encode.blocks", "counter", "stable");
    ("encode.fanout", "span", "runtime");
    ("encode.lines", "counter", "stable");
    ("encode.plan", "span", "runtime");
    ("encode.tau_selected", "histogram", "stable");
    ("fault.bbit_parity_detected", "counter", "stable");
    ("fault.fallback_fetches", "counter", "stable");
    ("fault.fast_forward_fetches", "counter", "runtime");
    ("fault.fetches_skipped", "counter", "stable");
    ("fault.injections", "counter", "stable");
    ("fault.recoveries", "counter", "stable");
    ("fault.tt_parity_detected", "counter", "stable");
    ("gc.count.major_collections", "counter", "runtime");
    ("gc.count.major_words", "counter", "runtime");
    ("gc.count.minor_collections", "counter", "runtime");
    ("gc.count.minor_words", "counter", "runtime");
    ("gc.heap_words", "gauge", "runtime");
    ("gc.plan.major_collections", "counter", "runtime");
    ("gc.plan.major_words", "counter", "runtime");
    ("gc.plan.minor_collections", "counter", "runtime");
    ("gc.plan.minor_words", "counter", "runtime");
    ("gc.profile.major_collections", "counter", "runtime");
    ("gc.profile.major_words", "counter", "runtime");
    ("gc.profile.minor_collections", "counter", "runtime");
    ("gc.profile.minor_words", "counter", "runtime");
    ("gc.top_heap_words", "gauge", "runtime");
    ("icache.accesses", "counter", "stable");
    ("icache.hits", "counter", "stable");
    ("icache.misses", "counter", "stable");
    ("icache.refill_words", "counter", "stable");
    ("ledger.entries", "counter", "stable");
    ("ledger.fetches", "counter", "stable");
    ("ledger.meters", "counter", "stable");
    ("ledger.reports", "counter", "stable");
    ("parpool.busy_ns", "counter", "runtime");
    ("parpool.chunks", "counter", "runtime");
    ("parpool.idle_ns", "counter", "runtime");
    ("parpool.jobs", "counter", "runtime");
    ("parpool.queue_depth", "gauge", "runtime");
    ("parpool.seq_fallbacks", "counter", "runtime");
    ("parpool.width", "gauge", "runtime");
    ("parpool.worker_busy_ns", "gauge", "runtime");
    ("parpool.worker_idle_ns", "gauge", "runtime");
    ("parpool.worker_tasks", "gauge", "runtime");
    ("pipeline.count", "span", "runtime");
    ("pipeline.evaluate", "span", "runtime");
    ("pipeline.evaluations", "counter", "stable");
    ("pipeline.fetches", "counter", "stable");
    ("pipeline.images", "counter", "stable");
    ("pipeline.plan", "span", "runtime");
    ("pipeline.profile", "span", "runtime");
    ("plan.blocks_considered", "counter", "stable");
    ("plan.blocks_encoded", "counter", "stable");
    ("plan.blocks_skipped", "counter", "stable");
    ("plan.cache_hits", "counter", "stable");
    ("plan.cache_misses", "counter", "stable");
    ("plan.tt_entries", "counter", "stable");
    ("solver.codes_scanned", "counter", "runtime");
    ("solver.words_solved", "counter", "runtime");
    ("subset.masks_tested", "counter", "runtime");
    ("subset.requirements", "counter", "runtime");
  ]

let schema_t = Alcotest.(list (triple string string string))

let test_schema_pinned () =
  let actual =
    List.map
      (fun (name, kind, st, _doc) -> (name, kind_str kind, stability_str st))
      (Metrics.registered ())
  in
  Alcotest.check schema_t "registered metrics" expected_schema actual

let test_every_metric_documented () =
  List.iter
    (fun (name, _, _, doc) ->
      Alcotest.(check bool) (name ^ " has a doc string") true (doc <> ""))
    (Metrics.registered ())

let test_tau_names_match_boolfun () =
  for i = 0 to 15 do
    Alcotest.(check string)
      (Printf.sprintf "tau bucket %d" i)
      (Boolfun.name (Boolfun.of_index i))
      Tel.tau_names.(i)
  done

let test_duplicate_name_raises () =
  Alcotest.check_raises "duplicate registration"
    (Invalid_argument "Telemetry.Metrics: duplicate metric name encode.blocks")
    (fun () -> ignore (Metrics.counter ~doc:"dup" "encode.blocks"))

(* ---- recording behaviour ---------------------------------------------- *)

let total_of frozen name =
  let _, _, v =
    List.find (fun (n, _, _) -> n = name) frozen.Metrics.counters
  in
  v

let with_clean_telemetry f =
  Metrics.reset ();
  Metrics.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Metrics.set_enabled false;
      Metrics.reset ())
    f

let test_disabled_is_noop () =
  Metrics.reset ();
  Metrics.set_enabled false;
  Metrics.incr Tel.cpu_instructions;
  Metrics.observe Tel.tau_selected 3;
  let v = Metrics.with_span Tel.span_evaluate (fun () -> 42) in
  Alcotest.(check int) "with_span passes the value through" 42 v;
  let f = Metrics.freeze () in
  Alcotest.(check int) "counter untouched" 0 (total_of f "cpu.instructions");
  Alcotest.(check int) "no spans recorded" 0 (List.length f.Metrics.spans)

let test_counter_totals_and_reset () =
  with_clean_telemetry @@ fun () ->
  Metrics.incr Tel.cpu_instructions;
  Metrics.add Tel.cpu_instructions 41;
  Alcotest.(check int) "direct total" 42
    (Metrics.counter_total Tel.cpu_instructions);
  let before = Metrics.freeze () in
  Metrics.add Tel.cpu_instructions 8;
  let after = Metrics.freeze () in
  Alcotest.(check int) "freeze is a snapshot" 42
    (total_of before "cpu.instructions");
  Alcotest.(check int) "later freeze sees the new value" 50
    (total_of after "cpu.instructions");
  Metrics.reset ();
  Alcotest.(check int) "reset zeroes" 0
    (Metrics.counter_total Tel.cpu_instructions)

let test_histogram_clamps () =
  with_clean_telemetry @@ fun () ->
  Metrics.observe Tel.tau_selected (-5);
  Metrics.observe Tel.tau_selected 99;
  Metrics.observe Tel.tau_selected 6;
  let f = Metrics.freeze () in
  let _, _, buckets =
    List.find (fun (n, _, _) -> n = "encode.tau_selected") f.Metrics.histograms
  in
  Alcotest.(check int) "16 buckets" 16 (List.length buckets);
  Alcotest.(check int) "low clamps to bucket 0" 1 (List.assoc "0" buckets);
  Alcotest.(check int) "high clamps to bucket 15" 1 (List.assoc "1" buckets);
  Alcotest.(check int) "in range" 1 (List.assoc "x^y" buckets)

let test_log2_bucket () =
  List.iter
    (fun (v, b) ->
      Alcotest.(check int) (Printf.sprintf "log2_bucket %d" v) b
        (Metrics.log2_bucket v))
    [ (0, 0); (1, 0); (2, 1); (3, 1); (4, 2); (1024, 10); (1025, 10) ]

let test_spans_nest_into_paths () =
  with_clean_telemetry @@ fun () ->
  Metrics.with_span Tel.span_evaluate (fun () ->
      Metrics.with_span Tel.span_profile (fun () -> ()));
  Metrics.with_span Tel.span_evaluate (fun () -> ());
  let f = Metrics.freeze () in
  let paths = List.map fst f.Metrics.spans in
  Alcotest.(check (list string))
    "paths"
    [ "pipeline.evaluate"; "pipeline.evaluate/pipeline.profile" ]
    paths;
  let outer = List.assoc "pipeline.evaluate" f.Metrics.spans in
  let inner = List.assoc "pipeline.evaluate/pipeline.profile" f.Metrics.spans in
  Alcotest.(check int) "outer count" 2 outer.Metrics.span_count;
  Alcotest.(check int) "inner count" 1 inner.Metrics.span_count;
  Alcotest.(check bool) "outer covers inner" true
    (outer.Metrics.total_ns >= inner.Metrics.total_ns)

let test_span_records_on_raise () =
  with_clean_telemetry @@ fun () ->
  (try Metrics.with_span Tel.span_count (fun () -> failwith "boom")
   with Failure _ -> ());
  let f = Metrics.freeze () in
  let st = List.assoc "pipeline.count" f.Metrics.spans in
  Alcotest.(check int) "recorded despite raise" 1 st.Metrics.span_count

let test_diff_window () =
  with_clean_telemetry @@ fun () ->
  Metrics.add Tel.cpu_instructions 10;
  Metrics.observe Tel.tau_selected 6;
  Metrics.with_span Tel.span_evaluate (fun () -> ());
  let before = Metrics.freeze () in
  Metrics.add Tel.cpu_instructions 32;
  Metrics.observe Tel.tau_selected 6;
  Metrics.observe Tel.tau_selected 6;
  Metrics.with_span Tel.span_evaluate (fun () -> ());
  Metrics.with_span Tel.span_count (fun () -> ());
  let after = Metrics.freeze () in
  let d = Metrics.diff ~before ~after in
  Alcotest.(check int) "counter delta" 32 (total_of d "cpu.instructions");
  Alcotest.(check int) "untouched counter delta" 0 (total_of d "encode.blocks");
  let _, _, buckets =
    List.find (fun (n, _, _) -> n = "encode.tau_selected") d.Metrics.histograms
  in
  Alcotest.(check int) "histogram bucket delta" 2 (List.assoc "x^y" buckets);
  let paths = List.map fst d.Metrics.spans in
  Alcotest.(check (list string))
    "only spans with new samples" [ "pipeline.count"; "pipeline.evaluate" ]
    (List.sort compare paths);
  let ev = List.assoc "pipeline.evaluate" d.Metrics.spans in
  Alcotest.(check int) "span count delta" 1 ev.Metrics.span_count

let test_diff_empty_window () =
  with_clean_telemetry @@ fun () ->
  Metrics.add Tel.cpu_instructions 7;
  let before = Metrics.freeze () in
  let after = Metrics.freeze () in
  let d = Metrics.diff ~before ~after in
  Alcotest.(check int) "no counter movement" 0 (total_of d "cpu.instructions");
  Alcotest.(check int) "no spans" 0 (List.length d.Metrics.spans)

let test_span_hook_fires () =
  with_clean_telemetry @@ fun () ->
  let seen = ref [] in
  Metrics.set_span_hook
    (Some
       (fun ~path ~start_ns ~stop_ns ->
         seen := (path, stop_ns >= start_ns) :: !seen));
  Fun.protect ~finally:(fun () -> Metrics.set_span_hook None) @@ fun () ->
  Metrics.with_span Tel.span_evaluate (fun () ->
      Metrics.with_span Tel.span_profile (fun () -> ()));
  Alcotest.(check (list (pair string bool)))
    "hook saw both span exits, innermost first, with ordered timestamps"
    [
      ("pipeline.evaluate/pipeline.profile", true); ("pipeline.evaluate", true);
    ]
    (List.rev !seen)

(* ---- gauges ----------------------------------------------------------- *)

let gauge_of frozen name =
  let _, _, slots =
    List.find (fun (n, _, _) -> n = name) frozen.Metrics.gauges
  in
  slots

let test_gauge_set_add_and_freeze () =
  with_clean_telemetry @@ fun () ->
  Metrics.set_gauge Tel.parpool_width 0 5;
  Metrics.set_gauge Tel.parpool_worker_tasks 1 10;
  Metrics.add_gauge Tel.parpool_worker_tasks 1 (-3);
  let f = Metrics.freeze () in
  Alcotest.(check int) "scalar gauge reads the last write" 5
    (List.assoc "value" (gauge_of f "parpool.width"));
  let slots = gauge_of f "parpool.worker_tasks" in
  Alcotest.(check int) "declared slot count survives the freeze" 9
    (List.length slots);
  Alcotest.(check (list string))
    "slot labels in index order"
    [ "caller"; "w1"; "w2"; "w3"; "w4"; "w5"; "w6"; "w7"; "w8" ]
    (List.map fst slots);
  Alcotest.(check int) "add_gauge nudges the level" 7 (List.assoc "w1" slots);
  Alcotest.(check int) "untouched slot is zero" 0 (List.assoc "w2" slots);
  Alcotest.(check int) "direct read agrees" 7
    (Metrics.gauge_value Tel.parpool_worker_tasks 1)

let test_gauge_slot_clamps () =
  with_clean_telemetry @@ fun () ->
  Metrics.set_gauge Tel.parpool_worker_tasks (-4) 11;
  Metrics.set_gauge Tel.parpool_worker_tasks 99 22;
  Alcotest.(check int) "low slot clamps to 0" 11
    (Metrics.gauge_value Tel.parpool_worker_tasks 0);
  Alcotest.(check int) "high slot clamps to the last" 22
    (Metrics.gauge_value Tel.parpool_worker_tasks 8)

let test_gauge_disabled_and_reset () =
  Metrics.reset ();
  Metrics.set_enabled false;
  Metrics.set_gauge Tel.parpool_width 0 9;
  Alcotest.(check int) "disabled set_gauge is a no-op" 0
    (Metrics.gauge_value Tel.parpool_width 0);
  Metrics.set_enabled true;
  Metrics.set_gauge Tel.parpool_width 0 9;
  Metrics.set_enabled false;
  Metrics.reset ();
  Alcotest.(check int) "reset zeroes gauge slots" 0
    (Metrics.gauge_value Tel.parpool_width 0)

let test_diff_keeps_gauge_levels () =
  with_clean_telemetry @@ fun () ->
  Metrics.set_gauge Tel.parpool_width 0 3;
  let before = Metrics.freeze () in
  Metrics.set_gauge Tel.parpool_width 0 8;
  let after = Metrics.freeze () in
  let d = Metrics.diff ~before ~after in
  Alcotest.(check int)
    "a gauge is a level, not a flow: diff keeps after's reading" 8
    (List.assoc "value" (gauge_of d "parpool.width"))

(* The human reporter's ordering guarantee is the freeze's: counters,
   histograms and gauges come out sorted by name (the satellite issue
   asked for sorted [--stats] output; freeze already provides it, so the
   invariant is pinned here rather than re-sorted downstream). *)
let test_freeze_is_sorted () =
  with_clean_telemetry @@ fun () ->
  let f = Metrics.freeze () in
  let sorted l = List.sort compare l = l in
  let names l = List.map (fun (n, _, _) -> n) l in
  Alcotest.(check bool) "counters sorted" true (sorted (names f.Metrics.counters));
  Alcotest.(check bool) "histograms sorted" true
    (sorted (names f.Metrics.histograms));
  Alcotest.(check bool) "gauges sorted" true (sorted (names f.Metrics.gauges));
  Alcotest.(check bool) "spans sorted" true
    (sorted (List.map fst f.Metrics.spans))

(* ---- sampler ----------------------------------------------------------- *)

let test_sampler_endpoints () =
  with_clean_telemetry @@ fun () ->
  Metrics.add Tel.cpu_instructions 17;
  let lines = ref [] in
  let mu = Mutex.create () in
  let sink l =
    Mutex.lock mu;
    lines := l :: !lines;
    Mutex.unlock mu
  in
  let s = Telemetry.Sampler.start ~interval_s:10.0 ~sink () in
  Telemetry.Sampler.stop s;
  (* a window far shorter than one interval still records both endpoints *)
  let lines = List.rev !lines in
  Alcotest.(check int) "start + stop samples" 2 (List.length lines);
  Alcotest.(check int) "samples () agrees" 2 (Telemetry.Sampler.samples s);
  let has_prefix p l = String.length l >= String.length p
                       && String.sub l 0 (String.length p) = p in
  Alcotest.(check bool) "sample 0 is seq 0" true
    (has_prefix "{\"seq\": 0," (List.nth lines 0));
  Alcotest.(check bool) "final sample is seq 1" true
    (has_prefix "{\"seq\": 1," (List.nth lines 1));
  List.iter
    (fun l ->
      let contains sub =
        let n = String.length sub and m = String.length l in
        let rec go i = i + n <= m && (String.sub l i n = sub || go (i + 1)) in
        go 0
      in
      Alcotest.(check bool) "line embeds the metrics object" true
        (contains "\"metrics\": {");
      Alcotest.(check bool) "snapshot sees the counter" true
        (contains "\"cpu.instructions\": 17"))
    lines

let test_sampler_periodic_and_nondestructive () =
  with_clean_telemetry @@ fun () ->
  Metrics.add Tel.cpu_instructions 5;
  let n = Atomic.make 0 in
  let s =
    Telemetry.Sampler.start ~interval_s:0.01
      ~sink:(fun _ -> Atomic.incr n)
      ()
  in
  Unix.sleepf 0.08;
  Telemetry.Sampler.stop s;
  Alcotest.(check bool)
    (Printf.sprintf "periodic samples landed (%d)" (Atomic.get n))
    true
    (Atomic.get n >= 4);
  Alcotest.(check int) "freeze is non-destructive: totals survive sampling" 5
    (Metrics.counter_total Tel.cpu_instructions)

let test_sampler_stop_idempotent () =
  with_clean_telemetry @@ fun () ->
  let n = Atomic.make 0 in
  let s =
    Telemetry.Sampler.start ~interval_s:1.0
      ~sink:(fun _ -> Atomic.incr n)
      ()
  in
  Telemetry.Sampler.stop s;
  let after_first = Atomic.get n in
  Alcotest.(check bool) "endpoints landed" true (after_first >= 2);
  (* second stop: no raise, no extra final sample *)
  Telemetry.Sampler.stop s;
  Alcotest.(check int) "second stop emits nothing" after_first (Atomic.get n);
  Alcotest.(check int) "samples count settled" after_first
    (Telemetry.Sampler.samples s)

(* ---- frozen-record JSON ------------------------------------------------ *)

(* The sampler's series lines and BENCH_encoding.json's "telemetry" object
   are these two strings; pin their bytes.  The names are registered, so the
   annotated form carries their registry docs. *)
let frozen_sample =
  {
    Metrics.counters =
      [
        ("codetable.hits", Metrics.Runtime, 7);
        ("icache.hits", Metrics.Stable, 42);
      ];
    histograms =
      [ ("encode.block_bits", Metrics.Stable, [ ("1", 0); ("2-3", 5) ]) ];
    gauges =
      [ ("parpool.worker_tasks", Metrics.Runtime, [ ("0", 3); ("1", 0) ]) ];
    spans =
      [
        ( "pipeline.evaluate",
          { Metrics.span_count = 2; total_ns = 1500.; max_ns = 900.4 } );
      ];
  }

let test_report_json_pinned () =
  Alcotest.(check string) "to_json"
    ({|{"counters": {"codetable.hits": 7,"icache.hits": 42}, |}
   ^ {|"histograms": {"encode.block_bits": {"2-3": 5}}, |}
   ^ {|"gauges": {"parpool.worker_tasks": {"0": 3,"1": 0}}, |}
   ^ {|"spans": {"pipeline.evaluate": |}
   ^ {|{"count": 2, "total_ns": 1500, "max_ns": 900}}}|})
    (Telemetry.Report.to_json frozen_sample);
  Alcotest.(check string) "to_json_annotated"
    ({|{"counters": {"codetable.hits": {"value": 7, "stability": "runtime", |}
   ^ {|"doc": "Codetable.get served from the cache"},|}
   ^ {|"icache.hits": {"value": 42, "stability": "stable", |}
   ^ {|"doc": "I-cache hits"}}, |}
   ^ {|"histograms": {"encode.block_bits": {"stability": "stable", |}
   ^ {|"doc": "encode_block matrix sizes (rows x width bits), log2 buckets", |}
   ^ {|"buckets": {"2-3": 5}}}, |}
   ^ {|"gauges": {"parpool.worker_tasks": {"stability": "runtime", |}
   ^ {|"doc": "Chunks each pool slot executed", "slots": {"0": 3,"1": 0}}}, |}
   ^ {|"spans": {"pipeline.evaluate": |}
   ^ {|{"count": 2, "total_ns": 1500, "max_ns": 900}}}|})
    (Telemetry.Report.to_json_annotated frozen_sample)

(* ---- OpenMetrics exposition ------------------------------------------- *)

let test_openmetrics_roundtrip () =
  with_clean_telemetry @@ fun () ->
  Metrics.add Tel.cpu_instructions 123;
  Metrics.observe Tel.tau_selected 6;
  Metrics.set_gauge Tel.parpool_width 0 4;
  Metrics.with_span Tel.span_evaluate (fun () -> ());
  let text = Telemetry.Openmetrics.to_string (Metrics.freeze ()) in
  (match Telemetry.Openmetrics.validate text with
  | Ok () -> ()
  | Error e -> Alcotest.failf "exporter output rejected: %s" e);
  let contains sub =
    let n = String.length sub and m = String.length text in
    let rec go i = i + n <= m && (String.sub text i n = sub || go (i + 1)) in
    go 0
  in
  List.iter
    (fun s ->
      Alcotest.(check bool) (Printf.sprintf "contains %S" s) true (contains s))
    [
      "# TYPE powercode_cpu_instructions counter";
      "powercode_cpu_instructions_total 123";
      "# TYPE powercode_parpool_width gauge";
      "powercode_parpool_width{slot=\"value\"} 4";
      "powercode_encode_tau_selected_total{bucket=\"x^y\"} 1";
      "powercode_span_calls_total{path=\"pipeline.evaluate\"} 1";
      "# EOF";
    ]

let test_openmetrics_validator_rejects () =
  let check_error name text =
    match Telemetry.Openmetrics.validate text with
    | Ok () -> Alcotest.failf "%s: accepted invalid exposition" name
    | Error _ -> ()
  in
  check_error "missing EOF" "# TYPE powercode_x counter\npowercode_x_total 1\n";
  check_error "sample before TYPE" "powercode_x_total 1\n# EOF\n";
  check_error "counter sample without _total suffix"
    "# TYPE powercode_x counter\npowercode_x 1\n# EOF\n";
  check_error "gauge sample with _total suffix"
    "# TYPE powercode_x gauge\npowercode_x_total 1\n# EOF\n";
  check_error "text after EOF"
    "# TYPE powercode_x counter\npowercode_x_total 1\n# EOF\nmore\n";
  check_error "empty line" "# TYPE powercode_x counter\n\n# EOF\n";
  check_error "unparseable value"
    "# TYPE powercode_x counter\npowercode_x_total one\n# EOF\n";
  check_error "unterminated label quote"
    "# TYPE powercode_x gauge\npowercode_x{slot=\"a} 1\n# EOF\n";
  check_error "duplicate TYPE"
    "# TYPE powercode_x counter\n# TYPE powercode_x counter\n# EOF\n";
  (* an unescaped quote inside a value smuggles a phantom second label
     past a laxer parser; both the raw form and the duplicate it fakes
     must be rejected *)
  check_error "unescaped quote in label value"
    "# TYPE powercode_x gauge\npowercode_x{slot=\"a\"b\"} 1\n# EOF\n";
  check_error "duplicate label name"
    "# TYPE powercode_x gauge\npowercode_x{a=\"1\",a=\"2\"} 1\n# EOF\n";
  check_error "unknown escape in label value"
    "# TYPE powercode_x gauge\npowercode_x{slot=\"a\\q\"} 1\n# EOF\n";
  Alcotest.(check bool) "minimal valid doc accepted" true
    (Telemetry.Openmetrics.validate "# EOF\n" = Ok ())

(* Pinned hostile-label escaping: a gauge slot label carrying the three
   exposition-format specials (backslash, double quote, newline) must
   export escaped, and the escaped form must pass the validator.  Built
   from a frozen record directly — registering a throwaway gauge would
   break the schema pin above (one process, one registry). *)
let test_openmetrics_hostile_label () =
  let hostile = "he\"llo\\wor\nld" in
  let f =
    {
      Metrics.counters = [];
      histograms = [];
      gauges = [ ("hostile.gauge", Metrics.Runtime, [ (hostile, 3) ]) ];
      spans = [];
    }
  in
  let text = Telemetry.Openmetrics.to_string f in
  let expected = "powercode_hostile_gauge{slot=\"he\\\"llo\\\\wor\\nld\"} 3" in
  let contains sub =
    let n = String.length sub and m = String.length text in
    let rec go i = i + n <= m && (String.sub text i n = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "escaped sample line pinned" true (contains expected);
  Alcotest.(check bool) "raw quote never reaches the wire" false
    (contains "slot=\"he\"");
  match Telemetry.Openmetrics.validate text with
  | Ok () -> ()
  | Error e -> Alcotest.failf "hostile label rejected: %s" e

(* ---- event log --------------------------------------------------------- *)

module Log = Telemetry.Log

let with_clean_log f =
  Log.clear ();
  Log.set_enabled true;
  Log.set_level Log.Debug;
  Fun.protect
    ~finally:(fun () ->
      Log.set_enabled false;
      Log.set_level Log.Debug;
      Log.clear ())
    f

let test_log_disabled_is_noop () =
  Log.clear ();
  Log.set_enabled false;
  Log.info "test.event" [ ("x", Log.Int 1) ];
  Alcotest.(check int) "nothing emitted" 0 (Log.emitted ());
  Alcotest.(check int) "nothing retained" 0 (List.length (Log.events ()))

let test_log_level_filter () =
  with_clean_log @@ fun () ->
  Log.set_level Log.Warn;
  Log.debug "test.d" [];
  Log.info "test.i" [];
  Log.warn "test.w" [];
  Log.error "test.e" [];
  Alcotest.(check int) "only warn+error pass" 2 (Log.emitted ());
  Alcotest.(check (list (pair string int)))
    "per-level counts"
    [ ("debug", 0); ("error", 1); ("info", 0); ("warn", 1) ]
    (Log.by_level ());
  Alcotest.(check (list (pair string int)))
    "per-slug counts" [ ("test.e", 1); ("test.w", 1) ] (Log.by_event ())

let test_log_ring_bound_and_drop () =
  with_clean_log @@ fun () ->
  Log.set_capacity 4;
  Fun.protect ~finally:(fun () -> Log.set_capacity 8192) @@ fun () ->
  for i = 1 to 6 do
    Log.info "test.tick" [ ("i", Log.Int i) ]
  done;
  Alcotest.(check int) "ring keeps the newest capacity" 4
    (List.length (Log.events ()));
  Alcotest.(check int) "overwrites counted as drops" 2 (Log.dropped ());
  Alcotest.(check int) "cumulative count survives eviction" 6 (Log.emitted ());
  let kept =
    List.filter_map
      (fun e ->
        match e.Log.fields with [ ("i", Log.Int i) ] -> Some i | _ -> None)
      (Log.events ())
  in
  Alcotest.(check (list int)) "oldest evicted first" [ 3; 4; 5; 6 ] kept

let test_log_span_correlation () =
  with_clean_telemetry @@ fun () ->
  with_clean_log @@ fun () ->
  Log.info "test.outside" [];
  Metrics.with_span Tel.span_evaluate (fun () ->
      Log.info "test.outer" [];
      Metrics.with_span Tel.span_profile (fun () -> Log.info "test.inner" []));
  let span_of name =
    let e = List.find (fun e -> e.Log.event = name) (Log.events ()) in
    e.Log.span
  in
  Alcotest.(check (option string)) "outside any span" None
    (span_of "test.outside");
  Alcotest.(check (option string))
    "outer path" (Some "pipeline.evaluate") (span_of "test.outer");
  Alcotest.(check (option string))
    "nested path"
    (Some "pipeline.evaluate/pipeline.profile")
    (span_of "test.inner");
  (* the span path on a log line must exist in the frozen record, so the
     two observability views correlate *)
  let frozen_paths = List.map fst (Metrics.freeze ()).Metrics.spans in
  List.iter
    (fun e ->
      match e.Log.span with
      | None -> ()
      | Some p ->
          Alcotest.(check bool)
            (Printf.sprintf "span %s exists in frozen record" p)
            true (List.mem p frozen_paths))
    (Log.events ())

let test_log_json_line_shape () =
  with_clean_log @@ fun () ->
  Log.set_run_id "rtest000000001";
  Log.warn "test.shape"
    [
      ("i", Log.Int (-3)); ("f", Log.Float 1.5); ("s", Log.Str "a\"b\\c\nd");
      ("b", Log.Bool true);
    ];
  let e = List.hd (Log.events ()) in
  let line = Log.to_json e in
  (match Log.of_json line with
  | Error msg -> Alcotest.failf "round-trip parse failed: %s" msg
  | Ok (id, back) ->
      Alcotest.(check string) "run_id round-trips" "rtest000000001" id;
      Alcotest.(check bool) "event round-trips exactly" true (back = e));
  let contains sub =
    let n = String.length sub and m = String.length line in
    let rec go i = i + n <= m && (String.sub line i n = sub || go (i + 1)) in
    go 0
  in
  List.iter
    (fun s ->
      Alcotest.(check bool) (Printf.sprintf "line has %S" s) true (contains s))
    [
      "\"run_id\":\"rtest000000001\""; "\"level\":\"warn\"";
      "\"stability\":\"stable\""; "\"event\":\"test.shape\"";
      "\"i\":-3"; "\"b\":true"; "\"s\":\"a\\\"b\\\\c\\nd\"";
    ]

let test_log_stable_key_ignores_timing () =
  with_clean_log @@ fun () ->
  Log.info "test.same" [ ("k", Log.Int 7) ];
  Log.info "test.same" [ ("k", Log.Int 7) ];
  Log.info "test.same" [ ("k", Log.Int 8) ];
  match Log.events () with
  | [ a; b; c ] ->
      Alcotest.(check bool) "t_ns/seq excluded" true
        (Log.stable_key a = Log.stable_key b);
      Alcotest.(check bool) "fields included" false
        (Log.stable_key a = Log.stable_key c)
  | l -> Alcotest.failf "expected 3 events, got %d" (List.length l)

(* QCheck: any event the emitter can construct survives the JSONL codec.
   Floats are finite by construction (QCheck.float); strings range over
   printable and control bytes, exercising the \u escapes. *)
let qcheck_log_roundtrip =
  let open QCheck in
  let value_gen =
    oneof
      [
        map (fun i -> Log.Int i) int;
        map (fun f -> Log.Float f) float;
        map (fun s -> Log.Str s) string;
        map (fun b -> Log.Bool b) bool;
      ]
  in
  let event_gen =
    let level = oneofl [ Log.Debug; Log.Info; Log.Warn; Log.Error ] in
    let stability = oneofl [ Metrics.Stable; Metrics.Runtime ] in
    let fields = small_list (pair string value_gen) in
    let tuple5 =
      pair (pair level stability) (pair (pair string (option string)) fields)
    in
    map
      (fun ((level, stability), ((slug, span), fields)) ->
        {
          Log.seq = 0;
          t_ns = 1e18;
          domain = 0;
          level;
          stability;
          event = slug;
          span;
          fields;
        })
      tuple5
  in
  Test.make ~count:500 ~name:"log JSON line round-trips" event_gen (fun e ->
      match Log.of_json (Log.to_json e) with
      | Ok (id, back) -> id = Log.run_id () && back = e
      | Error _ -> false)

(* ---- the shared JSON codec --------------------------------------------- *)

module Json = Telemetry.Json

let parses s =
  match Json.of_string s with v -> Ok v | exception Json.Parse_error m -> Error m

(* Whatever the input, each parser answers with a value or its own error:
   no other exception escapes. *)
let parsers_are_total s =
  (match parses s with Ok _ | Error _ -> true)
  && (match Log.of_json s with Ok _ | Error _ -> true)
  && match Telemetry.Openmetrics.validate s with Ok () | Error _ -> true

let qcheck_escape_roundtrip =
  QCheck.Test.make ~count:1000 ~name:"escape then parse gives the bytes back"
    QCheck.string (fun s ->
      Json.of_string ("\"" ^ Json.escape s ^ "\"") = Json.Str s)

let qcheck_parsers_total =
  QCheck.Test.make ~count:1000 ~name:"parsers are total on arbitrary input"
    QCheck.string parsers_are_total

(* A real exposition with up to three bytes set to arbitrary values, cut
   at an arbitrary length: near-valid input reaches the validator's later
   checks, which random strings never pass the first line of. *)
let mutated_exposition =
  let text = Telemetry.Openmetrics.to_string frozen_sample in
  let n = String.length text in
  let flip = QCheck.Gen.(pair (int_bound (n - 1)) (int_bound 255)) in
  QCheck.make ~print:String.escaped
    QCheck.Gen.(
      map2
        (fun flips cut ->
          let b = Bytes.of_string text in
          List.iter (fun (i, c) -> Bytes.set b i (Char.chr c)) flips;
          Bytes.sub_string b 0 cut)
        (list_size (int_bound 3) flip)
        (int_bound n))

let qcheck_parsers_total_on_expositions =
  QCheck.Test.make ~count:1000 ~name:"parsers are total on mutated expositions"
    mutated_exposition parsers_are_total

(* One real log line, with every field kind and the escapes it writes. *)
let sample_log_line () =
  Log.to_json
    {
      Log.seq = 12;
      t_ns = 1.25e9;
      domain = 3;
      level = Log.Warn;
      stability = Metrics.Runtime;
      event = "test.fuzz";
      span = Some "evaluate/plan";
      fields =
        [
          ("i", Log.Int min_int); ("f", Log.Float (-0.5));
          ("s", Log.Str "q\"b\\n\n\001"); ("b", Log.Bool false);
        ];
    }

let test_parsers_total_on_mutations () =
  let line = sample_log_line () in
  Alcotest.(check bool) "the sample line round-trips" true
    (Result.is_ok (Log.of_json line));
  for n = 0 to String.length line do
    if not (parsers_are_total (String.sub line 0 n)) then
      Alcotest.failf "prefix of length %d" n
  done;
  String.iteri
    (fun i _ ->
      for c = 0 to 255 do
        let m = Bytes.of_string line in
        Bytes.set m i (Char.chr c);
        if not (parsers_are_total (Bytes.to_string m)) then
          Alcotest.failf "byte %d set to %d" i c
      done)
    line

let test_json_pinned () =
  let check_value label expected s =
    Alcotest.(check bool) label true (parses s = Ok expected)
  in
  check_value "max_int is an Int" (Json.Int max_int) (string_of_int max_int);
  check_value "min_int is an Int" (Json.Int min_int) (string_of_int min_int);
  check_value "1.0 is a Float" (Json.Float 1.0) "1.0";
  check_value "1e3 is a Float" (Json.Float 1000.) "1e3";
  Alcotest.(check bool) "an integer beyond 63 bits is an error" true
    (Result.is_error (parses "99999999999999999999"));
  check_value "\\u00e9 decodes to UTF-8" (Json.Str "\xc3\xa9") {|"\u00e9"|};
  Alcotest.(check bool) "Json_min maps both number kinds to Num" true
    (Json_min.of_string "[7, 7.5, 1e3]"
    = Json_min.Arr [ Json_min.Num 7.; Json_min.Num 7.5; Json_min.Num 1000. ])

let test_multi_domain_sum () =
  with_clean_telemetry @@ fun () ->
  let bump () =
    for _ = 1 to 1000 do
      Metrics.incr Tel.cpu_instructions
    done
  in
  let domains = Array.init 4 (fun _ -> Domain.spawn bump) in
  bump ();
  Array.iter Domain.join domains;
  Alcotest.(check int) "sharded sum over domains" 5000
    (Metrics.counter_total Tel.cpu_instructions)

let () =
  Alcotest.run "telemetry"
    [
      ( "registry",
        [
          Alcotest.test_case "schema is pinned" `Quick test_schema_pinned;
          Alcotest.test_case "every metric documented" `Quick
            test_every_metric_documented;
          Alcotest.test_case "tau names match Boolfun" `Quick
            test_tau_names_match_boolfun;
          Alcotest.test_case "duplicate name raises" `Quick
            test_duplicate_name_raises;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "disabled is a no-op" `Quick test_disabled_is_noop;
          Alcotest.test_case "totals, freeze, reset" `Quick
            test_counter_totals_and_reset;
          Alcotest.test_case "histogram clamps" `Quick test_histogram_clamps;
          Alcotest.test_case "log2 buckets" `Quick test_log2_bucket;
          Alcotest.test_case "spans nest into paths" `Quick
            test_spans_nest_into_paths;
          Alcotest.test_case "span records on raise" `Quick
            test_span_records_on_raise;
          Alcotest.test_case "diff isolates a window" `Quick test_diff_window;
          Alcotest.test_case "diff of identical snapshots is empty" `Quick
            test_diff_empty_window;
          Alcotest.test_case "span hook fires at exit" `Quick
            test_span_hook_fires;
          Alcotest.test_case "multi-domain sum" `Quick test_multi_domain_sum;
        ] );
      ( "gauges",
        [
          Alcotest.test_case "set/add and freeze shape" `Quick
            test_gauge_set_add_and_freeze;
          Alcotest.test_case "slot indices clamp" `Quick test_gauge_slot_clamps;
          Alcotest.test_case "disabled no-op and reset" `Quick
            test_gauge_disabled_and_reset;
          Alcotest.test_case "diff keeps levels" `Quick
            test_diff_keeps_gauge_levels;
          Alcotest.test_case "freeze sorts every section" `Quick
            test_freeze_is_sorted;
        ] );
      ( "sampler",
        [
          Alcotest.test_case "start and stop endpoints" `Quick
            test_sampler_endpoints;
          Alcotest.test_case "periodic and non-destructive" `Quick
            test_sampler_periodic_and_nondestructive;
          Alcotest.test_case "stop is idempotent" `Quick
            test_sampler_stop_idempotent;
        ] );
      ( "log",
        [
          Alcotest.test_case "disabled is a no-op" `Quick
            test_log_disabled_is_noop;
          Alcotest.test_case "level filter" `Quick test_log_level_filter;
          Alcotest.test_case "ring bound and drop accounting" `Quick
            test_log_ring_bound_and_drop;
          Alcotest.test_case "span correlation" `Quick
            test_log_span_correlation;
          Alcotest.test_case "JSON line shape and round-trip" `Quick
            test_log_json_line_shape;
          Alcotest.test_case "stable key ignores timing" `Quick
            test_log_stable_key_ignores_timing;
          QCheck_alcotest.to_alcotest qcheck_log_roundtrip;
        ] );
      ( "json",
        [
          Alcotest.test_case "pinned numbers and escapes" `Quick
            test_json_pinned;
          Alcotest.test_case "parsers total on line mutations" `Quick
            test_parsers_total_on_mutations;
          QCheck_alcotest.to_alcotest qcheck_escape_roundtrip;
          QCheck_alcotest.to_alcotest qcheck_parsers_total;
          QCheck_alcotest.to_alcotest qcheck_parsers_total_on_expositions;
        ] );
      ( "report",
        [
          Alcotest.test_case "frozen-record JSON is pinned" `Quick
            test_report_json_pinned;
        ] );
      ( "openmetrics",
        [
          Alcotest.test_case "exporter output passes the validator" `Quick
            test_openmetrics_roundtrip;
          Alcotest.test_case "validator rejects malformed input" `Quick
            test_openmetrics_validator_rejects;
          Alcotest.test_case "hostile label escapes and validates" `Quick
            test_openmetrics_hostile_label;
        ] );
    ]
