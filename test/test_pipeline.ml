module Evaluate = Pipeline.Evaluate
module Scheme = Pipeline.Scheme
module Subset = Powercode.Subset
module Boolfun = Powercode.Boolfun

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let scaled name = Workloads.by_name Workloads.scaled name

let test_report_shape () =
  let r = Evaluate.evaluate_workload ~ks:[ 4; 5 ] (scaled "mmul") in
  check_int "two runs" 2 (List.length r.Evaluate.runs);
  Alcotest.(check (list int))
    "ks" [ 4; 5 ]
    (List.map (fun x -> x.Evaluate.k) r.Evaluate.runs);
  check_bool "baseline positive" true (r.Evaluate.baseline_transitions > 0);
  check_bool "instructions positive" true (r.Evaluate.instructions > 0)

(* every fetch meets each image's decoder: one BBIT probe per fetch per
   image, and the verified report is the unverified one *)
let test_verification_covers_every_fetch () =
  let w = scaled "tri" in
  let plain = Evaluate.evaluate_workload ~ks:[ 4; 6 ] w in
  Trace.Collector.start ~capacity:(1 lsl 16) ();
  let r, probes =
    Fun.protect ~finally:Trace.Collector.clear (fun () ->
        let r = Evaluate.evaluate_workload ~ks:[ 4; 6 ] ~verify:true w in
        ( r,
          List.length
            (List.filter
               (function Trace.Event.Bbit_probe _ -> true | _ -> false)
               (Trace.Collector.events ())) ))
  in
  check_bool "verified report = plain report" true (r = plain);
  check_int "a probe per fetch per image" (2 * r.Evaluate.instructions) probes

(* The trace sink reads each decoder's state before [verify] advances it,
   so its decoder events add up only if the decoders really ran: a BBIT
   hit or a Decode is one TT read, and the ledger counts the TT reads
   from the replay.  The ring holds every event (at most eleven a fetch
   at four block sizes). *)
let test_decoder_events_match_ledger () =
  List.iter
    (fun name ->
      let w = scaled name in
      let fetches = (Evaluate.evaluate_workload w).Evaluate.instructions in
      Trace.Collector.start ~capacity:((11 * fetches) + 4096) ();
      let r, reads, dropped =
        Fun.protect ~finally:Trace.Collector.clear (fun () ->
            let r =
              Evaluate.evaluate_workload ~verify:true
                ~ledger:Ledger.Model.on_chip w
            in
            ( r,
              List.length
                (List.filter
                   (function
                     | Trace.Event.Decode _
                     | Trace.Event.Bbit_probe { hit = true; _ } ->
                         true
                     | _ -> false)
                   (Trace.Collector.events ())),
              Trace.Collector.dropped () ))
      in
      check_int (name ^ ": nothing dropped") 0 dropped;
      let sheet = Option.get r.Evaluate.ledger in
      check_int
        (name ^ ": decoder events = TT reads")
        (List.fold_left
           (fun acc (e : Ledger.Sheet.entry) -> acc + e.tt_reads.count)
           0 sheet.Ledger.Sheet.entries)
        reads)
    [ "mmul"; "sor"; "ej"; "fft"; "tri"; "lu" ]

let test_reduction_positive_on_loop_kernels () =
  List.iter
    (fun name ->
      let r = Evaluate.evaluate_workload ~ks:[ 4; 5 ] (scaled name) in
      List.iter
        (fun run ->
          check_bool
            (Printf.sprintf "%s k=%d reduces" name run.Evaluate.k)
            true
            (run.Evaluate.reduction_pct > 0.0))
        r.Evaluate.runs)
    [ "mmul"; "sor"; "ej"; "fft"; "tri"; "lu" ]

let test_encoded_never_worse () =
  List.iter
    (fun name ->
      let r = Evaluate.evaluate_workload (scaled name) in
      List.iter
        (fun run ->
          check_bool "no worse than baseline" true
            (run.Evaluate.transitions <= r.Evaluate.baseline_transitions))
        r.Evaluate.runs)
    [ "mmul"; "fft" ]

let test_output_unchanged_by_observation () =
  (* evaluation must not perturb program semantics *)
  let w = scaled "lu" in
  let c = Workloads.compile w in
  let state = Machine.Cpu.create_state () in
  let _ = Machine.Cpu.run c.Minic.Compile.program state in
  let plain = Machine.Cpu.output state in
  let r = Evaluate.evaluate_workload ~verify:true w in
  Alcotest.(check string) "same output" plain r.Evaluate.output

let test_tt_budget_respected () =
  let r = Evaluate.evaluate_workload ~ks:[ 4 ] (scaled "ej") in
  List.iter
    (fun run -> check_bool "within 16" true (run.Evaluate.tt_used <= 16))
    r.Evaluate.runs

let test_identity_only_subset_changes_nothing () =
  let w = scaled "fft" in
  let c = Workloads.compile w in
  let r =
    Evaluate.evaluate ~ks:[ 5 ]
      ~subset_mask:(Boolfun.mask_of_list [ Boolfun.identity ])
      ~name:"fft-id" c.Minic.Compile.program
  in
  match r.Evaluate.runs with
  | [ run ] ->
      check_int "identity encoding saves nothing" r.Evaluate.baseline_transitions
        run.Evaluate.transitions
  | _ -> Alcotest.fail "one run expected"

let test_full_universe_at_least_as_good () =
  let w = scaled "sor" in
  let c = Workloads.compile w in
  let sub =
    Evaluate.evaluate ~ks:[ 5 ] ~subset_mask:Subset.paper_eight_mask
      ~name:"sor8" c.Minic.Compile.program
  in
  let full =
    Evaluate.evaluate ~ks:[ 5 ] ~subset_mask:Boolfun.full_mask ~name:"sor16"
      c.Minic.Compile.program
  in
  match (sub.Evaluate.runs, full.Evaluate.runs) with
  | [ s ], [ f ] ->
      (* greedy chaining is not strictly monotonic in the subset, but the
         full universe should never lose more than a whisker *)
      check_bool "within 2%" true
        (f.Evaluate.reduction_pct >= s.Evaluate.reduction_pct -. 2.0)
  | _ -> Alcotest.fail "one run each"

let test_optimal_chain_at_least_greedy () =
  let w = scaled "tri" in
  let c = Workloads.compile w in
  let g = Evaluate.evaluate ~ks:[ 5 ] ~name:"g" c.Minic.Compile.program in
  let o =
    Evaluate.evaluate ~ks:[ 5 ] ~optimal_chain:true ~name:"o"
      c.Minic.Compile.program
  in
  match (g.Evaluate.runs, o.Evaluate.runs) with
  | [ gr ], [ orun ] ->
      check_bool "optimal static chain not worse dynamically by much" true
        (orun.Evaluate.transitions <= gr.Evaluate.transitions + (gr.Evaluate.transitions / 50))
  | _ -> Alcotest.fail "one run each"

let test_loop_selection_policy () =
  (* the paper's "major application loops" policy: encoding only loop
     blocks must still capture nearly all the savings on loop-dominated
     kernels, and every fetch must still decode correctly *)
  let w = scaled "mmul" in
  let c = Workloads.compile w in
  let blocks_r =
    Evaluate.evaluate ~ks:[ 5 ] ~verify:true ~name:"blocks"
      c.Minic.Compile.program
  in
  let loops_r =
    Evaluate.evaluate ~ks:[ 5 ] ~selection:`Hot_loops ~verify:true
      ~name:"loops" c.Minic.Compile.program
  in
  match (blocks_r.Evaluate.runs, loops_r.Evaluate.runs) with
  | [ b ], [ l ] ->
      check_bool "loop policy close to block policy" true
        (Float.abs (b.Evaluate.reduction_pct -. l.Evaluate.reduction_pct) < 5.0)
  | _ -> Alcotest.fail "one run each"

(* ---- plan cache ----------------------------------------------------------- *)

let run_summary (r : Evaluate.report) =
  ( r.Evaluate.baseline_transitions,
    List.map
      (fun run ->
        ( run.Evaluate.k,
          run.Evaluate.transitions,
          run.Evaluate.tt_used,
          run.Evaluate.blocks_encoded ))
      r.Evaluate.runs )

(* every test restores the cache to its default state, since the suite
   shares one process-wide cache *)
let with_fresh_cache f =
  Evaluate.Plan_cache.clear ();
  Fun.protect
    ~finally:(fun () ->
      Evaluate.Plan_cache.set_enabled true;
      Evaluate.Plan_cache.clear ())
    f

let test_cache_hit_miss_determinism () =
  with_fresh_cache (fun () ->
      let w = scaled "mmul" in
      let program = (Workloads.compile w).Minic.Compile.program in
      let a = Evaluate.evaluate ~name:"mmul" program in
      Alcotest.(check (pair int int))
        "first call misses" (0, 1)
        (Evaluate.Plan_cache.stats ());
      let b = Evaluate.evaluate ~name:"mmul" program in
      Alcotest.(check (pair int int))
        "second call hits" (1, 1)
        (Evaluate.Plan_cache.stats ());
      let c = Evaluate.evaluate ~name:"mmul" program in
      Alcotest.(check (pair int int))
        "third call hits" (2, 1)
        (Evaluate.Plan_cache.stats ());
      check_bool "hit results identical to the miss" true
        (run_summary a = run_summary b && run_summary b = run_summary c))

let test_cache_key_sensitivity () =
  with_fresh_cache (fun () ->
      let program = (Workloads.compile (scaled "sor")).Minic.Compile.program in
      let other = (Workloads.compile (scaled "fft")).Minic.Compile.program in
      let expect label hits misses =
        Alcotest.(check (pair int int)) label (hits, misses)
          (Evaluate.Plan_cache.stats ())
      in
      ignore (Evaluate.prepare ~ks:[ 4; 5 ] program);
      expect "cold" 0 1;
      ignore (Evaluate.prepare ~ks:[ 4; 5 ] program);
      expect "same arguments hit" 1 1;
      ignore (Evaluate.prepare ~ks:[ 5 ] program);
      expect "ks is part of the key" 1 2;
      ignore (Evaluate.prepare ~ks:[ 4; 5 ] ~tt_capacity:8 program);
      expect "tt_capacity is part of the key" 1 3;
      ignore
        (Evaluate.prepare ~ks:[ 4; 5 ]
           ~subset_mask:Powercode.Boolfun.full_mask program);
      expect "subset_mask is part of the key" 1 4;
      ignore (Evaluate.prepare ~ks:[ 4; 5 ] ~selection:`Hot_loops program);
      expect "selection is part of the key" 1 5;
      ignore (Evaluate.prepare ~ks:[ 4; 5 ] ~optimal_chain:true program);
      expect "optimal_chain is part of the key" 1 6;
      ignore (Evaluate.prepare ~ks:[ 4; 5 ] other);
      expect "program image is part of the key" 1 7;
      ignore (Evaluate.prepare ~ks:[ 4; 5 ] program);
      expect "original key still cached" 2 7;
      ignore
        (Evaluate.prepare ~ks:[ 4; 5 ]
           ~subset_mask:Powercode.Subset.paper_eight_mask program);
      expect "the default subset_mask spelled out hits the same entry" 3 7)

let test_cache_disabled_equivalence () =
  (* bypassing the cache (set_enabled false, as bench/perf times the cold
     path) must not change any result, and must not touch the counters *)
  with_fresh_cache (fun () ->
      let program = (Workloads.compile (scaled "tri")).Minic.Compile.program in
      let cached = Evaluate.evaluate ~name:"tri" program in
      let cached2 = Evaluate.evaluate ~name:"tri" program in
      let stats_before = Evaluate.Plan_cache.stats () in
      Evaluate.Plan_cache.set_enabled false;
      check_bool "reports disabled" false (Evaluate.Plan_cache.enabled ());
      let uncached = Evaluate.evaluate ~name:"tri" program in
      Alcotest.(check (pair int int))
        "disabled lookups leave the counters alone" stats_before
        (Evaluate.Plan_cache.stats ());
      check_bool "identical results with the cache bypassed" true
        (run_summary cached = run_summary uncached
        && run_summary cached = run_summary cached2))

(* ---- scheme selection ------------------------------------------------------ *)

let scheme_summary (r : Evaluate.report) =
  List.map
    (fun (s : Evaluate.scheme_run) ->
      ( s.Scheme.srun_k,
        s.Scheme.auto_transitions,
        s.Scheme.scheme_counts,
        s.Scheme.auto_energy_j,
        s.Scheme.tt_energy_j,
        s.Scheme.reverted ))
    r.Evaluate.schemes

(* planning never reads the scheme, so every scheme shares one entry *)
let test_cache_schemes_share_entry () =
  with_fresh_cache (fun () ->
      let program = (Workloads.compile (scaled "sor")).Minic.Compile.program in
      let expect label hits misses =
        Alcotest.(check (pair int int)) label (hits, misses)
          (Evaluate.Plan_cache.stats ())
      in
      ignore (Evaluate.evaluate ~ks:[ 4; 5 ] ~name:"sor" program);
      expect "cold default (tt)" 0 1;
      ignore (Evaluate.evaluate ~ks:[ 4; 5 ] ~scheme:`Auto ~name:"sor" program);
      expect "auto hits the tt entry" 1 1;
      ignore
        (Evaluate.evaluate ~ks:[ 4; 5 ] ~scheme:(`Fixed "businvert")
           ~name:"sor" program);
      expect "a fixed backend hits it too" 2 1;
      ignore (Evaluate.evaluate ~ks:[ 4; 5 ] ~scheme:(`Fixed "tt") ~name:"sor"
                program);
      expect "`Fixed tt hits it too" 3 1;
      ignore (Evaluate.prepare ~ks:[ 4; 5 ] program);
      expect "prepare shares the entry" 4 1)

let test_cache_disabled_scheme_equivalence () =
  (* a cached scheme run and an uncached one must agree on every region
     choice and every energy figure *)
  with_fresh_cache (fun () ->
      let program = (Workloads.compile (scaled "fft")).Minic.Compile.program in
      let cached = Evaluate.evaluate ~scheme:`Auto ~name:"fft" program in
      let cached2 = Evaluate.evaluate ~scheme:`Auto ~name:"fft" program in
      Evaluate.Plan_cache.set_enabled false;
      let uncached = Evaluate.evaluate ~scheme:`Auto ~name:"fft" program in
      check_bool "scheme runs byte-identical with the cache bypassed" true
        (scheme_summary cached = scheme_summary uncached
        && scheme_summary cached = scheme_summary cached2);
      check_bool "runs identical too" true
        (run_summary cached = run_summary uncached))

let test_auto_never_worse_than_tt () =
  (* the PR's acceptance criterion: on every seed benchmark, at every block
     size, auto-selection never reports more ledger energy than all-TT *)
  List.iter
    (fun name ->
      let w = Workloads.by_name (Workloads.scaled @ Workloads.extended) name in
      let r = Evaluate.evaluate_workload ~scheme:`Auto w in
      check_int
        (Printf.sprintf "%s: one scheme run per k" name)
        4
        (List.length r.Evaluate.schemes);
      List.iter
        (fun (s : Evaluate.scheme_run) ->
          check_bool
            (Printf.sprintf "%s k=%d auto <= tt" name s.Scheme.srun_k)
            true
            (s.Scheme.auto_energy_j <= s.Scheme.tt_energy_j);
          check_bool
            (Printf.sprintf "%s k=%d counts cover every region" name
               s.Scheme.srun_k)
            true
            (List.fold_left (fun acc (_, n) -> acc + n) 0
               s.Scheme.scheme_counts
            = List.length s.Scheme.choices))
        r.Evaluate.schemes)
    [ "mmul"; "sor"; "ej"; "fft"; "tri"; "lu"; "fir"; "iir"; "dct" ]

let test_fixed_scheme_forces_backend () =
  let program = (Workloads.compile (scaled "sor")).Minic.Compile.program in
  let forced =
    Evaluate.evaluate ~ks:[ 5 ] ~scheme:(`Fixed "businvert") ~name:"sor"
      program
  in
  (match forced.Evaluate.schemes with
  | [ s ] ->
      List.iter
        (fun (c : Scheme.region_choice) ->
          Alcotest.(check string) "every region forced" "businvert"
            c.Scheme.rc_scheme)
        s.Scheme.choices;
      check_bool "override reports honest numbers" true
        (not s.Scheme.reverted)
  | _ -> Alcotest.fail "expected one scheme run");
  (* an unknown or non-fetch-path backend is rejected up front *)
  Alcotest.check_raises "streaming tt is not a fetch-path backend"
    (Invalid_argument
       "Pipeline.Evaluate: \"nonesuch\" is not a fetch-path scheme (want tt, \
        auto, or one of: identity, businvert, t0, gray, lowweight)")
    (fun () ->
      ignore
        (Evaluate.evaluate ~ks:[ 5 ] ~scheme:(`Fixed "nonesuch") ~name:"sor"
           program))

let test_coverage_bounds () =
  let r = Evaluate.evaluate_workload ~ks:[ 5 ] (scaled "mmul") in
  check_bool "0..100" true
    (r.Evaluate.coverage_pct >= 0.0 && r.Evaluate.coverage_pct <= 100.0);
  check_bool "loops dominate" true (r.Evaluate.coverage_pct > 50.0)

let () =
  Alcotest.run "pipeline"
    [
      ( "evaluate",
        [
          Alcotest.test_case "report shape" `Quick test_report_shape;
          Alcotest.test_case "verification covers fetches" `Quick
            test_verification_covers_every_fetch;
          Alcotest.test_case "decoder events = ledger" `Quick
            test_decoder_events_match_ledger;
          Alcotest.test_case "reduces on all kernels" `Quick
            test_reduction_positive_on_loop_kernels;
          Alcotest.test_case "never worse" `Quick test_encoded_never_worse;
          Alcotest.test_case "semantics preserved" `Quick
            test_output_unchanged_by_observation;
          Alcotest.test_case "tt budget" `Quick test_tt_budget_respected;
          Alcotest.test_case "coverage bounds" `Quick test_coverage_bounds;
          Alcotest.test_case "loop selection policy" `Quick
            test_loop_selection_policy;
        ] );
      ( "plan-cache",
        [
          Alcotest.test_case "hit/miss determinism" `Quick
            test_cache_hit_miss_determinism;
          Alcotest.test_case "key sensitivity" `Quick
            test_cache_key_sensitivity;
          Alcotest.test_case "disabled equivalence" `Quick
            test_cache_disabled_equivalence;
          Alcotest.test_case "schemes share one entry" `Quick
            test_cache_schemes_share_entry;
          Alcotest.test_case "disabled equivalence with schemes" `Quick
            test_cache_disabled_scheme_equivalence;
        ] );
      ( "scheme-selection",
        [
          Alcotest.test_case "auto never worse than tt" `Quick
            test_auto_never_worse_than_tt;
          Alcotest.test_case "fixed forces its backend" `Quick
            test_fixed_scheme_forces_backend;
        ] );
      ( "ablation",
        [
          Alcotest.test_case "identity subset" `Quick
            test_identity_only_subset_changes_nothing;
          Alcotest.test_case "full universe" `Quick
            test_full_universe_at_least_as_good;
          Alcotest.test_case "optimal chain" `Quick
            test_optimal_chain_at_least_greedy;
        ] );
    ]
