(* Record once, replay many: every figure Pipeline.Evaluate replays from the
   recorded pc pairs must equal its per-fetch recount in a live run.
   [verify:true] forces that live run (and raises Replay_mismatch on the
   first difference); these tests also compare the two whole reports field
   by field — all but [verified_fetches], which only a live run fills — on
   every benchmark at k = 4..7 with attribution, the on-chip ledger and the
   auto selector on, and on random Minic programs. *)

module Evaluate = Pipeline.Evaluate

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let observed ?(scheme = `Auto) ~verify ~name program =
  Evaluate.evaluate ~ks:[ 4; 5; 6; 7 ] ~scheme ~verify ~attribution:true
    ~ledger:Ledger.Model.on_chip ~name program

let without_verified (r : Evaluate.report) =
  {
    r with
    Evaluate.runs =
      List.map
        (fun run -> { run with Evaluate.verified_fetches = 0 })
        r.Evaluate.runs;
  }

let check_same label (replay : Evaluate.report) (live : Evaluate.report) =
  let field what eq = check_bool (Printf.sprintf "%s: %s" label what) true eq in
  check_int (label ^ ": instructions") live.instructions replay.instructions;
  check_int (label ^ ": baseline") live.baseline_transitions
    replay.baseline_transitions;
  check_int (label ^ ": bus-invert") live.businvert_transitions
    replay.businvert_transitions;
  Alcotest.(check string) (label ^ ": output") live.output replay.output;
  field "coverage" (live.coverage_pct = replay.coverage_pct);
  field "runs" ((without_verified live).runs = replay.runs);
  field "attribution" (live.attribution = replay.attribution);
  field "ledger" (live.ledger = replay.ledger);
  field "schemes" (live.schemes = replay.schemes);
  List.iter
    (fun (run : Evaluate.encoded_run) ->
      check_int
        (Printf.sprintf "%s: k=%d verified every fetch" label run.k)
        live.instructions run.verified_fetches)
    live.runs

let replay_equals_live (w : Workloads.t) () =
  let program = (Workloads.compile w).Minic.Compile.program in
  let name = w.Workloads.name in
  let replay = observed ~verify:false ~name program in
  let live = observed ~verify:true ~name program in
  check_same name replay live;
  check_bool (name ^ ": attribution on") true (replay.attribution <> None);
  check_bool (name ^ ": ledger on") true (replay.ledger <> None);
  check_int (name ^ ": a scheme run per k") 4 (List.length replay.schemes)

(* A backend other than TT is a stateful encoder: its bus can only be
   counted by a live run, even without [verify].  The forced bus-invert
   regions must still agree with a verified run, and their mixed bus must
   differ from the TT bus the replay counts. *)
let test_fixed_businvert_runs_live () =
  let w = Workloads.by_name Workloads.scaled "sor" in
  let program = (Workloads.compile w).Minic.Compile.program in
  let scheme = `Fixed "businvert" in
  let plain = observed ~scheme ~verify:false ~name:"sor" program in
  let live = observed ~scheme ~verify:true ~name:"sor" program in
  check_same "sor businvert" plain live;
  List.iter2
    (fun (s : Evaluate.scheme_run) (run : Evaluate.encoded_run) ->
      check_bool
        (Printf.sprintf "k=%d every region forced" s.srun_k)
        true
        (List.for_all
           (fun (c : Evaluate.region_choice) -> c.rc_scheme = "businvert")
           s.choices);
      check_bool
        (Printf.sprintf "k=%d mixed bus counted live" s.srun_k)
        true
        (s.auto_transitions <> run.transitions))
    plain.schemes plain.runs

(* Every live sink in one run: verify's decoders and recounts, the trace
   collector, and the forced bus-invert mixed bus.  The report must not
   depend on the collector, each fetch tick gets exactly one Bus event,
   and every decoder's BBIT probe and TT decode for a tick come before
   that tick's Bus event. *)
let test_all_sinks_one_run () =
  let w = Workloads.by_name Workloads.scaled "sor" in
  let program = (Workloads.compile w).Minic.Compile.program in
  let scheme = `Fixed "businvert" in
  let plain = observed ~scheme ~verify:true ~name:"sor" program in
  Trace.Collector.start ~capacity:(1 lsl 20) ();
  let traced, events, ticks, dropped =
    Fun.protect ~finally:Trace.Collector.clear (fun () ->
        let r = observed ~scheme ~verify:true ~name:"sor" program in
        ( r,
          Trace.Collector.events (),
          Trace.Collector.fetches (),
          Trace.Collector.dropped () ))
  in
  check_bool "report unchanged by the collector" true (traced = plain);
  check_int "no event dropped" 0 dropped;
  let fetches = plain.instructions in
  let images = List.length plain.runs in
  check_int "one fetch tick per fetch" fetches ticks;
  let probes = Array.make fetches 0 and buses = Array.make fetches 0 in
  let decoder_event time =
    if buses.(time) > 0 then
      Alcotest.failf "tick %d: decoder event after its Bus event" time
  in
  List.iter
    (function
      | Trace.Event.Bbit_probe { time; _ } ->
          decoder_event time;
          probes.(time) <- probes.(time) + 1
      | Trace.Event.Decode { time; _ } -> decoder_event time
      | Trace.Event.Bus { time; encoded; _ } ->
          check_int "one word per image" images (Array.length encoded);
          buses.(time) <- buses.(time) + 1
      | _ -> ())
    events;
  Array.iteri
    (fun time n ->
      if n <> 1 then Alcotest.failf "tick %d: %d Bus events" time n;
      if probes.(time) <> images then
        Alcotest.failf "tick %d: %d BBIT probes before Bus, want %d" time
          probes.(time) images)
    buses

(* Bus-invert is replayed from the pc pairs plus the profile's tie count;
   it must equal the encoder run over every fetched word. *)
let businvert_replayed_and_streamed program =
  let report = Evaluate.evaluate ~ks:[ 4 ] ~name:"businvert" program in
  let words = Isa.Program.words program in
  let fetched = Array.make report.instructions 0 and i = ref 0 in
  ignore
    (Machine.Cpu.run
       ~on_fetch:(fun ~pc ->
         fetched.(!i) <- words.(pc);
         incr i)
       program (Machine.Cpu.create_state ()));
  ( report.businvert_transitions,
    Buspower.Businvert.count_stream ~width:32 fetched )

let businvert_equals_stream (w : Workloads.t) () =
  let program = (Workloads.compile w).Minic.Compile.program in
  let replayed, streamed = businvert_replayed_and_streamed program in
  check_int w.Workloads.name streamed replayed

let prop_random_businvert =
  QCheck.Test.make ~name:"random programs: bus-invert" ~count:20
    (QCheck.make ~print:Fun.id Minic_gen.gen_program) (fun src ->
      let program = (Minic.Compile.compile src).Minic.Compile.program in
      let replayed, streamed = businvert_replayed_and_streamed program in
      replayed = streamed)

let prop_random_programs =
  QCheck.Test.make ~name:"random programs: replay = live" ~count:20
    (QCheck.make ~print:Fun.id Minic_gen.gen_program) (fun src ->
      let program = (Minic.Compile.compile src).Minic.Compile.program in
      let replay = observed ~verify:false ~name:"random" program in
      let live = observed ~verify:true ~name:"random" program in
      without_verified live = replay)

let () =
  Alcotest.run "replay"
    [
      ( "replay = live",
        List.map
          (fun (w : Workloads.t) ->
            Alcotest.test_case
              (Printf.sprintf "%s k=4..7" w.Workloads.name)
              `Quick (replay_equals_live w))
          (Workloads.scaled @ Workloads.extended) );
      ( "bus-invert",
        List.map
          (fun (w : Workloads.t) ->
            Alcotest.test_case w.Workloads.name `Quick
              (businvert_equals_stream w))
          (Workloads.scaled @ Workloads.extended) );
      ( "live fallback",
        [
          Alcotest.test_case "fixed businvert" `Quick
            test_fixed_businvert_runs_live;
          Alcotest.test_case "all sinks in one run" `Quick
            test_all_sinks_one_run;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_random_programs; prop_random_businvert ] );
    ]
