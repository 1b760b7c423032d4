(* Record once, replay many: Pipeline.Evaluate counts every figure of a
   report as a sum over the pc pairs of its one recording run.  These tests
   are the per-fetch reference for that replay.  They run each program
   once more and feed every fetch, through the public API only, to:
   - Trace.Attribution.record, over the images of [prepare]'s rebuilt
     systems;
   - Ledger.Meter.record, with the encoded regions of the plan's
     placements;
   - a per-pc fetch count;
   - each scheme run's mixed bus, one encoder per region that left TT.
   The report's attribution, ledger, baseline, per-k transitions, scheme
   transitions and the recorded per-pc counts must equal those recounts:
   on every benchmark at k = 4..7 with attribution, the on-chip ledger and
   the auto selector on, under forced and mixed selections, and on random
   Minic programs.  [verify:true] must then change nothing: it checks the
   decoders and that the live pc-pair stream is the recorded one, and
   returns the same report. *)

module Evaluate = Pipeline.Evaluate

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let ks = [ 4; 5; 6; 7 ]

let observed ?(scheme = `Auto) ?(model = Ledger.Model.on_chip) ~verify ~name
    program =
  Evaluate.evaluate ~ks ~scheme ~verify ~attribution:true ~ledger:model ~name
    program

(* pc -> index of the extent holding it, or -1 *)
let extent_map npc extents =
  let map = Array.make npc (-1) in
  List.iteri (fun i (start, len) -> Array.fill map start len i) extents;
  map

(* The mixed bus of one scheme run over [image], fed fetch by fetch: a
   region that left TT keeps one encoder across its visits, and every
   other fetch drives the stored image while the aux lines hold.  Returns
   the fetch hook and the transitions over data and aux lines. *)
let mixed_bus image (s : Evaluate.scheme_run) =
  Buspower.Backends.ensure ();
  let region =
    extent_map (Array.length image)
      (List.map
         (fun (c : Pipeline.Scheme.region_choice) -> (c.rc_start, c.rc_len))
         s.choices)
  in
  let encoder (c : Pipeline.Scheme.region_choice) =
    if c.rc_scheme = "tt" then None
    else
      match Buspower.Encoder.find c.rc_scheme with
      | None -> Alcotest.failf "unknown scheme %s" c.rc_scheme
      | Some b ->
          let module B = (val b : Buspower.Encoder.S) in
          let e = B.encoder ~width:32 in
          Some
            (fun w ->
              match B.encode e w with
              | [ cw ] -> cw
              | _ -> Alcotest.failf "%s: not one codeword" c.rc_scheme)
  in
  let encoders = Array.of_list (List.map encoder s.choices) in
  let total = ref 0 and primed = ref false in
  let prev = ref { Buspower.Encoder.data = 0; aux = 0 } in
  let fetch pc w =
    let r = region.(pc) in
    let cw =
      match if r >= 0 then encoders.(r) else None with
      | Some encode -> encode w
      | None -> { Buspower.Encoder.data = image.(pc); aux = !prev.aux }
    in
    if !primed then
      total :=
        !total
        + Bitutil.Popcount.count32 (cw.data lxor !prev.data)
        + Bitutil.Popcount.count32 (cw.aux lxor !prev.aux);
    primed := true;
    prev := cw
  in
  (fetch, fun () -> !total)

(* One live run of [program], each fetch fed to the per-fetch counters,
   and every figure of [report] (evaluated at [ks] under [model]) checked
   against them. *)
let check_live ?(model = Ledger.Model.on_chip) label program
    (report : Evaluate.report) =
  let words = Isa.Program.words program in
  let npc = Array.length words in
  let prepared = Evaluate.prepare ~ks program in
  let systems = List.map (fun p -> p.Evaluate.rebuild ()) prepared in
  let images =
    Array.of_list (List.map (fun s -> s.Hardware.Reprogram.image) systems)
  in
  let k_of_image = Array.of_list ks in
  let blocks = Cfg.Block.partition (Isa.Program.insns program) in
  let pc_block =
    extent_map npc
      (Array.to_list
         (Array.map (fun (b : Cfg.Block.t) -> (b.start, b.len)) blocks))
  in
  let attr =
    Trace.Attribution.create
      ~labels:(Array.map (Printf.sprintf "k%d") k_of_image)
      ~block_starts:(Array.map (fun (b : Cfg.Block.t) -> b.start) blocks)
      ~block_of_pc:(fun pc -> if pc >= 0 && pc < npc then pc_block.(pc) else -1)
  in
  let encoded_region =
    Array.of_list
      (List.map
         (fun p ->
           extent_map npc
             (List.filter_map
                (fun (pl : Powercode.Program_encoder.placement) ->
                  Option.map
                    (fun (enc : Powercode.Program_encoder.block_encoding) ->
                      ( pl.cand.start_index,
                        Bitutil.Bitmat.rows enc.encoded ))
                    pl.encoding)
                p.Evaluate.prep_plan.placements))
         prepared)
  in
  let meter =
    Ledger.Meter.create ~name:report.name ~model ~ks:k_of_image
      ~encoded_region:(fun ~image ~pc ->
        pc >= 0 && pc < npc && encoded_region.(image).(pc) >= 0)
  in
  let mixed =
    List.map2 mixed_bus (Array.to_list images) report.Evaluate.schemes
  in
  let fetches = Array.make npc 0 in
  let encoded = Array.make (Array.length images) 0 in
  ignore
    (Machine.Cpu.run
       ~on_fetch:(fun ~pc ->
         let w = words.(pc) in
         fetches.(pc) <- fetches.(pc) + 1;
         Array.iteri (fun v image -> encoded.(v) <- image.(pc)) images;
         Trace.Attribution.record attr ~pc ~baseline:w ~encoded;
         Ledger.Meter.record meter ~pc ~baseline:w ~encoded;
         List.iter (fun (fetch, _) -> fetch pc w) mixed)
       program (Machine.Cpu.create_state ()));
  let profile = (List.hd prepared).Evaluate.prep_profile in
  Array.iteri
    (fun pc live ->
      check_int
        (Printf.sprintf "%s: pc %d fetches" label pc)
        live
        (Cfg.Profile.instruction_count profile pc))
    fetches;
  let live = Trace.Attribution.summarize attr in
  check_int (label ^ ": baseline transitions") live.total_baseline
    report.baseline_transitions;
  List.iteri
    (fun v (run : Evaluate.encoded_run) ->
      check_int
        (Printf.sprintf "%s: k=%d transitions" label run.k)
        live.total_encoded.(v) run.transitions)
    report.runs;
  check_bool (label ^ ": attribution summary") true
    (report.attribution = Some live);
  let reprogram_writes =
    Array.of_list (List.map Hardware.Reprogram.programming_writes systems)
  in
  check_bool (label ^ ": ledger") true
    (report.ledger = Some (Ledger.Meter.finalize meter ~reprogram_writes));
  List.iter2
    (fun (s : Evaluate.scheme_run) (_, total) ->
      check_int
        (Printf.sprintf "%s: k=%d mixed bus" label s.srun_k)
        (total ()) s.auto_transitions)
    report.schemes mixed

(* [verify] adds the decoders and the pair-stream check, and nothing to
   the report *)
let check_verified label ?scheme ?model program (report : Evaluate.report) =
  check_bool (label ^ ": verified report = report") true
    (observed ?scheme ?model ~verify:true ~name:report.name program = report)

let replay_equals_live (w : Workloads.t) () =
  let program = (Workloads.compile w).Minic.Compile.program in
  let name = w.Workloads.name in
  let report = observed ~verify:false ~name program in
  check_live name program report;
  check_verified name program report;
  check_bool (name ^ ": attribution on") true (report.attribution <> None);
  check_bool (name ^ ": ledger on") true (report.ledger <> None);
  check_int (name ^ ": a scheme run per k") 4 (List.length report.schemes)

(* A backend other than TT is a stateful encoder: its bus can only be
   counted by a live run, even without [verify].  The forced bus-invert
   regions' mixed bus must equal the per-fetch recount and differ from
   the TT bus the replay counts. *)
let test_fixed_businvert_runs_live () =
  let w = Workloads.by_name Workloads.scaled "sor" in
  let program = (Workloads.compile w).Minic.Compile.program in
  let scheme = `Fixed "businvert" in
  let report = observed ~scheme ~verify:false ~name:"sor" program in
  check_live "sor businvert" program report;
  check_verified "sor businvert" ~scheme program report;
  List.iter2
    (fun (s : Evaluate.scheme_run) (run : Evaluate.encoded_run) ->
      check_bool
        (Printf.sprintf "k=%d every region forced" s.srun_k)
        true
        (List.for_all
           (fun (c : Pipeline.Scheme.region_choice) -> c.rc_scheme = "businvert")
           s.choices);
      check_bool
        (Printf.sprintf "k=%d mixed bus counted live" s.srun_k)
        true
        (s.auto_transitions <> run.transitions))
    report.schemes report.runs

(* A dearer TT read makes the auto selector move some regions of sor and
   ej off TT and keep others, so the mixed bus alternates between stored
   words and encoder codewords. *)
let test_mixed_selection () =
  let model =
    Result.get_ok (Ledger.Model.override Ledger.Model.on_chip "tt_read_j" 1e-11)
  in
  List.iter
    (fun name ->
      let w = Workloads.by_name Workloads.scaled name in
      let program = (Workloads.compile w).Minic.Compile.program in
      let report = observed ~model ~verify:false ~name program in
      check_bool (name ^ ": some run mixes TT and other regions") true
        (List.exists
           (fun (s : Evaluate.scheme_run) ->
             let tt (c : Pipeline.Scheme.region_choice) = c.rc_scheme = "tt" in
             (not s.reverted)
             && List.exists tt s.choices
             && not (List.for_all tt s.choices))
           report.schemes);
      check_live ~model name program report;
      check_verified name ~model program report)
    [ "sor"; "ej" ]

(* Every live sink in one run: verify's decoders and recorder, the trace
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
      let report = observed ~verify:false ~name:"random" program in
      check_live "random" program report;
      check_verified "random" program report;
      true)

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
          Alcotest.test_case "mixed selection" `Quick test_mixed_selection;
          Alcotest.test_case "all sinks in one run" `Quick
            test_all_sinks_one_run;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_random_programs; prop_random_businvert ] );
    ]
