module Metrics = Telemetry.Metrics
module Tel = Telemetry.Registry
module Log = Telemetry.Log

type encoded_run = {
  k : int;
  transitions : int;
  reduction_pct : float;
  tt_used : int;
  blocks_encoded : int;
}

module Plan_cache = Plan_cache

type selection = Plan_cache.selection
type scheme_run = Scheme.run

type report = {
  name : string;
  instructions : int;
  baseline_transitions : int;
  businvert_transitions : int;
  runs : encoded_run list;
  coverage_pct : float;
  output : string;
  attribution : Trace.Attribution.summary option;
  ledger : Ledger.Sheet.t option;
  schemes : scheme_run list;  (** empty under the default [`Tt] scheme *)
}

exception Verification_failed of { pc : int; expected : int; got : int }
exception Replay_mismatch of string

type prepared = {
  prep_k : int;
  prep_plan : Powercode.Program_encoder.plan;
  rebuild : unit -> Hardware.Reprogram.system;
  prep_instructions : int;
  prep_exit_code : int;
  prep_output : string;
  prep_profile : Cfg.Profile.t;
}

let build_system ~tt_capacity ctx program plan =
  Hardware.Reprogram.build ~tt_capacity
    ~bbit_capacity:ctx.Plan_cache.bbit_capacity
    ~functions:ctx.functions program plan

let prepare ?(ks = [ 4; 5; 6; 7 ]) ?(tt_capacity = 16)
    ?(subset_mask = Powercode.Subset.paper_eight_mask)
    ?(optimal_chain = false) ?(selection = `Hot_blocks) program =
  let ctx, plans =
    Plan_cache.context_and_plans ~ks ~tt_capacity ~subset_mask ~optimal_chain
      ~selection program
  in
  List.map
    (fun (k, plan) ->
      {
        prep_k = k;
        prep_plan = plan;
        rebuild = (fun () -> build_system ~tt_capacity ctx program plan);
        prep_instructions = ctx.run.Machine.Cpu.instructions;
        prep_exit_code = ctx.run.Machine.Cpu.exit_code;
        prep_output = ctx.output;
        prep_profile = ctx.profile;
      })
    plans

(* -------------------------------------------------------------------- *)
(* The live run.  Each per-fetch consumer is a sink: [fetch pc w] sees
   every fetch in execution order, [w] being the program word at [pc],
   and [finish] sees the run's result and final machine state. *)

type sink = {
  fetch : int -> int -> unit;
  finish : Machine.Cpu.result -> Machine.Cpu.state -> unit;
}

let check figure ~replay ~live =
  if replay <> live then
    raise
      (Replay_mismatch
         (Printf.sprintf "%s: replay %d, live %d" figure replay live))

(* [verify]: each built system's decoder must restore every fetched word,
   and the run must retrace the recording: its pc-pair profile must equal
   [ctx.profile], so every figure replayed from those pairs holds for it.
   [finish] also checks each built system's image and programming writes
   against the plan-derived [stored] ones, and the run's result. *)
let verify_sink ~(ctx : Plan_cache.context) ~program ~built ~stored
    ~k_of_image =
  let record, recorded = Cfg.Profile.recorder program in
  let fetch pc w =
    record ~pc;
    for v = 0 to Array.length built - 1 do
      let _bus, decoded = Hardware.Fetch_decoder.fetch (snd built.(v)) ~pc in
      if decoded <> w then
        raise (Verification_failed { pc; expected = w; got = decoded })
    done
  in
  let finish (result : Machine.Cpu.result) state =
    Array.iteri
      (fun v (image, writes) ->
        let k = k_of_image.(v) and system, _ = built.(v) in
        if image <> system.Hardware.Reprogram.image then
          raise (Replay_mismatch (Printf.sprintf "k=%d stored image" k));
        check
          (Printf.sprintf "k=%d programming writes" k)
          ~replay:writes
          ~live:(Hardware.Reprogram.programming_writes system))
      stored;
    check "instructions" ~replay:ctx.run.Machine.Cpu.instructions
      ~live:result.instructions;
    check "exit code" ~replay:ctx.run.Machine.Cpu.exit_code
      ~live:result.exit_code;
    if not (String.equal ctx.output (Machine.Cpu.output state)) then
      raise (Replay_mismatch "program output");
    if not (Cfg.Profile.equal (recorded ()) ctx.profile) then
      raise (Replay_mismatch "pc-pair profile")
  in
  { fetch; finish }

(* A recording collector's sink, ahead of every other.  Before the run: a
   [Tt_program] per TT write of the plans, in {!Hardware.Reprogram.build}'s
   order.  Per fetch: the tick; per decoder of [verify], its BBIT probe
   and, when it decodes this fetch, a [Decode], both read before
   [verify_sink] advances it; each image's bus word; the block entered. *)
let trace_sink ~plans ~built ~images ~blocks ~pc_block =
  let tt_write index =
    Trace.Collector.emit
      (Trace.Event.Tt_program { time = Trace.Collector.now (); index })
  in
  Powercode.Program_encoder.(
    List.iter
      (fun (_, plan) ->
        List.iter
          (fun p ->
            Option.iter
              (fun enc ->
                Array.iteri (fun j _ -> tt_write (p.tt_base + j)) enc.entries)
              p.encoding)
          plan.placements)
      plans);
  let pc_block = Lazy.force pc_block in
  let fetch pc word =
    Trace.Collector.fetch ~pc ~word;
    let time = Trace.Collector.now () in
    Array.iter
      (fun ((system : Hardware.Reprogram.system), decoder) ->
        let hit = Hardware.Bbit.lookup_slot system.bbit ~pc <> None in
        Trace.Collector.emit (Trace.Event.Bbit_probe { time; pc; hit });
        if (not hit) && Hardware.Fetch_decoder.active decoder then
          Trace.Collector.emit (Trace.Event.Decode { time; pc }))
      built;
    (* fresh every fetch: the collector's ring keeps it *)
    let encoded = Array.map (fun image -> image.(pc)) images in
    Trace.Collector.bus ~pc ~encoded;
    let block = pc_block.(pc) in
    if blocks.(block).Cfg.Block.start = pc then
      Trace.Collector.emit (Trace.Event.Block_entry { time; pc; block })
  in
  { fetch; finish = (fun _ _ -> ()) }

(* One run of [program] through [sinks], each fetch to every sink in list
   order.  The sinks are chained into one closure before the run:
   iterating the list per fetch would allocate a closure per fetch. *)
let run_live program = function
  | [] -> ()
  | first :: rest ->
      let both a b =
        let fetch pc w = a.fetch pc w; b.fetch pc w in
        let finish r s = a.finish r s; b.finish r s in
        { fetch; finish }
      in
      let sink = List.fold_left both first rest in
      let words = Isa.Program.words program in
      let state = Machine.Cpu.create_state () in
      let on_fetch ~pc = sink.fetch pc (Array.unsafe_get words pc) in
      sink.finish (Machine.Cpu.run ~on_fetch program state) state

let evaluate ?(ks = [ 4; 5; 6; 7 ]) ?(tt_capacity = 16)
    ?(subset_mask = Powercode.Subset.paper_eight_mask)
    ?(optimal_chain = false) ?(selection = `Hot_blocks) ?(scheme = `Tt)
    ?(verify = false) ?(attribution = false) ?ledger ~name program =
  Metrics.with_span Tel.span_evaluate @@ fun () ->
  Metrics.incr Tel.pipeline_evaluations;
  let words = Isa.Program.words program in
  let selector = Scheme.resolve scheme in
  let ctx, plans =
    Plan_cache.context_and_plans ~ks ~tt_capacity ~subset_mask ~optimal_chain
      ~selection program
  in
  let { Plan_cache.profile; blocks; hot_blocks; _ } = ctx in
  (* one stored image and its table writes per block size, read off the
     plan: no decode hardware is needed to count a fixed image's bus *)
  let stored =
    Array.of_list
      (List.map
         (fun (_, plan) ->
           Hardware.Reprogram.stored_image ~tt_capacity
             ~bbit_capacity:ctx.bbit_capacity program plan)
         plans)
  in
  let images = Array.map fst stored in
  let nimg = Array.length images in
  let k_of_image = Array.of_list (List.map fst plans) in
  (* Decode systems, each with its decoder, only for [verify], whose sink
     advances the decoders; a recording trace sink reads them first. *)
  let built =
    if verify then
      Array.of_list
        (List.map
           (fun (_, plan) ->
             let system = build_system ~tt_capacity ctx program plan in
             (system, Hardware.Reprogram.decoder system))
           plans)
    else [||]
  in
  let npc = Array.length words in
  (* pc -> basic-block index, for attribution and for Block_entry trace
     events; the blocks tile the program *)
  let pc_block =
    lazy
      (let map = Array.make npc (-1) in
       Array.iter
         (fun (b : Cfg.Block.t) -> Array.fill map b.start b.len b.index)
         blocks;
       map)
  in
  let block_of_pc pc =
    if pc >= 0 && pc < npc then (Lazy.force pc_block).(pc) else -1
  in
  (* per-image encoded regions (a block's head may be covered only
     partially when the TT ran short, so extents come from the encoding
     actually patched into the image, not the candidate body); shared by
     the ledger meter and the scheme auto-selector *)
  let regions =
    let open Powercode.Program_encoder in
    let region_of pl =
      match pl.encoding with
      | None -> None
      | Some enc ->
          Some
            {
              Scheme.rg_start = pl.cand.start_index;
              rg_len = Bitutil.Bitmat.rows enc.encoded;
              rg_weight = pl.cand.weight;
              rg_tt_static = Bitutil.Bitmat.transitions enc.encoded;
            }
    in
    Array.of_list
      (List.map
         (fun (_, plan) ->
           Array.of_list (List.filter_map region_of plan.placements))
         plans)
  in
  let coverage_pct =
    if nimg = 0 then 0.0
    else
      let starts = Array.map (fun rg -> rg.Scheme.rg_start) regions.(0) in
      100.0
      *. Cfg.Profile.coverage profile
           (List.filter
              (fun (b : Cfg.Block.t) -> Array.mem b.start starts)
              hot_blocks)
  in
  (* per image, pc -> index of the encoded region holding it, or -1 *)
  let region_of_pc =
    lazy
      (Array.map
         (fun rgs ->
           let map = Array.make npc (-1) in
           Array.iteri
             (fun i (rg : Scheme.region) ->
               Array.fill map rg.rg_start rg.rg_len i)
             rgs;
           map)
         regions)
  in
  (* Scheme auto-selection: per image, each region's backend, [None]
     where it stays TT, a pure function of the plan and the model. *)
  let model = Option.value ledger ~default:Ledger.Model.on_chip in
  let selected =
    Option.map
      (fun sel -> (sel, Scheme.select sel ~model ~words ~ks:k_of_image regions))
      selector
  in
  let totals, attr, meter, mixed =
    Metrics.with_span Tel.span_count @@ fun () ->
    Plan_cache.gc_phase Tel.gc_count @@ fun () ->
    (* every stateless figure is a sum over the recorded pc pairs *)
    let first_pc = Cfg.Profile.first_pc profile in
    let pairs f = Cfg.Profile.iter_pairs profile f in
    let totals = Array.map (Cfg.Profile.pair_transitions profile) images in
    let replayed record_pairs acc =
      record_pairs acc ~first_pc ~pairs ~baseline:words ~encoded:images;
      acc
    in
    let attr =
      if attribution then
        Some
          (replayed Trace.Attribution.record_pairs
             (Trace.Attribution.create
                ~labels:(Array.map (Printf.sprintf "k%d") k_of_image)
                ~block_starts:
                  (Array.map (fun (b : Cfg.Block.t) -> b.start) blocks)
                ~block_of_pc))
      else None
    in
    let meter =
      Option.map
        (fun ledger_model ->
          let region_of_pc = Lazy.force region_of_pc in
          replayed Ledger.Meter.record_pairs
            (Ledger.Meter.create ~name ~model:ledger_model ~ks:k_of_image
               ~encoded_region:(fun ~image ~pc ->
                 pc >= 0 && pc < npc && region_of_pc.(image).(pc) >= 0)))
        ledger
    in
    (* A region that left TT drives a stateful encoder: only a live run
       can count its bus, as only a live run feeds the trace collector or
       the per-fetch decoders of [verify]. *)
    let mixed =
      match selected with
      | Some (_, picks) when Array.exists (Array.exists Option.is_some) picks
        ->
          Some
            (Scheme.mixed_bus ~images ~region_of_pc:(Lazy.force region_of_pc)
               picks)
      | _ -> None
    in
    run_live program
      (List.concat
         [
           (if Trace.Collector.enabled () then
              [ trace_sink ~plans ~built ~images ~blocks ~pc_block ]
            else []);
           (if verify then
              [ verify_sink ~ctx ~program ~built ~stored ~k_of_image ]
            else []);
           Option.to_list
             (Option.map
                (fun (fetch, _) -> { fetch; finish = (fun _ _ -> ()) })
                mixed);
         ]);
    (* the auto selector's bus: with every region TT, the TT bus *)
    (totals, attr, meter, match mixed with Some (_, m) -> m | None -> totals)
  in
  let instructions = ctx.run.Machine.Cpu.instructions in
  Metrics.add Tel.pipeline_fetches instructions;
  Metrics.add Tel.pipeline_images nimg;
  if Log.enabled () then
    Log.info "pipeline.phase"
      [
        ("phase", Log.Str "count");
        ("instructions", Log.Int instructions);
        ("images", Log.Int nimg);
      ];
  let baseline_total = ctx.baseline_transitions in
  let reduction_pct transitions =
    if baseline_total = 0 then 0.0
    else
      100.0
      *. (1.0 -. (float_of_int transitions /. float_of_int baseline_total))
  in
  let runs =
    List.mapi
      (fun v (k, plan) ->
        {
          k;
          transitions = totals.(v);
          reduction_pct = reduction_pct totals.(v);
          tt_used = plan.Powercode.Program_encoder.tt_used;
          blocks_encoded = Array.length regions.(v);
        })
      plans
  in
  let scheme_runs =
    match selected with
    | Some (sel, picks) ->
        Scheme.runs sel ~model ~profile ~ks:k_of_image ~totals ~mixed
          ~reduction_pct regions picks
    | None -> []
  in
  let ledger_sheet =
    Option.map
      (fun m ->
        Ledger.Meter.finalize m ~reprogram_writes:(Array.map snd stored))
      meter
  in
  {
    name;
    instructions;
    baseline_transitions = baseline_total;
    businvert_transitions = ctx.businvert_transitions;
    runs;
    coverage_pct;
    output = ctx.output;
    attribution = Option.map Trace.Attribution.summarize attr;
    ledger = ledger_sheet;
    schemes = scheme_runs;
  }

let evaluate_workload ?ks ?scheme ?verify ?attribution ?ledger w =
  let compiled = Workloads.compile w in
  evaluate ?ks ?scheme ?verify ?attribution ?ledger ~name:w.Workloads.name
    compiled.Minic.Compile.program

let pp_report fmt r =
  Format.fprintf fmt "%-5s insns=%d coverage=%.1f%% TR=%d businvert=%d@."
    r.name r.instructions r.coverage_pct r.baseline_transitions
    r.businvert_transitions;
  List.iter
    (fun run ->
      Format.fprintf fmt
        "  k=%d: transitions=%d reduction=%.1f%% tt=%d blocks=%d@." run.k
        run.transitions run.reduction_pct run.tt_used run.blocks_encoded)
    r.runs;
  List.iter
    (fun (s : scheme_run) ->
      Format.fprintf fmt
        "  k=%d scheme: transitions=%d reduction=%.1f%% energy=%.4e J (tt \
         %.4e J)%s regions:%s@."
        s.srun_k s.auto_transitions s.auto_reduction_pct s.auto_energy_j
        s.tt_energy_j
        (if s.reverted then " [reverted to tt]" else "")
        (String.concat ""
           (List.map
              (fun (name, n) -> Printf.sprintf " %s=%d" name n)
              s.scheme_counts)))
    r.schemes;
  match r.ledger with
  | Some sheet -> Format.fprintf fmt "%a@." Ledger.Sheet.pp sheet
  | None -> ()
