module Metrics = Telemetry.Metrics
module Tel = Telemetry.Registry
module Log = Telemetry.Log

type encoded_run = {
  k : int;
  transitions : int;
  reduction_pct : float;
  tt_used : int;
  blocks_encoded : int;
  verified_fetches : int;
}

(* Per-region scheme selection (the multi-backend auto-tuner). *)
type scheme = [ `Tt | `Auto | `Fixed of string ]

type region_choice = {
  rc_start : int;  (** instruction index of the encoded region head *)
  rc_len : int;  (** words actually stored encoded *)
  rc_weight : int;  (** dynamic execution count *)
  rc_scheme : string;  (** ["tt"] or a registered backend name *)
}

type scheme_run = {
  srun_k : int;
  choices : region_choice list;
  scheme_counts : (string * int) list;  (** scheme -> regions, ["tt"] first *)
  auto_transitions : int;  (** exact bus transitions under the selection *)
  auto_reduction_pct : float;
  auto_energy_j : float;  (** bus + table reads/writes under the selection *)
  tt_energy_j : float;  (** same accounting, every region TT *)
  reverted : bool;
      (** the measured selection cost more than all-TT, so the commit rule
          fell back to TT everywhere (never reported worse than TT) *)
}

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

(* A live run touches every fetch for every image; the 16-bit table lives
   in Bitutil.Popcount, shared with the bit-vector word operations. *)
let popcount32 = Bitutil.Popcount.count32

let candidate_of_block words profile (b : Cfg.Block.t) =
  let body = Array.sub words b.Cfg.Block.start b.Cfg.Block.len in
  {
    Powercode.Program_encoder.start_index = b.Cfg.Block.start;
    body = Bitutil.Bitmat.of_words ~width:32 body;
    weight = Cfg.Profile.block_weight profile b;
  }

type selection = [ `Hot_blocks | `Hot_loops ]

(* GC accounting around each pipeline phase: [Gc.quick_stat] deltas feed
   the standing gc.<phase>.* counters, and the heap gauges track the major
   heap at phase boundaries.  GC stats are per-domain in OCaml 5, so these
   deltas cover the calling domain; worker-domain allocation shows up in
   the pool's busy time, not here.  Minor words come from [Gc.minor_words],
   the precise allocation counter: [quick_stat]'s copy only advances when
   the young area flushes, so a phase allocating less than one minor heap
   would nondeterministically record zero. *)
let gc_phase (minor_words, major_words, minor_collections, major_collections)
    f =
  if not (Metrics.enabled ()) then f ()
  else begin
    let s0 = Gc.quick_stat () in
    let mw0 = Gc.minor_words () in
    Fun.protect
      ~finally:(fun () ->
        let s1 = Gc.quick_stat () in
        Metrics.add minor_words (int_of_float (Gc.minor_words () -. mw0));
        Metrics.add major_words
          (int_of_float (s1.Gc.major_words -. s0.Gc.major_words));
        Metrics.add minor_collections
          (s1.Gc.minor_collections - s0.Gc.minor_collections);
        Metrics.add major_collections
          (s1.Gc.major_collections - s0.Gc.major_collections);
        Metrics.set_gauge Tel.gc_heap_words 0 s1.Gc.heap_words;
        if
          s1.Gc.top_heap_words > Metrics.gauge_value Tel.gc_top_heap_words 0
        then Metrics.set_gauge Tel.gc_top_heap_words 0 s1.Gc.top_heap_words)
      f
  end

let gc_profile_phase =
  Tel.
    ( gc_profile_minor_words,
      gc_profile_major_words,
      gc_profile_minor_collections,
      gc_profile_major_collections )

let gc_plan_phase =
  Tel.
    ( gc_plan_minor_words,
      gc_plan_major_words,
      gc_plan_minor_collections,
      gc_plan_major_collections )

let gc_count_phase =
  Tel.
    ( gc_count_minor_words,
      gc_count_major_words,
      gc_count_minor_collections,
      gc_count_major_collections )

(* Everything the one run of the program records and block selection
   produces, which both [evaluate] and the system preparation below need.
   Besides the profile, the run records every figure of a report that does
   not depend on an encoded image; bus-invert is stateful, so it rides the
   run instead of being summed over pc pairs afterwards. *)
type context = {
  profile : Cfg.Profile.t;
  run : Machine.Cpu.result;
  output : string;
  baseline_transitions : int;
  businvert_transitions : int;
  blocks : Cfg.Block.t array;
  hot_blocks : Cfg.Block.t list;
  candidates : Powercode.Program_encoder.candidate list;
  functions : Powercode.Boolfun.t array;
  bbit_capacity : int;
  subset_mask : int;
}

let context ?subset_mask ?(selection = `Hot_blocks) program =
  let subset_mask =
    match subset_mask with
    | Some m -> m
    | None -> Powercode.Subset.paper_eight_mask
  in
  let words = Isa.Program.words program in
  let blocks = Cfg.Block.partition (Isa.Program.insns program) in
  let businvert = Buspower.Businvert.create ~width:32 () in
  let profile, run, state =
    Metrics.with_span Tel.span_profile (fun () ->
        gc_phase gc_profile_phase (fun () ->
            Cfg.Profile.run
              ~on_fetch:(fun ~pc ->
                Buspower.Businvert.step businvert (Array.unsafe_get words pc))
              program))
  in
  let hot_blocks =
    Array.to_list blocks
    |> List.filter (fun b -> Cfg.Profile.block_weight profile b > 0)
  in
  let selected_blocks =
    match selection with
    | `Hot_blocks -> hot_blocks
    | `Hot_loops ->
        let doms = Cfg.Dominator.compute blocks in
        let loops = Cfg.Loop.detect blocks doms in
        List.filter
          (fun (b : Cfg.Block.t) ->
            List.exists (fun l -> Cfg.Loop.contains l b.Cfg.Block.index) loops)
          hot_blocks
  in
  let candidates = List.map (candidate_of_block words profile) selected_blocks in
  if Log.enabled () then
    Log.info "pipeline.phase"
      [
        ("phase", Log.Str "profile");
        ("hot_blocks", Log.Int (List.length hot_blocks));
        ("candidates", Log.Int (List.length candidates));
      ];
  (* the hardware's gate set must match the subset the encoder drew from *)
  let functions = Array.of_list (Powercode.Boolfun.list_of_mask subset_mask) in
  let bbit_capacity = max 16 (List.length candidates) in
  {
    profile;
    run;
    output = Machine.Cpu.output state;
    baseline_transitions = Cfg.Profile.pair_transitions profile words;
    businvert_transitions = Buspower.Businvert.transitions businvert;
    blocks;
    hot_blocks;
    candidates;
    functions;
    bbit_capacity;
    subset_mask;
  }

type prepared = {
  prep_k : int;
  prep_plan : Powercode.Program_encoder.plan;
  prep_system : Hardware.Reprogram.system;
  rebuild : unit -> Hardware.Reprogram.system;
  prep_instructions : int;
  prep_exit_code : int;
  prep_output : string;
}

let plan_only ~tt_capacity ~optimal_chain ctx ks =
  Metrics.with_span Tel.span_plan @@ fun () ->
  gc_phase gc_plan_phase @@ fun () ->
  let plans =
    List.map
      (fun k ->
        let config =
          {
            Powercode.Program_encoder.k;
            subset_mask = ctx.subset_mask;
            tt_capacity;
            optimal_chain;
          }
        in
        (k, Powercode.Program_encoder.plan config ctx.candidates))
      ks
  in
  if Log.enabled () then
    Log.info "pipeline.phase"
      [
        ("phase", Log.Str "plan");
        ("ks", Log.Str (String.concat "," (List.map string_of_int ks)));
        ("plans", Log.Int (List.length plans));
      ];
  plans

(* Content-addressed cache of the expensive front half (the recorded run +
   plan).  The cached context and plans are immutable once built: decode
   systems are always rebuilt fresh (they are mutated by reprogramming and
   by fault injection), so sharing plans across evaluations is safe.  Keys
   hold the full program image plus every option that feeds block
   selection or encoding — and nothing else: the scheme only acts after
   planning, so every scheme shares one entry.  The FNV fingerprint only
   short-circuits comparisons — a lookup succeeds on full structural
   equality, never on hash alone. *)
module Plan_cache = struct
  type key = {
    key_words : int array;
    key_ks : int list;
    key_tt_capacity : int;
    key_subset_mask : int option;
    key_optimal_chain : bool;
    key_selection : selection;
  }

  type entry = {
    hash : int;
    key : key;
    ctx : context;
    plans : (int * Powercode.Program_encoder.plan) list;
  }

  let fnv_prime = 0x100000001b3
  let fnv_step h x = (h lxor x) * fnv_prime land max_int

  let hash_key k =
    let h = ref (fnv_step 0x3bf29ce484222325 (Array.length k.key_words)) in
    Array.iter (fun w -> h := fnv_step !h w) k.key_words;
    List.iter (fun x -> h := fnv_step !h x) k.key_ks;
    h := fnv_step !h k.key_tt_capacity;
    h :=
      fnv_step !h
        (match k.key_subset_mask with None -> -1 | Some m -> m);
    h := fnv_step !h (Bool.to_int k.key_optimal_chain);
    h :=
      fnv_step !h
        (match k.key_selection with `Hot_blocks -> 0 | `Hot_loops -> 1);
    !h

  let key_equal a b =
    a.key_ks = b.key_ks
    && a.key_tt_capacity = b.key_tt_capacity
    && a.key_subset_mask = b.key_subset_mask
    && a.key_optimal_chain = b.key_optimal_chain
    && a.key_selection = b.key_selection
    && (a.key_words == b.key_words || a.key_words = b.key_words)

  (* Enough for every workload in the bench suite plus a campaign's bench
     list; beyond that the least recently used entry is dropped. *)
  let max_entries = 32

  let entries : entry list ref = ref []
  let mutex = Mutex.create ()
  let enabled_flag = ref true
  let hit_count = ref 0
  let miss_count = ref 0

  let set_enabled b = enabled_flag := b
  let enabled () = !enabled_flag

  let clear () =
    Mutex.lock mutex;
    entries := [];
    hit_count := 0;
    miss_count := 0;
    Mutex.unlock mutex

  let stats () = (!hit_count, !miss_count)

  (* the FNV fingerprint, printed the way log events and humans compare *)
  let key_hex hash = Printf.sprintf "%016x" hash

  let find hash key =
    Mutex.lock mutex;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock mutex)
      (fun () ->
        match
          List.find_opt
            (fun e -> e.hash = hash && key_equal e.key key)
            !entries
        with
        | Some e ->
            incr hit_count;
            Metrics.incr Tel.plan_cache_hits;
            if Log.enabled () then
              Log.debug "plan.cache_hit" [ ("key", Log.Str (key_hex hash)) ];
            (* move-to-front: the list doubles as LRU order *)
            entries := e :: List.filter (fun e' -> e' != e) !entries;
            Some (e.ctx, e.plans)
        | None ->
            incr miss_count;
            Metrics.incr Tel.plan_cache_misses;
            if Log.enabled () then
              Log.debug "plan.cache_miss" [ ("key", Log.Str (key_hex hash)) ];
            None)

  let insert hash key ctx plans =
    Mutex.lock mutex;
    let keep = List.filteri (fun i _ -> i < max_entries - 1) !entries in
    entries := { hash; key; ctx; plans } :: keep;
    Mutex.unlock mutex
end

(* The shared front half of [prepare] and [evaluate]: context (the recorded
   run + block selection) and one plan per block size, through the cache
   when it is enabled. *)
let context_and_plans ~ks ~tt_capacity ~subset_mask ~optimal_chain ~selection
    program =
  let compute () =
    let ctx = context ?subset_mask ?selection:(Some selection) program in
    (ctx, plan_only ~tt_capacity ~optimal_chain ctx ks)
  in
  if not (Plan_cache.enabled ()) then compute ()
  else begin
    let key =
      {
        Plan_cache.key_words = Isa.Program.words program;
        key_ks = ks;
        key_tt_capacity = tt_capacity;
        key_subset_mask = subset_mask;
        key_optimal_chain = optimal_chain;
        key_selection = selection;
      }
    in
    let hash = Plan_cache.hash_key key in
    match Plan_cache.find hash key with
    | Some (ctx, plans) -> (ctx, plans)
    | None ->
        let ctx, plans = compute () in
        Plan_cache.insert hash key ctx plans;
        (ctx, plans)
  end

let systems_of_plans ~tt_capacity ctx program plans =
  List.map
    (fun (k, plan) ->
      let build () =
        Hardware.Reprogram.build ~tt_capacity ~bbit_capacity:ctx.bbit_capacity
          ~functions:ctx.functions program plan
      in
      {
        prep_k = k;
        prep_plan = plan;
        prep_system = build ();
        rebuild = build;
        prep_instructions = ctx.run.Machine.Cpu.instructions;
        prep_exit_code = ctx.run.Machine.Cpu.exit_code;
        prep_output = ctx.output;
      })
    plans

let prepare ?(ks = [ 4; 5; 6; 7 ]) ?(tt_capacity = 16) ?subset_mask
    ?(optimal_chain = false) ?(selection = `Hot_blocks) program =
  let ctx, plans =
    context_and_plans ~ks ~tt_capacity ~subset_mask ~optimal_chain ~selection
      program
  in
  systems_of_plans ~tt_capacity ctx program plans

(* -------------------------------------------------------------------- *)
(* Per-region scheme auto-selection.

   Only word-at-a-time backends covering the full 32-line bus qualify as
   fetch-path alternatives: a backend with [latency_words > 0] (the
   streaming TT) would stall fetch waiting for lookahead — the paper's TT
   gets its lookahead offline, through the stored image, which is the
   form the pipeline already implements.  Region membership detection is
   the BBIT's existing job, so a per-region decoder knows when to apply
   its scheme, exactly as the TT regions do. *)

let fetch_path_backends () =
  Buspower.Backends.ensure ();
  List.filter
    (fun b ->
      let module B = (val b : Buspower.Encoder.S) in
      B.max_width >= 32
      && (B.cost ~width:32).Buspower.Encoder.latency_words = 0)
    (Buspower.Encoder.all ())

(* [None]: every region stays TT; [Some (`Choose alts)]: per-region
   scored choice among [alts], TT unless strictly cheaper; [Some
   (`Force b)]: every region takes [b] regardless of score. *)
let resolve_scheme = function
  | `Tt | `Fixed "tt" -> None
  | `Auto -> Some (`Choose (fetch_path_backends ()))
  | `Fixed name -> (
      let eligible = fetch_path_backends () in
      match
        List.find_opt
          (fun b ->
            let module B = (val b : Buspower.Encoder.S) in
            String.equal B.scheme name)
          eligible
      with
      | Some b -> Some (`Force b)
      | None ->
          invalid_arg
            (Printf.sprintf
               "Pipeline.Evaluate: %S is not a fetch-path scheme (want tt, \
                auto, or one of: %s)"
               name
               (String.concat ", "
                  (List.map
                     (fun b ->
                       let module B = (val b : Buspower.Encoder.S) in
                       B.scheme)
                     eligible))))

(* One encoded region of one k-plan, with everything scoring needs. *)
type region = {
  rg_start : int;
  rg_len : int;
  rg_weight : int;
  rg_tt_static : int;  (* stored-image transitions of one body traversal *)
}

(* Runtime state of a region that selected a non-TT backend: a persistent
   encoder stepped once per fetch, plus the ledger charges its choice
   carries.  The closure hides the backend's encoder type. *)
type alt_runtime = {
  art_scheme : string;
  art_step : int -> Buspower.Encoder.codeword;
  art_reads_per_fetch : int;
  art_table_words : int;
  mutable art_fetches : int;
}

(* The auto selector's per-fetch bus state, one slot per k-image, kept by a
   live run. *)
type auto_state = {
  as_region_of_pc : int array array;  (* pc -> encoded-region index or -1 *)
  as_alt : alt_runtime option array array;  (* region -> non-TT choice *)
  as_totals : int array;  (* exact mixed-bus transitions *)
  as_prev_data : int array;
  as_prev_aux : int array;
  as_tt_fetches : int array;  (* fetches in regions left TT *)
  mutable as_first : bool;
}

(* Conservative static score, in joules per program run: weighted encoded
   stream transitions (plus a worst-case full-bus seam each traversal for
   non-incumbent schemes), per-fetch side-table reads, and the one-time
   table programming.  Deterministic: ties and near-ties keep TT, and
   among alternatives the first strictly-better backend in registration
   order wins.  Returns the winner (None = keep TT) together with every
   candidate's score, TT first — the event log records the full slate so
   a choice can be audited without rescoring. *)
let choose_backend ~alts ~model ~per_t ~words (rg : region) =
  let fl = float_of_int in
  let w = fl rg.rg_weight in
  let tt_score =
    (w *. fl rg.rg_tt_static *. per_t)
    +. (w *. fl rg.rg_len *. model.Ledger.Model.tt_read_j)
  in
  let body = Array.sub words rg.rg_start rg.rg_len in
  let best = ref None and best_score = ref tt_score in
  let scores = ref [ ("tt", tt_score) ] in
  List.iter
    (fun b ->
      let module B = (val b : Buspower.Encoder.S) in
      let c = B.cost ~width:32 in
      let t = Buspower.Encoder.stream_transitions b ~width:32 body in
      let seam = 32 + B.aux_width ~width:32 in
      let score =
        (w *. fl (t + seam) *. per_t)
        +. (w *. fl rg.rg_len *. fl c.Buspower.Encoder.reads_per_fetch
           *. model.Ledger.Model.tt_read_j)
        +. (fl ((c.Buspower.Encoder.table_bits + 31) / 32)
           *. model.Ledger.Model.table_write_j)
      in
      scores := (B.scheme, score) :: !scores;
      if score < !best_score then begin
        best := Some b;
        best_score := score
      end)
    alts;
  (!best, List.rev !scores)

(* [f pc] for every pc of [rg] inside the program *)
let region_pcs npc rg f =
  for pc = rg.rg_start to min (npc - 1) (rg.rg_start + rg.rg_len - 1) do
    f pc
  done

let evaluate ?(ks = [ 4; 5; 6; 7 ]) ?(tt_capacity = 16) ?subset_mask
    ?(optimal_chain = false) ?(selection = `Hot_blocks) ?(scheme = `Tt)
    ?(verify = false) ?(attribution = false) ?ledger ~name program =
  Metrics.with_span Tel.span_evaluate @@ fun () ->
  Metrics.incr Tel.pipeline_evaluations;
  let words = Isa.Program.words program in
  let scheme_alts = resolve_scheme scheme in
  let ctx, plans =
    context_and_plans ~ks ~tt_capacity ~subset_mask ~optimal_chain ~selection
      program
  in
  let { profile; blocks; hot_blocks; _ } = ctx in
  (* plans and decode systems, one per block size *)
  let systems =
    List.map
      (fun p -> (p.prep_k, p.prep_plan, p.prep_system))
      (systems_of_plans ~tt_capacity ctx program plans)
  in
  let coverage_pct =
    match systems with
    | [] -> 0.0
    | (_, plan, _) :: _ ->
        let encoded_starts =
          List.filter_map
            (fun p ->
              if p.Powercode.Program_encoder.encoding <> None then
                Some p.Powercode.Program_encoder.cand.start_index
              else None)
            plan.Powercode.Program_encoder.placements
        in
        let subset =
          List.filter
            (fun (b : Cfg.Block.t) -> List.mem b.start encoded_starts)
            hot_blocks
        in
        100.0 *. Cfg.Profile.coverage profile subset
  in
  let images =
    Array.of_list
      (List.map (fun (_, _, s) -> s.Hardware.Reprogram.image) systems)
  in
  let nimg = Array.length images in
  let k_of_image = Array.of_list (List.map (fun (k, _, _) -> k) systems) in
  let npc = Array.length words in
  (* pc -> basic-block index and block-entry flag, for attribution and for
     Block_entry trace events *)
  let block_map =
    lazy
      (let pc_block = Array.make npc (-1) in
       let pc_is_start = Array.make npc false in
       Array.iteri
         (fun bi (b : Cfg.Block.t) ->
           if b.start < npc then pc_is_start.(b.start) <- true;
           for pc = b.start to min (npc - 1) (b.start + b.len - 1) do
             pc_block.(pc) <- bi
           done)
         blocks;
       (pc_block, pc_is_start))
  in
  let block_of_pc pc =
    if pc >= 0 && pc < npc then (fst (Lazy.force block_map)).(pc) else -1
  in
  (* per-image map of pcs stored encoded (a block's head may be covered
     only partially when the TT ran short, so extents come from the
     encoding actually patched into the image, not the candidate body);
     shared by the ledger meter and the scheme auto-selector *)
  let encoded_regions_of plan =
    List.filter_map
      (fun p ->
        match p.Powercode.Program_encoder.encoding with
        | None -> None
        | Some enc ->
            Some
              {
                rg_start = p.Powercode.Program_encoder.cand.start_index;
                rg_len =
                  Bitutil.Bitmat.rows enc.Powercode.Program_encoder.encoded;
                rg_weight = p.Powercode.Program_encoder.cand.weight;
                rg_tt_static =
                  Bitutil.Bitmat.transitions
                    enc.Powercode.Program_encoder.encoded;
              })
      plan.Powercode.Program_encoder.placements
  in
  let regions =
    Array.of_list (List.map (fun (_, plan, _) -> encoded_regions_of plan) systems)
  in
  let encoded_pc =
    lazy
      (Array.map
         (fun rgs ->
           let map = Array.make npc false in
           List.iter
             (fun rg -> region_pcs npc rg (fun pc -> map.(pc) <- true))
             rgs;
           map)
         regions)
  in
  let new_attribution () =
    Trace.Attribution.create
      ~labels:(Array.of_list (List.map (fun k -> "k" ^ string_of_int k) ks))
      ~block_starts:(Array.map (fun (b : Cfg.Block.t) -> b.start) blocks)
      ~block_of_pc
  in
  let new_meter model =
    let encoded_pc = Lazy.force encoded_pc in
    Ledger.Meter.create ~name ~model ~ks:k_of_image
      ~encoded_region:(fun ~image ~pc ->
        pc >= 0 && pc < npc && encoded_pc.(image).(pc))
  in
  (* Scheme auto-selection: score each encoded region against the
     fetch-path alternatives.  The choice is static, a pure function of
     the plan and the model. *)
  let scoring_model =
    match ledger with Some m -> m | None -> Ledger.Model.on_chip
  in
  let per_t = Buspower.Energy.per_transition scoring_model.Ledger.Model.bus in
  let alt_of_region =
    match scheme_alts with
    | None -> None
    | Some sel ->
        (* one event per region: the scored slate, the winner, and whether
           the choice was forced rather than scored *)
        let region_event ~k ~forced rg winner scores =
          Log.info "scheme.region"
            ([
               ("k", Log.Int k);
               ("start", Log.Int rg.rg_start);
               ("len", Log.Int rg.rg_len);
               ("weight", Log.Int rg.rg_weight);
               ("winner", Log.Str winner);
               ("forced", Log.Bool forced);
             ]
            @ List.map (fun (s, v) -> ("cost_" ^ s, Log.Float v)) scores)
        in
        let pick ~k rg =
          match sel with
          | `Force b ->
              if Log.enabled () then begin
                let module B = (val b : Buspower.Encoder.S) in
                region_event ~k ~forced:true rg B.scheme []
              end;
              Some b
          | `Choose alts ->
              let winner, scores =
                choose_backend ~alts ~model:scoring_model ~per_t ~words rg
              in
              if Log.enabled () then begin
                let name =
                  match winner with
                  | None -> "tt"
                  | Some b ->
                      let module B = (val b : Buspower.Encoder.S) in
                      B.scheme
                in
                region_event ~k ~forced:false rg name scores
              end;
              winner
        in
        Some
          (Array.mapi
             (fun v rgs ->
               Array.of_list
                 (List.map
                    (fun rg ->
                      match pick ~k:k_of_image.(v) rg with
                      | None -> None
                      | Some b ->
                          let module B = (val b : Buspower.Encoder.S) in
                          let e = B.encoder ~width:32 in
                          let c = B.cost ~width:32 in
                          Some
                            {
                              art_scheme = B.scheme;
                              art_step =
                                (fun w ->
                                  match B.encode e w with
                                  | [ cw ] -> cw
                                  | _ ->
                                      failwith
                                        "Pipeline.Evaluate: latency-0 backend \
                                         emitted <> 1 codeword");
                              art_reads_per_fetch =
                                c.Buspower.Encoder.reads_per_fetch;
                              art_table_words =
                                (c.Buspower.Encoder.table_bits + 31) / 32;
                              art_fetches = 0;
                            })
                    rgs))
             regions)
  in
  (* A region that left TT drives a stateful encoder: only a live run can
     count its bus.  So can only a live run feed the trace collector or the
     per-fetch decoders of [verify]. *)
  let stateful =
    match alt_of_region with
    | None -> false
    | Some alts -> Array.exists (Array.exists Option.is_some) alts
  in
  let tracing = Trace.Collector.enabled () in
  let first_pc = Cfg.Profile.first_pc profile in
  let pairs f = Cfg.Profile.iter_pairs profile f in
  (* One live run over the program: the per-fetch consumers, and under
     [verify] a recount of every replayed figure that raises on the first
     difference.  Returns the auto selector's per-fetch state, if any, and
     the per-image verified fetch counts. *)
  let live_run ~totals ~attr ~meter =
    let decoders =
      if verify then
        Array.of_list
          (List.map (fun (_, _, s) -> Hardware.Reprogram.decoder s) systems)
      else [||]
    in
    let verified = Array.make nimg 0 in
    (* the per-fetch recounts: attribution totals cover the baseline and
       every image, whether or not the caller asked for attribution *)
    let live_businvert = Buspower.Businvert.create ~width:32 () in
    let live_attr = if verify then Some (new_attribution ()) else None in
    let live_meter = if verify then Option.map new_meter ledger else None in
    let auto =
      match alt_of_region with
      | Some alts when stateful || verify ->
          Some
            {
              as_region_of_pc =
                Array.map
                  (fun rgs ->
                    let map = Array.make npc (-1) in
                    List.iteri
                      (fun ri rg ->
                        region_pcs npc rg (fun pc -> map.(pc) <- ri))
                      rgs;
                    map)
                  regions;
              as_alt = alts;
              as_totals = Array.make nimg 0;
              as_prev_data = Array.make nimg 0;
              as_prev_aux = Array.make nimg 0;
              as_tt_fetches = Array.make nimg 0;
              as_first = true;
            }
      | _ -> None
    in
    let on_fetch ~pc =
      let w = Array.unsafe_get words pc in
      if verify then begin
        Buspower.Businvert.step live_businvert w;
        Array.iteri
          (fun v dec ->
            let _bus, decoded = Hardware.Fetch_decoder.fetch dec ~pc in
            if decoded <> w then
              raise (Verification_failed { pc; expected = w; got = decoded });
            verified.(v) <- verified.(v) + 1)
          decoders
      end;
      (* Attribution and trace events share one fresh per-fetch word array;
         the ring retains it, so it must not be a reused scratch buffer. *)
      if tracing || live_attr <> None || live_meter <> None then begin
        let enc = Array.init nimg (fun v -> (Array.unsafe_get images v).(pc)) in
        (match live_attr with
        | Some a -> Trace.Attribution.record a ~pc ~baseline:w ~encoded:enc
        | None -> ());
        (match live_meter with
        | Some m -> Ledger.Meter.record m ~pc ~baseline:w ~encoded:enc
        | None -> ());
        if tracing then begin
          let time = Trace.Collector.now () in
          Trace.Collector.emit (Trace.Event.Bus { time; pc; encoded = enc });
          let pc_block, pc_is_start = Lazy.force block_map in
          if pc_is_start.(pc) then
            Trace.Collector.emit
              (Trace.Event.Block_entry { time; pc; block = pc_block.(pc) })
        end
      end;
      (* the chosen mixed bus: regions left TT and unencoded fetches drive
         the stored image while the aux lines hold *)
      match auto with
      | None -> ()
      | Some a ->
          let first_auto = a.as_first in
          a.as_first <- false;
          for v = 0 to nimg - 1 do
            let r = a.as_region_of_pc.(v).(pc) in
            let data, aux =
              if r >= 0 then
                match a.as_alt.(v).(r) with
                | Some art ->
                    art.art_fetches <- art.art_fetches + 1;
                    let cw = art.art_step w in
                    (cw.Buspower.Encoder.data, cw.Buspower.Encoder.aux)
                | None ->
                    a.as_tt_fetches.(v) <- a.as_tt_fetches.(v) + 1;
                    ((Array.unsafe_get images v).(pc), a.as_prev_aux.(v))
              else ((Array.unsafe_get images v).(pc), a.as_prev_aux.(v))
            in
            if not first_auto then
              a.as_totals.(v) <-
                a.as_totals.(v)
                + popcount32 (data lxor a.as_prev_data.(v))
                + popcount32 (aux lxor a.as_prev_aux.(v));
            a.as_prev_data.(v) <- data;
            a.as_prev_aux.(v) <- aux
          done
    in
    let state = Machine.Cpu.create_state () in
    let result = Machine.Cpu.run ~on_fetch program state in
    (match live_attr with
    | None -> ()
    | Some live_attr ->
        let check figure ~replay ~live =
          if replay <> live then
            raise
              (Replay_mismatch
                 (Printf.sprintf "%s: replay %d, live %d" figure replay live))
        in
        check "instructions" ~replay:ctx.run.Machine.Cpu.instructions
          ~live:result.Machine.Cpu.instructions;
        check "exit code" ~replay:ctx.run.Machine.Cpu.exit_code
          ~live:result.Machine.Cpu.exit_code;
        if not (String.equal ctx.output (Machine.Cpu.output state)) then
          raise (Replay_mismatch "program output");
        check "bus-invert transitions" ~replay:ctx.businvert_transitions
          ~live:(Buspower.Businvert.transitions live_businvert);
        let live = Trace.Attribution.summarize live_attr in
        check "baseline transitions" ~replay:ctx.baseline_transitions
          ~live:live.total_baseline;
        Array.iteri
          (fun v live ->
            check (Printf.sprintf "k=%d transitions" k_of_image.(v))
              ~replay:totals.(v) ~live)
          live.total_encoded;
        Option.iter
          (fun a ->
            if Trace.Attribution.summarize a <> live then
              raise (Replay_mismatch "attribution summary"))
          attr;
        match (meter, live_meter) with
        | Some a, Some b when not (Ledger.Meter.same_counts a b) ->
            raise (Replay_mismatch "ledger counts")
        | _ -> ());
    (auto, verified)
  in
  let totals, attr, meter, auto, verified =
    Metrics.with_span Tel.span_count @@ fun () ->
    gc_phase gc_count_phase @@ fun () ->
    (* every stateless figure is a sum over the recorded pc pairs *)
    let totals = Array.map (Cfg.Profile.pair_transitions profile) images in
    let attr =
      if attribution then begin
        let a = new_attribution () in
        Trace.Attribution.record_pairs a ~first_pc ~pairs ~baseline:words
          ~encoded:images;
        Some a
      end
      else None
    in
    let meter =
      Option.map
        (fun model ->
          let m = new_meter model in
          Ledger.Meter.record_pairs m ~first_pc ~pairs ~baseline:words
            ~encoded:images;
          m)
        ledger
    in
    if verify || tracing || stateful then begin
      let auto, verified = live_run ~totals ~attr ~meter in
      (totals, attr, meter, auto, verified)
    end
    else (totals, attr, meter, None, [||])
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
      (fun v (k, plan, _system) ->
        let encoded_blocks =
          List.length
            (List.filter
               (fun p -> p.Powercode.Program_encoder.encoding <> None)
               plan.Powercode.Program_encoder.placements)
        in
        {
          k;
          transitions = totals.(v);
          reduction_pct = reduction_pct totals.(v);
          tt_used = plan.Powercode.Program_encoder.tt_used;
          blocks_encoded = encoded_blocks;
          verified_fetches = (if verify then verified.(v) else 0);
        })
      systems
  in
  (* The auto selector's bus per image: transitions over data and aux lines
     and the fetches served by regions left TT.  With every region TT the
     mixed bus is the TT bus, so the replay gives both; otherwise the live
     run counted them, and under [verify] it recounted the replay's. *)
  let mixed_bus v =
    let replayed () =
      ( totals.(v),
        List.fold_left
          (fun acc rg ->
            let n = ref acc in
            region_pcs npc rg (fun pc ->
                n := !n + Cfg.Profile.instruction_count profile pc);
            !n)
          0 regions.(v) )
    in
    match auto with
    | None -> replayed ()
    | Some a ->
        let live = (a.as_totals.(v), a.as_tt_fetches.(v)) in
        if (not stateful) && live <> replayed () then
          raise
            (Replay_mismatch (Printf.sprintf "k=%d mixed bus" k_of_image.(v)));
        live
  in
  let scheme_runs =
    match alt_of_region with
    | None -> []
    | Some alts ->
        List.mapi
          (fun v (k, _plan, _system) ->
            let rgs = Array.of_list regions.(v) in
            let alts_v = alts.(v) in
            let mixed_transitions, tt_fetches = mixed_bus v in
            let fl = float_of_int in
            let alt_fetches = ref 0 and alt_read_j = ref 0.0 in
            Array.iter
              (function
                | Some art ->
                    alt_fetches := !alt_fetches + art.art_fetches;
                    alt_read_j :=
                      !alt_read_j
                      +. (fl (art.art_fetches * art.art_reads_per_fetch)
                         *. scoring_model.Ledger.Model.tt_read_j)
                      +. (fl art.art_table_words
                         *. scoring_model.Ledger.Model.table_write_j)
                | None -> ())
              alts_v;
            let enc_fetches = tt_fetches + !alt_fetches in
            let tt_energy_j =
              (fl totals.(v) *. per_t)
              +. (fl enc_fetches *. scoring_model.Ledger.Model.tt_read_j)
            in
            let auto_energy_j =
              (fl mixed_transitions *. per_t)
              +. (fl tt_fetches *. scoring_model.Ledger.Model.tt_read_j)
              +. !alt_read_j
            in
            (* Commit rule: an [`Auto] selection that measured worse than
               all-TT is discarded, so auto never reports higher energy
               than TT.  A [`Fixed] override is honoured as-is and reports
               honest (possibly worse) numbers. *)
            let reverted =
              (match scheme with `Auto -> true | `Tt | `Fixed _ -> false)
              && auto_energy_j > tt_energy_j
            in
            if Log.enabled () then
              Log.info "scheme.commit"
                [
                  ("k", Log.Int k);
                  ("auto_energy_j", Log.Float auto_energy_j);
                  ("tt_energy_j", Log.Float tt_energy_j);
                  ("reverted", Log.Bool reverted);
                ];
            let choice_of ri rg =
              let rc_scheme =
                if reverted then "tt"
                else
                  match alts_v.(ri) with
                  | Some art -> art.art_scheme
                  | None -> "tt"
              in
              {
                rc_start = rg.rg_start;
                rc_len = rg.rg_len;
                rc_weight = rg.rg_weight;
                rc_scheme;
              }
            in
            let choices = Array.to_list (Array.mapi choice_of rgs) in
            let counts =
              let tally = Hashtbl.create 8 in
              List.iter
                (fun c ->
                  Hashtbl.replace tally c.rc_scheme
                    (1 + Option.value ~default:0 (Hashtbl.find_opt tally c.rc_scheme)))
                choices;
              let order =
                let alt_list =
                  match scheme_alts with
                  | None -> []
                  | Some (`Choose alts) -> alts
                  | Some (`Force b) -> [ b ]
                in
                "tt"
                :: List.map
                     (fun b ->
                       let module B = (val b : Buspower.Encoder.S) in
                       B.scheme)
                     alt_list
              in
              List.filter_map
                (fun s ->
                  match Hashtbl.find_opt tally s with
                  | Some n -> Some (s, n)
                  | None -> if String.equal s "tt" then Some (s, 0) else None)
                order
            in
            let auto_transitions =
              if reverted then totals.(v) else mixed_transitions
            in
            {
              srun_k = k;
              choices;
              scheme_counts = counts;
              auto_transitions;
              auto_reduction_pct = reduction_pct auto_transitions;
              auto_energy_j = (if reverted then tt_energy_j else auto_energy_j);
              tt_energy_j;
              reverted;
            })
          systems
  in
  let ledger_sheet =
    Option.map
      (fun m ->
        let reprogram_writes =
          Array.of_list
            (List.map
               (fun (_, _, s) -> Hardware.Reprogram.programming_writes s)
               systems)
        in
        Ledger.Meter.finalize m ~reprogram_writes)
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
    (fun s ->
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
