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
let gc_phase (phase : Tel.gc_phase) f =
  if not (Metrics.enabled ()) then f ()
  else begin
    let s0 = Gc.quick_stat () in
    let mw0 = Gc.minor_words () in
    Fun.protect
      ~finally:(fun () ->
        let s1 = Gc.quick_stat () in
        Metrics.add phase.minor_words
          (int_of_float (Gc.minor_words () -. mw0));
        Metrics.add phase.major_words
          (int_of_float (s1.Gc.major_words -. s0.Gc.major_words));
        Metrics.add phase.minor_collections
          (s1.Gc.minor_collections - s0.Gc.minor_collections);
        Metrics.add phase.major_collections
          (s1.Gc.major_collections - s0.Gc.major_collections);
        Metrics.set_gauge Tel.gc_heap_words 0 s1.Gc.heap_words;
        if
          s1.Gc.top_heap_words > Metrics.gauge_value Tel.gc_top_heap_words 0
        then Metrics.set_gauge Tel.gc_top_heap_words 0 s1.Gc.top_heap_words)
      f
  end

(* Everything the one run of the program records and block selection
   produces, which both [evaluate] and the system preparation below need.
   Besides the profile, the run records every figure of a report that does
   not depend on an encoded image, both as sums over its pc pairs: the
   baseline bus, and bus-invert, whose one path-dependent term (ties met
   while the invert line is high) the profile counts during the run. *)
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

let context ~subset_mask ~selection program =
  let words = Isa.Program.words program in
  let blocks = Cfg.Block.partition (Isa.Program.insns program) in
  let profile, run, state =
    Metrics.with_span Tel.span_profile (fun () ->
        gc_phase Tel.gc_profile (fun () -> Cfg.Profile.run program))
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
    businvert_transitions = Cfg.Profile.businvert_transitions profile;
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
  rebuild : unit -> Hardware.Reprogram.system;
  prep_instructions : int;
  prep_exit_code : int;
  prep_output : string;
  prep_profile : Cfg.Profile.t;
}

let plan_only ~tt_capacity ~optimal_chain ctx ks =
  Metrics.with_span Tel.span_plan @@ fun () ->
  gc_phase Tel.gc_plan @@ fun () ->
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
   equality, never on hash alone.  An entry also carries what callers
   derived from its plans ([attach]), so that data is dropped with it. *)
module Plan_cache = struct
  type attachment = ..

  type key = {
    key_words : int array;
    key_ks : int list;
    key_tt_capacity : int;
    key_subset_mask : int;
    key_optimal_chain : bool;
    key_selection : selection;
  }

  type entry = {
    hash : int;
    key : key;
    ctx : context;
    plans : (int * Powercode.Program_encoder.plan) list;
    mutable attached : attachment list;
  }

  let fnv_prime = 0x100000001b3
  let fnv_step h x = (h lxor x) * fnv_prime land max_int

  let hash_key k =
    let h = ref (fnv_step 0x3bf29ce484222325 (Array.length k.key_words)) in
    Array.iter (fun w -> h := fnv_step !h w) k.key_words;
    List.iter (fun x -> h := fnv_step !h x) k.key_ks;
    h := fnv_step !h k.key_tt_capacity;
    h := fnv_step !h k.key_subset_mask;
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
    entries := { hash; key; ctx; plans; attached = [] } :: keep;
    Mutex.unlock mutex

  let locked f =
    Mutex.lock mutex;
    Fun.protect ~finally:(fun () -> Mutex.unlock mutex) f

  let attach plan a =
    locked (fun () ->
        match
          List.find_opt
            (fun e -> List.exists (fun (_, p) -> p == plan) e.plans)
            !entries
        with
        | Some e -> e.attached <- a :: e.attached
        | None -> ())

  let find_attached f =
    if not !enabled_flag then None
    else
      locked (fun () ->
          List.find_map (fun e -> List.find_map f e.attached) !entries)
end

(* The shared front half of [prepare] and [evaluate]: context (the recorded
   run + block selection) and one plan per block size, through the cache
   when it is enabled. *)
let context_and_plans ~ks ~tt_capacity ~subset_mask ~optimal_chain ~selection
    program =
  let compute () =
    let ctx = context ~subset_mask ~selection program in
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

let build_system ~tt_capacity ctx program plan =
  Hardware.Reprogram.build ~tt_capacity ~bbit_capacity:ctx.bbit_capacity
    ~functions:ctx.functions program plan

let prepare ?(ks = [ 4; 5; 6; 7 ]) ?(tt_capacity = 16)
    ?(subset_mask = Powercode.Subset.paper_eight_mask)
    ?(optimal_chain = false) ?(selection = `Hot_blocks) program =
  let ctx, plans =
    context_and_plans ~ks ~tt_capacity ~subset_mask ~optimal_chain ~selection
      program
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
(* Per-region scheme auto-selection.

   Only word-at-a-time backends covering the full 32-line bus qualify as
   fetch-path alternatives: a backend with [latency_words > 0] (the
   streaming TT) would stall fetch waiting for lookahead — the paper's TT
   gets its lookahead offline, through the stored image, which is the
   form the pipeline already implements.  Region membership detection is
   the BBIT's existing job, so a per-region decoder knows when to apply
   its scheme, exactly as the TT regions do. *)

let scheme_name b =
  let module B = (val b : Buspower.Encoder.S) in
  B.scheme

let fetch_path_backends () =
  Buspower.Backends.ensure ();
  List.filter
    (fun b ->
      let module B = (val b : Buspower.Encoder.S) in
      B.max_width >= 32
      && (B.cost ~width:32).Buspower.Encoder.latency_words = 0)
    (Buspower.Encoder.all ())

let fetch_path_backend name =
  let eligible = fetch_path_backends () in
  match List.find_opt (fun b -> String.equal (scheme_name b) name) eligible with
  | Some b -> Ok b
  | None ->
      Error
        (Printf.sprintf
           "%S is not a fetch-path scheme (want tt, auto, or one of: %s)" name
           (String.concat ", " (List.map scheme_name eligible)))

let scheme_of_string = function
  | "tt" -> Ok `Tt
  | "auto" -> Ok `Auto
  | name -> Result.map (fun _ -> `Fixed name) (fetch_path_backend name)

(* [None]: every region stays TT; [Some (`Choose alts)]: per-region
   scored choice among [alts], TT unless strictly cheaper; [Some
   (`Force b)]: every region takes [b] regardless of score. *)
let resolve_scheme = function
  | `Tt | `Fixed "tt" -> None
  | `Auto -> Some (`Choose (fetch_path_backends ()))
  | `Fixed name -> (
      match fetch_path_backend name with
      | Ok b -> Some (`Force b)
      | Error msg -> invalid_arg ("Pipeline.Evaluate: " ^ msg))

(* One encoded region of one k-plan, with everything scoring needs. *)
type region = {
  rg_start : int;
  rg_len : int;
  rg_weight : int;
  rg_tt_static : int;  (* stored-image transitions of one body traversal *)
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
let verify_sink ~ctx ~program ~systems ~stored ~k_of_image =
  let decoders = Array.map Hardware.Reprogram.decoder systems in
  let record, recorded = Cfg.Profile.recorder program in
  let fetch pc w =
    record ~pc;
    for v = 0 to Array.length decoders - 1 do
      let _bus, decoded = Hardware.Fetch_decoder.fetch decoders.(v) ~pc in
      if decoded <> w then
        raise (Verification_failed { pc; expected = w; got = decoded })
    done
  in
  let finish (result : Machine.Cpu.result) state =
    Array.iteri
      (fun v (image, writes) ->
        let k = k_of_image.(v) in
        if image <> systems.(v).Hardware.Reprogram.image then
          raise (Replay_mismatch (Printf.sprintf "k=%d stored image" k));
        check
          (Printf.sprintf "k=%d programming writes" k)
          ~replay:writes
          ~live:(Hardware.Reprogram.programming_writes systems.(v)))
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

(* A recording trace collector: every fetch's word on each image's bus,
   and the basic block the fetch enters, if any. *)
let trace_sink ~images ~blocks ~pc_block =
  let fetch pc _ =
    let time = Trace.Collector.now () in
    (* fresh every fetch: the collector's ring keeps it *)
    let encoded = Array.map (fun image -> image.(pc)) images in
    Trace.Collector.emit (Trace.Event.Bus { time; pc; encoded });
    let block = pc_block.(pc) in
    if blocks.(block).Cfg.Block.start = pc then
      Trace.Collector.emit (Trace.Event.Block_entry { time; pc; block })
  in
  { fetch; finish = (fun _ _ -> ()) }

(* The auto selector's mixed bus, per image: a region whose entry in
   [alts] left TT steps that backend's stateful encoder, and every other
   fetch drives the stored image while the aux lines hold.  The returned
   array fills with the transitions over data and aux lines. *)
let mixed_bus_sink ~images ~region_of_pc ~alts =
  let nimg = Array.length images in
  let step b =
    let module B = (val b : Buspower.Encoder.S) in
    let e = B.encoder ~width:32 in
    fun w ->
      match B.encode e w with
      | [ cw ] -> cw
      | _ ->
          failwith "Pipeline.Evaluate: latency-0 backend emitted <> 1 codeword"
  in
  let steps = Array.map (Array.map (Option.map step)) alts in
  let totals = Array.make nimg 0 in
  let prev_data = Array.make nimg 0 and prev_aux = Array.make nimg 0 in
  let primed = ref false in
  let fetch pc w =
    for v = 0 to nimg - 1 do
      let data = ref images.(v).(pc) and aux = ref prev_aux.(v) in
      let r = region_of_pc.(v).(pc) in
      (if r >= 0 then
         match steps.(v).(r) with
         | Some step ->
             let cw = step w in
             data := cw.Buspower.Encoder.data;
             aux := cw.Buspower.Encoder.aux
         | None -> ());
      if !primed then
        totals.(v) <-
          totals.(v)
          + Bitutil.Popcount.count32 (!data lxor prev_data.(v))
          + Bitutil.Popcount.count32 (!aux lxor prev_aux.(v));
      prev_data.(v) <- !data;
      prev_aux.(v) <- !aux
    done;
    primed := true
  in
  ({ fetch; finish = (fun _ _ -> ()) }, totals)

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
  let scheme_alts = resolve_scheme scheme in
  let ctx, plans =
    context_and_plans ~ks ~tt_capacity ~subset_mask ~optimal_chain ~selection
      program
  in
  let { profile; blocks; hot_blocks; _ } = ctx in
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
  (* Built systems only for the live paths that read them: [verify]'s
     decoders, and a recording trace collector, which gets the TT writes'
     [Tt_program] events. *)
  let systems =
    if verify || Trace.Collector.enabled () then
      Array.of_list
        (List.map (fun (_, plan) -> build_system ~tt_capacity ctx program plan)
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
              rg_start = pl.cand.start_index;
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
      let starts = Array.map (fun rg -> rg.rg_start) regions.(0) in
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
           Array.iteri (fun i rg -> Array.fill map rg.rg_start rg.rg_len i) rgs;
           map)
         regions)
  in
  (* Scheme auto-selection: score each encoded region against the
     fetch-path alternatives.  The choice is static, a pure function of
     the plan and the model: per image, each region's backend, [None]
     where it stays TT. *)
  let scoring_model =
    match ledger with Some m -> m | None -> Ledger.Model.on_chip
  in
  let per_t = Buspower.Energy.per_transition scoring_model.Ledger.Model.bus in
  let alts =
    match scheme_alts with
    | None -> None
    | Some sel ->
        let pick ~k rg =
          let winner, scores, forced =
            match sel with
            | `Force b -> (Some b, [], true)
            | `Choose alts ->
                let winner, scores =
                  choose_backend ~alts ~model:scoring_model ~per_t ~words rg
                in
                (winner, scores, false)
          in
          (* one event per region: the scored slate, the winner, and
             whether the choice was forced rather than scored *)
          if Log.enabled () then
            Log.info "scheme.region"
              ([
                 ("k", Log.Int k);
                 ("start", Log.Int rg.rg_start);
                 ("len", Log.Int rg.rg_len);
                 ("weight", Log.Int rg.rg_weight);
                 ( "winner",
                   Log.Str
                     (match winner with None -> "tt" | Some b -> scheme_name b)
                 );
                 ("forced", Log.Bool forced);
               ]
              @ List.map (fun (s, v) -> ("cost_" ^ s, Log.Float v)) scores);
          winner
        in
        Some
          (Array.mapi (fun v rgs -> Array.map (pick ~k:k_of_image.(v)) rgs)
             regions)
  in
  (* A region that left TT drives a stateful encoder: only a live run can
     count its bus.  So can only a live run feed the trace collector or the
     per-fetch decoders of [verify]. *)
  let stateful =
    match alts with
    | None -> false
    | Some alts -> Array.exists (Array.exists Option.is_some) alts
  in
  let totals, attr, meter, mixed =
    Metrics.with_span Tel.span_count @@ fun () ->
    gc_phase Tel.gc_count @@ fun () ->
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
        (fun model ->
          let region_of_pc = Lazy.force region_of_pc in
          replayed Ledger.Meter.record_pairs
            (Ledger.Meter.create ~name ~model ~ks:k_of_image
               ~encoded_region:(fun ~image ~pc ->
                 pc >= 0 && pc < npc && region_of_pc.(image).(pc) >= 0)))
        ledger
    in
    let mixed =
      match alts with
      | Some alts when stateful ->
          Some
            (mixed_bus_sink ~images ~region_of_pc:(Lazy.force region_of_pc)
               ~alts)
      | _ -> None
    in
    (* verify first: its decoders' trace events precede each fetch's Bus *)
    run_live program
      (List.concat
         [
           (if verify then
              [ verify_sink ~ctx ~program ~systems ~stored ~k_of_image ]
            else []);
           (if Trace.Collector.enabled () then
              [ trace_sink ~images ~blocks ~pc_block:(Lazy.force pc_block) ]
            else []);
           Option.to_list (Option.map fst mixed);
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
  let region_fetches rg =
    let n = ref 0 in
    for pc = rg.rg_start to rg.rg_start + rg.rg_len - 1 do
      n := !n + Cfg.Profile.instruction_count profile pc
    done;
    !n
  in
  let scheme_names =
    "tt"
    :: List.map scheme_name
         (match scheme_alts with
         | None -> []
         | Some (`Choose alts) -> alts
         | Some (`Force b) -> [ b ])
  in
  let scheme_runs =
    match alts with
    | None -> []
    | Some alts ->
        List.mapi
          (fun v (k, _) ->
            let rgs = regions.(v) and alts_v = alts.(v) in
            let fl = float_of_int in
            let tt_fetches = ref 0 and alt_fetches = ref 0 in
            let alt_read_j = ref 0.0 in
            Array.iteri
              (fun ri rg ->
                let fetches = region_fetches rg in
                match alts_v.(ri) with
                | None -> tt_fetches := !tt_fetches + fetches
                | Some b ->
                    let module B = (val b : Buspower.Encoder.S) in
                    let c = B.cost ~width:32 in
                    alt_fetches := !alt_fetches + fetches;
                    alt_read_j :=
                      !alt_read_j
                      +. (fl (fetches * c.Buspower.Encoder.reads_per_fetch)
                         *. scoring_model.Ledger.Model.tt_read_j)
                      +. (fl ((c.Buspower.Encoder.table_bits + 31) / 32)
                         *. scoring_model.Ledger.Model.table_write_j))
              rgs;
            let enc_fetches = !tt_fetches + !alt_fetches in
            let tt_energy_j =
              (fl totals.(v) *. per_t)
              +. (fl enc_fetches *. scoring_model.Ledger.Model.tt_read_j)
            in
            let auto_energy_j =
              (fl mixed.(v) *. per_t)
              +. (fl !tt_fetches *. scoring_model.Ledger.Model.tt_read_j)
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
              {
                rc_start = rg.rg_start;
                rc_len = rg.rg_len;
                rc_weight = rg.rg_weight;
                rc_scheme =
                  (match alts_v.(ri) with
                  | Some b when not reverted -> scheme_name b
                  | _ -> "tt");
              }
            in
            let choices = Array.to_list (Array.mapi choice_of rgs) in
            let count s =
              List.length
                (List.filter (fun c -> String.equal c.rc_scheme s) choices)
            in
            let scheme_counts =
              List.filter
                (fun (s, n) -> n > 0 || String.equal s "tt")
                (List.map (fun s -> (s, count s)) scheme_names)
            in
            let auto_transitions =
              if reverted then totals.(v) else mixed.(v)
            in
            {
              srun_k = k;
              choices;
              scheme_counts;
              auto_transitions;
              auto_reduction_pct = reduction_pct auto_transitions;
              auto_energy_j = (if reverted then tt_energy_j else auto_energy_j);
              tt_energy_j;
              reverted;
            })
          plans
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
