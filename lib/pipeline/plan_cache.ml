module Metrics = Telemetry.Metrics
module Tel = Telemetry.Registry
module Log = Telemetry.Log

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

type context = {
  profile : Cfg.Profile.t;
  run : Machine.Cpu.result;
  output : string;
  baseline_transitions : int;
  businvert_transitions : int;
  blocks : Cfg.Block.t array;
  hot_blocks : Cfg.Block.t list;
  functions : Powercode.Boolfun.t array;
  bbit_capacity : int;
}

let candidate_of_block words profile (b : Cfg.Block.t) =
  let body = Array.sub words b.Cfg.Block.start b.Cfg.Block.len in
  {
    Powercode.Program_encoder.start_index = b.Cfg.Block.start;
    body = Bitutil.Bitmat.of_words ~width:32 body;
    weight = Cfg.Profile.block_weight profile b;
  }

(* The one run of the program, and block selection: the context and the
   candidates that planning draws from. *)
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
  let ctx =
    {
      profile;
      run;
      output = Machine.Cpu.output state;
      baseline_transitions = Cfg.Profile.pair_transitions profile words;
      businvert_transitions = Cfg.Profile.businvert_transitions profile;
      blocks;
      hot_blocks;
      (* the hardware's gate set must match the subset the encoder drew from *)
      functions = Array.of_list (Powercode.Boolfun.list_of_mask subset_mask);
      bbit_capacity = max 16 (List.length candidates);
    }
  in
  (ctx, candidates)

let plan_only ~tt_capacity ~subset_mask ~optimal_chain candidates ks =
  Metrics.with_span Tel.span_plan @@ fun () ->
  gc_phase Tel.gc_plan @@ fun () ->
  let plans =
    List.map
      (fun k ->
        let config =
          {
            Powercode.Program_encoder.k;
            subset_mask;
            tt_capacity;
            optimal_chain;
          }
        in
        (k, Powercode.Program_encoder.plan config candidates))
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

(* The cache proper.  Decode systems are never cached (reprogramming and
   fault injection mutate them), so sharing the immutable context and plans
   across evaluations is safe.  The FNV fingerprint only short-circuits
   comparisons: a lookup succeeds on full structural equality, never on
   hash alone. *)
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
    fnv_step !h (match k.key_selection with `Hot_blocks -> 0 | `Hot_loops -> 1);
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

let locked f =
  Mutex.lock mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock mutex) f

let clear () =
  locked (fun () ->
      entries := [];
      hit_count := 0;
      miss_count := 0)

let stats () = (!hit_count, !miss_count)

(* the FNV fingerprint, printed the way log events and humans compare *)
let key_hex hash = Printf.sprintf "%016x" hash

let find hash key =
  locked (fun () ->
      match
        List.find_opt (fun e -> e.hash = hash && key_equal e.key key) !entries
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

let insert hash key (ctx, plans) =
  locked (fun () ->
      let keep = List.filteri (fun i _ -> i < max_entries - 1) !entries in
      entries := { hash; key; ctx; plans; attached = [] } :: keep)

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

let context_and_plans ~ks ~tt_capacity ~subset_mask ~optimal_chain ~selection
    program =
  let compute () =
    let ctx, candidates = context ~subset_mask ~selection program in
    (ctx, plan_only ~tt_capacity ~subset_mask ~optimal_chain candidates ks)
  in
  if not !enabled_flag then compute ()
  else begin
    let key =
      {
        key_words = Isa.Program.words program;
        key_ks = ks;
        key_tt_capacity = tt_capacity;
        key_subset_mask = subset_mask;
        key_optimal_chain = optimal_chain;
        key_selection = selection;
      }
    in
    let hash = hash_key key in
    match find hash key with
    | Some found -> found
    | None ->
        let found = compute () in
        insert hash key found;
        found
  end
