(** End-to-end evaluation of the power encoding on a program — the engine
    behind the Figure 6 / Figure 7 reproduction.

    Flow: record once, replay many.  One run of the program records its
    profile and pair profile ({!Cfg.Profile}: per-pc fetch counts and how
    often each consecutive [(pc, next_pc)] pair occurred), its instruction
    count, exit code and output, and the image-independent baseline and
    bus-invert totals.  Then plan the encoding for each block size (hottest
    basic blocks first, within the Transformation Table budget) and read
    each plan's stored image and table-write count off the plan
    ({!Hardware.Reprogram.stored_image}): the TT/BBIT contents are fixed
    offline, with the firmware, so no decode hardware is built to count
    them.  Every TT image drives one fixed word per pc, so its bus
    transitions are
    [Σ pairs count × popcount (image.(src) lxor image.(dst))], O(static pcs
    + jumps) with no second run; the attribution and ledger figures come
    from the same pair sums ({!Trace.Attribution.record_pairs},
    {!Ledger.Meter.record_pairs}).  The recording is cached with the plan
    in {!Plan_cache}, so a warm evaluate never executes the program.

    Decode systems ({!Hardware.Reprogram.build}) are built only for
    [verify]'s decoders.  {!prepare} builds none: its callers build
    through [rebuild].

    A live run of the program remains only for the consumers that are
    truly per-fetch.  Each is a sink that sees every fetch in execution
    order and then the run's result.  The active sinks are chained, in
    this order, into one fetch hook before the run, so driving them
    allocates nothing per fetch:
    - a recording {!Trace.Collector}: this one sink records every trace
      event of the run.  Before the run it records a [Tt_program] per TT
      write the plans make, in {!Hardware.Reprogram.build}'s order.  Per
      fetch it ticks the collector's clock, so every event of the fetch
      carries its tick; then, for each of [verify]'s decoders, it records
      a [Bbit_probe] and, when the decoder is inside a block and the BBIT
      does not match, a [Decode], both read before [verify] advances the
      decoder; then the fetch's [Bus] and [Block_entry] events.  No other
      run ticks the clock, the recording run of a cold evaluate
      included, so the timeline is this one run, warm or cold;
    - [verify = true]: every fetch is pushed through the
      {!Hardware.Fetch_decoder} model for each block size and the restored
      word is compared against the true program — the full hardware
      equivalence check (slower; used by tests and small runs).  The same
      sink records the live run's pc pairs ({!Cfg.Profile.recorder}) and
      requires them to equal the recorded profile: every replayed figure
      is a sum over those pairs, so it then holds for the live run too.
      It also checks each built system's image and programming writes
      against the ones read off the plan, and the run's instruction count,
      exit code and output, raising {!Replay_mismatch} on any difference.
      A verified report equals the unverified one;
    - {!Scheme.mixed_bus}, when some region of a [scheme] left TT: those
      backends are stateful encoders, so only a live run can count their
      bus.  When every region stayed TT the mixed bus is the TT bus, and
      no live run counts it. *)

type encoded_run = {
  k : int;
  transitions : int;
  reduction_pct : float;  (** versus the baseline image *)
  tt_used : int;
  blocks_encoded : int;
}

(** One block size's per-region scheme selection, re-exported from
    {!Scheme}. *)
type scheme_run = Scheme.run

type report = {
  name : string;
  instructions : int;  (** dynamic instruction count *)
  baseline_transitions : int;
  businvert_transitions : int;  (** bus-invert on the same fetch stream *)
  runs : encoded_run list;
  coverage_pct : float;  (** share of fetches inside encoded blocks *)
  output : string;  (** program output, for determinism checks *)
  attribution : Trace.Attribution.summary option;
      (** per-bitline / per-block transition breakdown; [Some] iff the
          [attribution] flag was set.  Its totals equal
          [baseline_transitions] and each run's [transitions] bit-exactly
          (all three are sums over the same recorded pc pairs). *)
  ledger : Ledger.Sheet.t option;
      (** itemized energy account; [Some] iff a [ledger] model was passed.
          Its counts come from the same pair sums as the transition
          totals. *)
  schemes : scheme_run list;
      (** one per [k], empty under the default [`Tt] scheme *)
}

exception Verification_failed of { pc : int; expected : int; got : int }

(** Raised under [verify] when the live run departs from the recording
    or the plan: its pc-pair profile (["pc-pair profile"]), instruction
    count, exit code or output, or a built system's stored image or
    programming writes.  The message names what differed, and both values
    where they are counts. *)
exception Replay_mismatch of string

(** The recording + planning cache, and its block selection. *)
module Plan_cache = Plan_cache

type selection = Plan_cache.selection

(** One planned block size.  [rebuild] assembles a {e fresh} decode
    system from the plan — fault campaigns corrupt a rebuilt copy per
    injection so upsets never leak between experiments (the plan itself,
    the expensive part, is shared); it raises what
    {!Hardware.Reprogram.build} raises.  The
    [prep_instructions], [prep_exit_code], [prep_output] and
    [prep_profile] fields are the recording run's dynamic instruction
    count, exit code, printed output and per-pc fetch counts: the
    fault-free reference a campaign judges injections against, the same
    for every [k] of one program. *)
type prepared = {
  prep_k : int;
  prep_plan : Powercode.Program_encoder.plan;
  rebuild : unit -> Hardware.Reprogram.system;
  prep_instructions : int;
  prep_exit_code : int;
  prep_output : string;
  prep_profile : Cfg.Profile.t;
}

(** [prepare ?ks ?tt_capacity ?subset_mask ?optimal_chain ?selection
    program] runs the recording and planning front half of {!evaluate}
    (same defaults, same block selection) and returns the per-[k] plans
    without building a decode system or counting anything.  The front half is served from
    {!Plan_cache} when enabled. *)
val prepare :
  ?ks:int list ->
  ?tt_capacity:int ->
  ?subset_mask:int ->
  ?optimal_chain:bool ->
  ?selection:selection ->
  Isa.Program.t ->
  prepared list

(** [evaluate ?ks ?tt_capacity ?subset_mask ?optimal_chain ?selection
    ?verify ?attribution ~name program] — defaults: [ks = [4;5;6;7]],
    [tt_capacity = 16], the paper's eight transformations, greedy chaining,
    [`Hot_blocks], no per-fetch verification, no attribution, no ledger.
    [attribution = true] additionally fills {!Trace.Attribution}
    accumulators from the recorded pairs and returns their summary in the
    report.  [ledger = model] books a {!Ledger.Meter} from the same pairs
    (TT reads, BBIT probes, gate toggles, bus transitions), charges each
    plan's TT and BBIT writes, and returns the priced {!Ledger.Sheet}.
    Independently of these flags, whenever {!Trace.Collector} is
    recording, a live run records the trace into it (see the trace sink
    above). *)
val evaluate :
  ?ks:int list ->
  ?tt_capacity:int ->
  ?subset_mask:int ->
  ?optimal_chain:bool ->
  ?selection:selection ->
  ?scheme:Scheme.t ->
  ?verify:bool ->
  ?attribution:bool ->
  ?ledger:Ledger.Model.t ->
  name:string ->
  Isa.Program.t ->
  report

(** [evaluate_workload ?ks ?scheme ?verify ?attribution ?ledger w]
    compiles and evaluates a benchmark. *)
val evaluate_workload :
  ?ks:int list ->
  ?scheme:Scheme.t ->
  ?verify:bool ->
  ?attribution:bool ->
  ?ledger:Ledger.Model.t ->
  Workloads.t ->
  report

(** [pp_report] prints one Figure 6 style column group. *)
val pp_report : Format.formatter -> report -> unit
