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

    Decode systems ({!Hardware.Reprogram.build}) are built only for the
    two live paths that read them: [verify]'s decoders, and a recording
    {!Trace.Collector}, which gets the table writes' [Tt_program] events.
    {!prepare} builds none: its callers build through [rebuild].

    A live run of the program remains only for the consumers that are
    truly per-fetch.  Each is a sink that sees every fetch in execution
    order and then the run's result.  The active sinks are chained, in
    this order, into one fetch hook before the run, so driving them
    allocates nothing per fetch:
    - [verify = true]: every fetch is pushed through the
      {!Hardware.Fetch_decoder} model for each block size and the restored
      word is compared against the true program — the full hardware
      equivalence check (slower; used by tests and small runs).  The same
      sink recounts every replayed figure fetch by fetch, counts each pc's
      fetches against the recorded profile (the per-region fetch counts
      of [schemes] are profile sums), checks each built system's image
      and programming writes against the ones read off the plan, and
      raises {!Replay_mismatch} on any difference, so [verify] is also the
      per-fetch reference for the replay.  Its decoders' trace events precede each fetch's [Bus]
      event;
    - a recording {!Trace.Collector}, which gets [Bus] and [Block_entry]
      events;
    - the mixed bus of a [scheme] under which some region left TT: those
      backends are stateful encoders, so only a live run can count their
      bus.  Under [verify] it also runs when every region stayed TT, and
      must then equal the TT bus. *)

type encoded_run = {
  k : int;
  transitions : int;
  reduction_pct : float;  (** versus the baseline image *)
  tt_used : int;
  blocks_encoded : int;
  verified_fetches : int;
      (** the report's [instructions] under [verify] (every fetch passed
          every decoder, or the run raised); 0 when [verify] was off *)
}

(** Per-region encoding-scheme selection for the fetch path.

    [`Tt] (default): every encoded region uses the paper's TT scheme —
    byte-identical behaviour and reports to previous versions.  [`Auto]:
    each encoded region is scored against every registered word-at-a-time
    {!Buspower.Encoder} backend through the energy model (the [ledger]
    model when one is passed, {!Ledger.Model.on_chip} otherwise) and takes
    the cheapest, TT winning ties; the mixed bus (data plus the chosen
    backends' redundant lines) is then accounted {e exactly} — by a live
    run when some region left TT, and as the TT bus itself when none did —
    and a selection that measured worse than all-TT is discarded
    ([reverted]), so auto never reports higher energy than TT.
    [`Fixed name]: force every encoded region to backend [name] (["tt"]
    included), bypassing the scoring and the commit rule — the report
    carries honest numbers even when the override measures worse than TT;
    unknown or non-fetch-path names (a [latency_words > 0] backend such as
    the streaming TT, or one not covering 32 lines) raise
    [Invalid_argument].  Selection is deterministic: scores are pure
    functions of the plan and model, and backend registration order breaks
    ties. *)
type scheme = [ `Tt | `Auto | `Fixed of string ]

(** [scheme_of_string s] parses a scheme name: ["tt"], ["auto"], or a
    fetch-path backend, which it reads as [`Fixed].  Any other name is an
    [Error] naming the accepted ones — exactly the names {!evaluate}
    accepts without raising. *)
val scheme_of_string : string -> (scheme, string) result

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
  auto_transitions : int;
      (** exact bus transitions (data + redundant lines) under the
          committed selection *)
  auto_reduction_pct : float;  (** versus the baseline image *)
  auto_energy_j : float;
      (** bus energy + side-table reads + one-time table writes under the
          committed selection; never exceeds [tt_energy_j] under [`Auto]
          (a [`Fixed] override may report worse) *)
  tt_energy_j : float;  (** the same accounting with every region TT *)
  reverted : bool;  (** [`Auto] commit rule fell back to all-TT *)
}

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
          totals; under [verify] a per-fetch {!Ledger.Meter} recounts
          them, and a mismatch raises {!Replay_mismatch} rather than
          returning an inconsistent ledger. *)
  schemes : scheme_run list;
      (** one per [k], empty under the default [`Tt] scheme *)
}

exception Verification_failed of { pc : int; expected : int; got : int }

(** Raised under [verify] when a figure recounted fetch by fetch differs
    from its replay; the message names the figure and both values. *)
exception Replay_mismatch of string

(** Which basic blocks compete for the Transformation Table:
    [`Hot_blocks] (default) ranks every executed block by dynamic fetches;
    [`Hot_loops] implements the paper's stated policy — only blocks
    belonging to natural loops are candidates (ranked the same way). *)
type selection = [ `Hot_blocks | `Hot_loops ]

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

(** Content-addressed cache of the recording + planning front half shared
    by {!prepare} and {!evaluate}.

    Entries are keyed on exactly the content that determines a plan: the
    program image words, [ks], [tt_capacity], the resolved [subset_mask]
    (omitting it and passing {!Powercode.Subset.paper_eight_mask} share
    one entry), [optimal_chain] and [selection] — an FNV-1a fingerprint
    short-circuits comparisons, but a hit requires full structural key
    equality.  [scheme] is not part of the key: it only acts after
    planning, so [`Tt], [`Auto] and every [`Fixed] backend share one
    entry.  Cached recordings, plans and contexts are immutable; decode
    systems are always rebuilt fresh, so repeated evaluations of the same
    program (bench loops, fault campaigns, multi-benchmark CLI runs) skip
    the program run and the encoding entirely without observable
    difference.
    Hits and misses are counted in the stable [plan.cache_hits] /
    [plan.cache_misses] telemetry; the CLI's [--no-plan-cache] flag maps
    to {!Plan_cache.set_enabled}[ false]. *)
module Plan_cache : sig
  (** [set_enabled b] turns the cache on or off ([true] initially).
      Turning it off affects lookups only; entries are kept until
      {!clear}. *)
  val set_enabled : bool -> unit

  val enabled : unit -> bool

  (** [clear ()] drops every entry — recordings included — and zeroes the
      {!stats} counters. *)
  val clear : unit -> unit

  (** [stats ()] is [(hits, misses)] since the last {!clear}. *)
  val stats : unit -> int * int

  (** What a caller derived from a cached plan, kept in that plan's entry
      so it is dropped with the entry: on {!clear}, on eviction, and never
      kept while the cache is disabled.  Callers add their own
      constructors. *)
  type attachment = ..

  (** [attach plan a] keeps [a] in the entry that holds [plan] (physical
      equality); a no-op when no entry holds it. *)
  val attach : Powercode.Program_encoder.plan -> attachment -> unit

  (** [find_attached f] is the first [Some] that [f] returns over the
      attachments of the live entries, most recently used first; [None]
      while the cache is disabled.  It counts no hit and moves no entry. *)
  val find_attached : (attachment -> 'a option) -> 'a option
end

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
    plan's TT and BBIT writes, and returns the priced {!Ledger.Sheet}.  Independently of these flags, whenever
    {!Trace.Collector} is recording, a live run emits [Bus] and
    [Block_entry] events into it. *)
val evaluate :
  ?ks:int list ->
  ?tt_capacity:int ->
  ?subset_mask:int ->
  ?optimal_chain:bool ->
  ?selection:selection ->
  ?scheme:scheme ->
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
  ?scheme:scheme ->
  ?verify:bool ->
  ?attribution:bool ->
  ?ledger:Ledger.Model.t ->
  Workloads.t ->
  report

(** [pp_report] prints one Figure 6 style column group. *)
val pp_report : Format.formatter -> report -> unit
