(** Content-addressed cache of the recording + planning front half shared
    by {!Evaluate.prepare} and {!Evaluate.evaluate}.

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
    [plan.cache_misses] telemetry. *)

(** Which basic blocks compete for the Transformation Table:
    [`Hot_blocks] (default) ranks every executed block by dynamic fetches;
    [`Hot_loops] implements the paper's stated policy — only blocks
    belonging to natural loops are candidates (ranked the same way). *)
type selection = [ `Hot_blocks | `Hot_loops ]

(** [gc_phase phase f] runs [f], adding the calling domain's GC deltas
    to [phase]'s counters while metrics are enabled. *)
val gc_phase : Telemetry.Registry.gc_phase -> (unit -> 'a) -> 'a

(** What the one recording run of a program and its block selection
    produce.  Besides the profile, the run records every figure of a
    report that does not depend on an encoded image, both as sums over its
    pc pairs: the baseline bus, and bus-invert, whose one path-dependent
    term (ties met while the invert line is high) the profile counts
    during the run. *)
type context = {
  profile : Cfg.Profile.t;
  run : Machine.Cpu.result;
  output : string;
  baseline_transitions : int;
  businvert_transitions : int;
  blocks : Cfg.Block.t array;
  hot_blocks : Cfg.Block.t list;
  functions : Powercode.Boolfun.t array;
      (** the gate set of [subset_mask], which the hardware must match *)
  bbit_capacity : int;
}

(** [context_and_plans ~ks ~tt_capacity ~subset_mask ~optimal_chain
    ~selection program] records the program, selects its blocks and plans
    one encoding per [k] of [ks], or returns the cached result of an
    earlier call with the same key while the cache is enabled. *)
val context_and_plans :
  ks:int list ->
  tt_capacity:int ->
  subset_mask:int ->
  optimal_chain:bool ->
  selection:selection ->
  Isa.Program.t ->
  context * (int * Powercode.Program_encoder.plan) list

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
