(** Seeded fault-injection campaigns over the benchmark suite.

    A campaign runs [injections] single-upset experiments round-robin over
    every (benchmark, block size) pair: rebuild a pristine decode system
    from the shared plan, draw one {!Model.target} from the campaign RNG,
    inject it, and run the program through the hardened fetch path under a
    cycle cap.  Each experiment lands in exactly one outcome class.

    Each (benchmark, k) pair is derived once per plan: the workload is
    compiled, and the pair's recovery copy, sampling space and live slots
    read off a pristine system, on the first campaign that meets the
    plan.  They are kept in the plan's {!Pipeline.Evaluate.Plan_cache}
    entry, so later campaigns over the same workloads and block sizes
    reuse them for as long as the cache holds that plan, and drop them
    with it (on [clear], on eviction, and at once while the cache is
    disabled).  Every campaign still calls [prepare], so the cache's hits,
    misses and LRU order are those of a campaign that derives afresh.

    Execution is two-phase: every target is drawn sequentially in
    injection order from the one campaign RNG (sampling reads only each
    pair's deterministic {!Model.space}), then the independent experiments
    fan out over the {!Powercode.Parpool} domain pool, results landing in
    id order.  The whole campaign is therefore a pure function of the
    seed — bit-identical across runs, across [POWERCODE_SEQ=1] versus any
    [POWERCODE_DOMAINS] width, and byte-identical in both rendered
    formats.

    {2 Early stop}

    A run stops at the fetch where it provably rejoins the fault-free
    reference run, and is classified {!Recovered} without running the
    rest.  The check runs once, at the first fetch after which the decoder
    has counted a parity detection, and stops the run if all of these
    hold:
    - every word delivered so far equals the original word at its pc;
    - there is exactly one detection;
    - the live tables are contained: every programmed BBIT slot that has
      not degraded still matches its pristine pc with its pristine entry,
      every entry of its TT chain is pristine, and all their parities
      hold.

    Why nothing after that fetch can diverge:
    - Every word executed so far was original, so the CPU state (pc,
      registers, memory, output) is the reference run's at the same fetch,
      and so is every later pc as long as every later word is original.
    - A degraded region is served raw from the recovery copy, and
      [Fetch_decoder] never un-degrades a region, so its words stay
      original for the rest of the run.
    - Every other block is decoded by a pristine BBIT slot through a
      pristine TT chain from the stored image.  A detection needs a table
      upset, and a campaign injects one upset, so the image is pristine
      too: these blocks decode to their original words as in the fault-free
      run.  The one detection degraded the slot it hit (a TT detection
      ends the block it is in, a BBIT one is caught before the first fetch
      runs), so the decoder does not sit inside a block whose decode began
      from corrupted state.
    - The single upset sits in a degraded slot's tables, which the fetch
      path no longer reads, so no second detection can come.

    The check refuses whatever the target kind: a flipped BBIT tag equal
    to another slot's pc shadows that live slot, and the lookup of the
    shadowed pc fails containment, so that run goes to completion.

    A stopped run returns [Recovered { detections = 1; fallbacks }] where
    [fallbacks] is the decoder's fallbacks so far plus, over every pc of
    each degraded region, the reference run's fetches of that pc minus
    this run's fetches of it so far.  It books the Stable counters as the
    full run would have ([fault.fallback_fetches], [cpu.instructions],
    [fault.recoveries]), and adds the fetches it did not run to
    [fault.fetches_skipped].  A traced recovered injection's event stream
    ends at the rejoin fetch.

    {2 Skipping the pristine prefix}

    Each target names, before its run starts, the first fetch its upset
    can reach:
    - a stored image bit at [p]: the first fetch of any pc of [p]'s
      encoded region, or of [p] itself when [p] lies outside every region;
    - a TT entry: the first fetch of any pc of the region of the one BBIT
      slot whose chain holds the entry (an entry in no chain or in several
      names fetch 0);
    - a bus glitch: its own fetch index;
    - a BBIT field: fetch 0, since the scrub detects it on the first fetch.

    Every fetch before that one delivers the original word at its pc
    without calling the decoder (it still counts toward the per-pc
    fetches the early stop reads), and the decoder takes over at that
    fetch.  A traced campaign skips nothing: the trace records every
    fetch's decode.  [fault.fast_forward_fetches] counts the fetches
    delivered this way.

    Why no delivered word before the handover can differ.  The argument
    rests on the pristine system restoring every word the reference run
    fetches (what [--verify] checks).  The decoder reads the stored word
    of the fetched pc only; it reads a TT entry only while it decodes the
    block of a slot whose chain holds it, which starts at that slot's
    head; and a bus glitch changes nothing before its own fetch.  Before
    the named fetch the upset is therefore never read, the corrupted
    system behaves as the pristine one, and each word delivered is the
    original: by induction the CPU follows the reference run fetch for
    fetch, so the pcs skipped are the reference's.  A traced run would
    differ only in its events, and is not skipped.

    Why the decoder at the handover is the pristine decoder.  Its
    detection and fallback counters are zero there, as in the pristine
    run, since nothing corrupted was read: no parity failed, no region
    degraded.  The BBIT scrub runs on the first fetch the decoder sees and
    finds every slot pristine, as it did on fetch 0.  For the sequencing
    state: the decoder is active only between a block's head and the end
    of its TT chain, over consecutive pcs of the block's region, and the
    pristine run never faults.  So at a fetch of a pc outside every region
    it is idle, and at the first fetch of any pc of a region it is idle
    too (no earlier fetch of that region began a decode; a decode of
    another region expects a pc of that region next).  A fresh decoder is
    idle, and an idle decoder carries no state into the next block: the
    head reloads the history registers.  A bus glitch may land inside a
    block.  Basic blocks are entered only at their head ({!Cfg.Block}),
    so the fetches just before it were the block's head to [pc - 1] in
    order.  The decoder first re-fetches those from the pristine image,
    which leaves its sequencing state where the pristine decoder's is. *)

(** Decoded-image damage measured by a strict address-order sweep of the
    corrupted stored state against the pristine raw words. *)
type corruption = {
  hamming_bits : int;  (** flipped decoded bits, summed over words *)
  words_corrupted : int;
  regions_hit : int;  (** encoded regions containing a corrupted word *)
  bitlines : int;  (** distinct bus bitlines touched (OR of word diffs) *)
  max_extent : int;
      (** widest first-to-last corrupted span inside any one region *)
}

type outcome =
  | Masked  (** architecturally and statically invisible *)
  | Corrupted of corruption
      (** decoded image differs but the run's output did not *)
  | Recovered of { detections : int; fallbacks : int }
      (** parity caught the upset; identity-decode fallback reproduced the
          baseline output exactly *)
  | Sdc  (** silent data corruption: wrong program output *)
  | Trap of { cause : string }  (** typed fault or machine trap *)
  | Hang of { limit : int }  (** hit the campaign cycle cap *)

val outcome_class : outcome -> string

(** The six class slugs in reporting order. *)
val classes : string list

type record = {
  id : int;  (** injection index, 0-based *)
  bench : string;
  k : int;
  target : string;  (** {!Model.label} slug *)
  outcome : outcome;
}

type report = {
  seed : int;
  requested : int;
  ks : int list;
  benches : string list;
  records : record list;
  totals : (string * int) list;  (** per class, in {!classes} order *)
}

type config = {
  seed : int;
  injections : int;
  ks : int list;
  benches : Workloads.t list;
}

(** seed 42, 200 injections, k = 4..7, all nine benchmarks. *)
val default_config : config

val run : config -> report

(** Stable machine-readable rendering (schema
    ["powercode-fault-campaign/1"], fixed key order). *)
val to_json : report -> string

val to_markdown : report -> string
