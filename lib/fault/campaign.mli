(** Seeded fault-injection campaigns over the benchmark suite.

    A campaign runs [injections] single-upset experiments round-robin over
    every (benchmark, block size) pair: rebuild a pristine decode system
    from the shared plan, draw one {!Model.target} from the campaign RNG,
    inject it, and run the program through the hardened fetch path under a
    cycle cap.  Each experiment lands in exactly one outcome class.

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
    ends at the rejoin fetch. *)

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
