(** Exact per-bitline and per-basic-block attribution of bus transitions.

    Fed one call per dynamic instruction fetch with the baseline bus word
    and the corresponding word of each encoded image (or the whole stream
    at once from its pair profile, {!record_pairs}), it maintains
    accumulators — unlike the trace ring buffer it never drops data, so the
    per-line counts sum {e bit-exactly} to the aggregate transition counts
    reported by [Pipeline.Evaluate] (the test suite asserts this for every
    benchmark and every k).

    Transition convention matches [Buspower]: the first fetch primes the
    previous-word registers and counts nothing; thereafter each fetch adds
    [popcount (prev lxor cur)], attributed per set bit to that bus line and
    in aggregate to the basic block of the {e destination} pc.

    Cost: each accounted step (a fetch, or a pc pair times its count)
    touches one line counter per toggled bit, visited lowest first, plus
    one block counter; steps between equal words cost a compare. *)

type t

(** [create ~labels ~block_starts ~block_of_pc] — [labels] name the encoded
    images (e.g. [[|"k4"; "k5"; "k6"; "k7"|]]); [block_starts.(b)] is the
    start pc of basic block [b]; [block_of_pc pc] maps a pc to its block
    index (return a negative value for out-of-range pcs — their transitions
    still count toward the line totals, just not to any block). *)
val create :
  labels:string array ->
  block_starts:int array ->
  block_of_pc:(int -> int) ->
  t

(** [record t ~pc ~baseline ~encoded] accounts one fetch.  [encoded] must
    have one word per label (raises [Invalid_argument] otherwise). *)
val record : t -> pc:int -> baseline:int -> encoded:int array -> unit

(** [record_pairs t ~first_pc ~pairs ~baseline ~encoded] accounts a whole
    fetch stream from its pair profile, on a fresh [t]: [first_pc] is the
    pc of the first fetch ([-1] for an empty stream), [pairs f] calls
    [f ~src ~dst ~count] once per distinct consecutive pc pair, and pc [p]
    drives [baseline.(p)] and [encoded.(i).(p)] — one image per label.
    Because each image drives a fixed word per pc, the summary equals
    {!record}ing the stream fetch by fetch; the accumulator is then
    finished (only {!summarize} it).  Raises [Invalid_argument] when [t]
    already recorded fetches or [encoded] has the wrong length. *)
val record_pairs :
  t ->
  first_pc:int ->
  pairs:((src:int -> dst:int -> count:int -> unit) -> unit) ->
  baseline:int array ->
  encoded:int array array ->
  unit

type summary = {
  labels : string array;
  fetches : int;
  line_baseline : int array;  (** 32 entries, index = bus line (bit 0 = LSB) *)
  line_encoded : int array array;  (** per label: 32 entries *)
  total_baseline : int;  (** = sum of [line_baseline] *)
  total_encoded : int array;  (** per label: sum of its line counts *)
  block_starts : int array;
  block_baseline : int array;
  block_encoded : int array array;  (** per label: per block *)
}

val summarize : t -> summary

(** Aligned text tables: the 32-row per-line baseline-vs-encoded table with
    a totals row, then the per-block breakdown (largest blocks first,
    truncated past [max_blocks], default 16). *)
val pp_text : ?max_blocks:int -> Format.formatter -> summary -> unit

(** One JSON object
    [{"name"?, "fetches", "labels", "totals": {"baseline", <label>...},
      "per_line": [{"line", "baseline", <label>...}, ...],
      "per_block": [{"block", "start_pc", "baseline", <label>...}, ...]}]
    — embeds into [BENCH_encoding.json] (schema /3). *)
val to_json : ?name:string -> summary -> string
