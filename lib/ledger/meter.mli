(** Per-component energy accounting over one fetch stream.

    Fed one call per dynamic instruction fetch ({!record}) — or the whole
    stream at once from its pair profile ({!record_pairs}), exactly like
    {!Trace.Attribution} — a meter maintains integer event counters for
    every ledger component:

    - bus transitions, baseline and per encoded image
      (first fetch primes, then [popcount (prev lxor cur)] per fetch, the
      {!Buspower} convention — so the totals must agree bit-exactly with
      [Pipeline.Evaluate] and [Trace.Attribution], which
      [test/test_ledger.ml] asserts);
    - TT SRAM reads: one per fetch whose pc lies inside an encoded region
      of that image;
    - BBIT probes: one per non-sequential fetch (the first fetch and every
      fetch with [pc <> prev_pc + 1]) — the associative match only burns
      energy when the sequencer cannot simply continue;
    - decode-gate output toggles: the restored-word lines that flip while
      the decoder is active, i.e. [popcount (baseline lxor prev_baseline)]
      on fetches inside an encoded region (the decoder's output carries the
      original words).

    Reprogramming writes are not observable from the fetch stream; they are
    supplied to {!finalize} from the built {!Hardware.Reprogram} systems. *)

type t

(** [create ~name ~model ~ks ~encoded_region] — [ks.(i)] labels image [i];
    [encoded_region ~image ~pc] decides whether [pc] is stored encoded in
    image [image] (constant per run: the region map of the plan). *)
val create :
  name:string ->
  model:Model.t ->
  ks:int array ->
  encoded_region:(image:int -> pc:int -> bool) ->
  t

(** [record t ~pc ~baseline ~encoded] accounts one fetch.  [encoded] must
    have one word per entry of [ks] (raises [Invalid_argument]). *)
val record : t -> pc:int -> baseline:int -> encoded:int array -> unit

(** [record_pairs t ~first_pc ~pairs ~baseline ~encoded] books a whole
    fetch stream from its pair profile, on a fresh meter — the same inputs
    as {!Trace.Attribution.record_pairs}: the first fetch's pc ([-1] for an
    empty stream), a pair iterator calling [f ~src ~dst ~count] once per
    distinct consecutive pc pair, and the per-pc words of the baseline and
    of each image.  Every counter then equals {!record}ing the stream fetch
    by fetch: BBIT probes are 1 + the non-sequential pairs, TT reads the
    pairs (and first fetch) landing in an encoded region, gate toggles the
    baseline flips of those pairs.  Raises [Invalid_argument] when the
    meter already recorded fetches or [encoded] has the wrong length. *)
val record_pairs :
  t ->
  first_pc:int ->
  pairs:((src:int -> dst:int -> count:int -> unit) -> unit) ->
  baseline:int array ->
  encoded:int array array ->
  unit

(** [same_counts a b] — whether two meters hold identical event counters
    (how a per-fetch meter is checked against a replayed one). *)
val same_counts : t -> t -> bool

(** [fetches t] — fetches recorded so far. *)
val fetches : t -> int

(** [baseline_transitions t] and [encoded_transitions t i] expose the raw
    integer counts for conservation checks. *)
val baseline_transitions : t -> int

val encoded_transitions : t -> int -> int

(** [finalize t ~reprogram_writes] — [reprogram_writes.(i)] is the number
    of TT + BBIT programming writes of image [i]'s decode system.  Prices
    every counter under the meter's model and returns the sheet. *)
val finalize : t -> reprogram_writes:int array -> Sheet.t
