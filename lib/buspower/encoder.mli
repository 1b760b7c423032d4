(** First-class bus-encoder backends behind one signature.

    The paper's TT transformation is a single point in the space of
    low-transition instruction-bus codes; this module is the common
    contract every scheme implements — the counters in this library
    (Bus-invert, T0, Gray), the paper's TT scheme, and the
    information-theoretic references (Chee–Colbourn optimal memoryless
    codes, Valentini–Chiani low-weight codes).

    A backend transforms a stream of [width]-bit words into a stream of
    {!codeword}s: the [data] lines (same [width]) plus up to
    [aux_width ~width] redundant lines — invert/INC flags or sideband
    transformation indices.  Encoding is {e streaming}: an encoder may
    buffer input and emit zero or more codewords per word ({!S.encode}),
    releasing any tail on {!S.flush}; word-at-a-time schemes report
    [latency_words = 0] in their {!cost} and always emit exactly one
    codeword per input word.  Decoders mirror that shape.

    Every backend must pass the shared conformance suite
    ([test_encoder_conformance.ml]): round-trip, transition-count oracle
    agreement, streaming-vs-batch equivalence, reset laws, ledger-cost
    conservation, and sequential-vs-parallel differentials.  A new
    backend is {!register} plus one functor application away from full
    coverage. *)

(** One bus clock: [data] carries the (possibly transformed) word on the
    original lines, [aux] the redundant lines (bit 0 = first extra
    line).  Lines outside the advertised widths are zero. *)
type codeword = { data : int; aux : int }

(** Static hardware footprint, priced through {!Ledger.Model} by the
    pipeline's scheme auto-selector. *)
type cost = {
  extra_lines : int;  (** redundant bus lines ([aux] width) *)
  table_bits : int;  (** lookup/state storage at both bus ends *)
  gates : int;  (** rough combinational gate estimate per line *)
  reads_per_fetch : int;  (** side-table reads per delivered word *)
  latency_words : int;
      (** input lookahead before the first codeword appears; [0] means
          strictly word-at-a-time (required for fetch-path selection) *)
}

module type S = sig
  (** Registry name, e.g. ["businvert"]. *)
  val scheme : string

  (** Supported bus widths (within {!Width.min_width}..{!Width.max_width}). *)
  val min_width : int

  val max_width : int

  (** Redundant lines used at a given width. *)
  val aux_width : width:int -> int

  val cost : width:int -> cost

  type encoder

  (** [encoder ~width] is a fresh encoder; raises {!Width.Out_of_range}
      outside [min_width..max_width]. *)
  val encoder : width:int -> encoder

  (** [encode e word] feeds one word, returning the codewords released
      by it (exactly one when [latency_words = 0]). *)
  val encode : encoder -> int -> codeword list

  (** [flush e] releases any buffered tail and leaves [e] reset. *)
  val flush : encoder -> codeword list

  (** [reset e] discards buffered input and bus history. *)
  val reset : encoder -> unit

  type decoder

  val decoder : width:int -> decoder

  (** [decode d cw] feeds one codeword, returning the original words it
      releases. *)
  val decode : decoder -> codeword -> int list

  val flush_decoder : decoder -> int list
  val reset_decoder : decoder -> unit
end

type backend = (module S)

(** {1 Registry}

    Backends self-register at library initialisation (see
    {!Backends.ensure} and [Powercode.Tt_backend.ensure]); registration
    order is preserved and is the auto-selector's deterministic
    tie-break order.  Re-registering a scheme name replaces the backend
    in place. *)

val register : backend -> unit

val find : string -> backend option

(** All registered backends, in registration order. *)
val all : unit -> backend list

(** {1 Derived stream helpers} *)

(** [encode_stream b ~width words] runs a fresh encoder over the whole
    stream, including the flush tail. *)
val encode_stream : backend -> width:int -> int array -> codeword array

(** [decode_stream b ~width codewords] inverts {!encode_stream}. *)
val decode_stream : backend -> width:int -> codeword array -> int array

(** [codeword_transitions cws] is the bus-transition total of an encoded
    stream under the library's counting convention: the first codeword
    charges nothing; each later one charges the Hamming distance to its
    predecessor over data and aux lines. *)
val codeword_transitions : codeword array -> int

(** Data lines only (used where aux is sideband state, not a wire). *)
val data_transitions : codeword array -> int

(** [stream_transitions b ~width words] = [codeword_transitions] of
    [encode_stream] — the number every scheme is judged by.  Cost: it
    builds that codeword array (via a list) and walks it twice, data
    lines then aux lines. *)
val stream_transitions : backend -> width:int -> int array -> int
