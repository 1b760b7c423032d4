(** The fetch-side decode path: BBIT match, TT sequencing via the E/CT
    delimiters, one two-input decode gate per bus line, and the one-bit
    history register per line (seeded from the {e stored} overlap bit at
    every code-block boundary, per §6).

    The decoder sits between the instruction store (holding the encoded
    image) and the pipeline: each fetch returns both the word that toggled
    the bus (the stored word) and the restored original instruction word.

    The path is hardened: every condition a single-event upset can force —
    a fetch outside the image, a TT read that addresses no programmed
    entry, a parity mismatch on a TT entry or BBIT slot, sequencing
    violated by corrupted control flow — raises the typed
    {!Machine.Fault.Fault} channel instead of [Invalid_argument], so fault
    campaigns classify it.  With {!recovery} metadata the decoder degrades
    gracefully instead of faulting on parity detections: the corrupted
    entry's whole region falls back to identity decode of the raw words,
    trading that region's power savings for architecturally-correct
    fetches.

    {2 Compiled entries}

    As in the hardware, all 32 decode gates fire at once.  The first read
    of a TT entry lowers its per-line gate indices into four minterm masks
    (which lines output 1 for stored/history bits 00, 01, 10 and 11), so a
    decode is four word-wide ANDs ORed together.  The same read records
    the entry's parity result and whether it can be decoded at all (a gate
    index that addresses no gate, or [tau_indices] shorter than the bus).
    The BBIT match at each pc is cached the same way.  Every fault fires
    at the fetch and with the payload a line-by-line walk would give, and
    every detection is counted on each read that sees it.

    The caches follow the tables through {!Tt.version} and
    {!Bbit.version}: any write or upset bumps the version, and the next
    fetch drops everything derived from the older one, so an upset made
    mid-run is seen on the very next fetch.  Changing a table by any other
    route (mutating an entry's [tau_indices] array in place) is not
    seen. *)

type t

(** Firmware-known metadata enabling graceful degradation: the original
    (un-encoded) program words, and per BBIT slot the [(start, length)]
    extent of the encoded region that slot activates (slot order matches
    {!Reprogram.build}'s BBIT load order). *)
type recovery = { raw : int array; regions : (int * int) array }

(** [create ~tt ~bbit ~k ~image ?recovery ()] — [image] is the stored
    instruction memory (encoded regions patched in); [k] the code block
    size the TT entries were generated for.  Without [recovery] the
    decoder is strict: detections raise.  With it, detections degrade the
    affected region and fetches keep succeeding. *)
val create :
  tt:Tt.t ->
  bbit:Bbit.t ->
  k:int ->
  image:int array ->
  ?recovery:recovery ->
  unit ->
  t

(** [fetch t ~pc] is [(bus_word, decoded_word)] for the instruction at
    [pc].  Raises {!Machine.Fault.Fault} when the fetch cannot be decoded
    correctly and the decoder cannot (or was not allowed to) degrade:
    {!Machine.Fault.Image_out_of_range}, {!Machine.Fault.Tt_parity},
    {!Machine.Fault.Bbit_parity}, {!Machine.Fault.Tt_read_invalid}, or
    {!Machine.Fault.Decode_sequence}.  For a degraded region both returned
    words are the raw instruction (identity decode). *)
val fetch : t -> pc:int -> int * int

(** [reset t] clears the sequencing state (a new activation of the loop).
    Degradation state and detection counts survive — an SRAM region does
    not heal on loop re-entry. *)
val reset : t -> unit

(** [active t] — is the decoder currently inside an encoded block? *)
val active : t -> bool

(** {2 Detection and degradation observability} *)

(** [tt_detections t] — TT parity mismatches this decoder detected. *)
val tt_detections : t -> int

(** [bbit_detections t] — BBIT parity mismatches this decoder detected. *)
val bbit_detections : t -> int

(** [fallback_fetches t] — fetches served raw from degraded regions. *)
val fallback_fetches : t -> int

(** [degraded_slots t] — BBIT slots whose regions fell back to identity
    decode, in slot order. *)
val degraded_slots : t -> int list
