(** The Transformation Table (paper §7.2, Figure 5a).

    A small SRAM array; each entry holds, per bus line, a compact index
    selecting one of the supported decode gates, plus the end-of-block
    delimiter [E] and the tail counter [CT].  The set of supported gates is
    a hardware parameter (the paper uses eight, hence 3-bit indices). *)

type entry = {
  tau_indices : int array;  (** per line, an index into {!functions} *)
  e_bit : bool;
  ct : int;
}

type t

(** [create ?capacity ?functions ()] — [capacity] defaults to the paper's
    16 entries; [functions] to {!Powercode.Subset.paper_eight} in list
    order.  Raises [Invalid_argument] if the identity is missing. *)
val create : ?capacity:int -> ?functions:Powercode.Boolfun.t array -> unit -> t

val capacity : t -> int
val functions : t -> Powercode.Boolfun.t array

(** [fn_index_bits t] is [ceil (log2 (Array.length functions))]. *)
val fn_index_bits : t -> int

(** [write t ~index entry] programs one entry (a peripheral write).
    Raises [Invalid_argument] when out of capacity or when an index does
    not address a supported function. *)
val write : t -> index:int -> entry -> unit

(** [read t index] is the programmed entry.
    Raises [Invalid_argument] when out of range or never written. *)
val read : t -> int -> entry

(** [read_opt t index] is the programmed entry, or [None] when [index] is
    out of range or was never written — the non-aborting read the fetch
    path uses so corrupted sequencing is classified, not crashed on. *)
val read_opt : t -> int -> entry option

(** [parity_ok t index] — does the entry's stored parity bit (computed at
    {!write} time) still match its fields?  [true] for unprogrammed or
    out-of-range slots (nothing to check).  Any single-bit {!corrupt} of a
    programmed entry makes this [false] until the entry is rewritten. *)
val parity_ok : t -> int -> bool

(** A single-event upset of one stored entry field: one bit of one line's
    gate index, the end-of-block delimiter, or one bit of the tail
    counter. *)
type upset = Tau of { line : int; bit : int } | E | Ct of { bit : int }

(** [corrupt t ~index upset] flips the named stored bit {e without}
    refreshing the slot's parity bit — exactly what a particle strike does
    to the SRAM cell.  Not counted as a programming write.  Raises
    [Invalid_argument] on unprogrammed slots or bits outside the stored
    field widths. *)
val corrupt : t -> index:int -> upset -> unit

(** [load t ~base entries] converts encoder output (concrete
    transformations) to indices and writes consecutive entries from
    [base].  Raises [Invalid_argument] if a transformation is not a
    supported gate — the hardware physically cannot decode it. *)
val load : t -> base:int -> Powercode.Program_encoder.tt_entry array -> unit

(** [tau t ~index ~line] is the decode gate entry [index] selects for
    [line]. *)
val tau : t -> index:int -> line:int -> Powercode.Boolfun.t

(** [writes_performed t] counts {!write} operations since creation — the
    volume of the software reprogramming traffic. *)
val writes_performed : t -> int

(** [version t] counts changes to the stored entries: every {!write} and
    every {!corrupt} bumps it.  A reader that caches anything derived from
    an entry (the fetch decoder's compiled gates and parity results) keeps
    the version it saw and drops the cache when it moves.  Entries change
    only through these two calls; mutating a [tau_indices] array obtained
    from {!read} in place is outside the contract. *)
val version : t -> int

(** [programmed t] lists the written entries as [(index, entry)], in index
    order. *)
val programmed : t -> (int * entry) list

(** [storage_bits t ~width ~ct_bits] is the SRAM cost in bits:
    [capacity * (width * fn_index_bits + 1 + ct_bits)]. *)
val storage_bits : t -> width:int -> ct_bits:int -> int
