(** Shared table-driven population counts.

    One 16-bit lookup table serves every popcount in the tree: the word-level
    {!Bitvec} operations, the {!Bitmat} transition counters and the
    pipeline's fetch-counting hot loop all route through here instead of
    carrying private shift-loop implementations. *)

(** [count16 x] is the number of set bits among the low 16 bits of [x]. *)
val count16 : int -> int

(** [count32 x] is the number of set bits among the low 32 bits of [x]. *)
val count32 : int -> int

(** [count x] is the number of set bits of [x].  [x] must be
    non-negative. *)
val count : int -> int

(** [lsb_index x] is the index of the lowest set bit of [x], in constant
    time (a de Bruijn multiply and a 32-entry lookup).  [x] must be
    non-zero (raises [Invalid_argument] otherwise); used to iterate over
    sparse bit sets via [x land (x - 1)] stripping. *)
val lsb_index : int -> int

(** [add_at_set_bits counts ~by x] adds [by] to [counts.(j)] for every set
    bit [j] of [x], lowest first, so it costs one step per set bit;
    [counts] must have an entry for each (bounds-checked).  The per-bit
    counters of a bus ([x] a 32-bit toggle mask) and of a bit matrix's
    columns are built with it. *)
val add_at_set_bits : int array -> by:int -> int -> unit
