(** Byte-addressable data memory (Harvard style: instructions live in their
    own image, as in the paper's target systems, so data traffic never
    pollutes the instruction bus).

    The memory is split into 4 KiB pages under a two-level page table: a
    directory of leaves, each leaf covering 32 pages.  Every page no store
    has reached is one shared, read-only page of zeros, and every leaf no
    store has reached is one shared leaf of zero pages, so {!create}
    allocates only the directory (32 slots for 4 MiB, small enough for the
    minor heap), and a store allocates its leaf and page on the first
    write to them.  The shared zero page and zero leaf are never written:
    a store first swaps in a leaf and a zeroed page of this memory's own.
    An aligned word never crosses a page, so an access costs two
    page-table loads more than a flat memory.

    A memory belongs to the one domain that runs on it.  Distinct memories
    share only the zero page and the zero leaf, which nothing writes, so
    they are safe to use in parallel. *)

type t

exception Fault of { address : int; message : string }

(** [create ~bytes] is a zeroed memory of [bytes] bytes (rounded up to a
    multiple of 4).  Its cost is one directory slot per 128 KiB, not
    [bytes]; the leaves and pages a run writes are paid as it writes
    them. *)
val create : bytes:int -> t

(** [size m] is the capacity in bytes. *)
val size : t -> int

(** [load_word m addr] reads 4 little-endian bytes as a signed 32-bit
    value.  Raises {!Fault} when unaligned or out of bounds. *)
val load_word : t -> int -> int

(** [store_word m addr v] writes the low 32 bits of [v]. *)
val store_word : t -> int -> int -> unit

(** [load_byte m addr] sign-extends the byte at [addr]. *)
val load_byte : t -> int -> int

(** [store_byte m addr v] writes the low 8 bits of [v]. *)
val store_byte : t -> int -> int -> unit

(** [load_float m addr] reads a single-precision float. *)
val load_float : t -> int -> float

(** [store_float m addr v] writes [v] rounded to single precision. *)
val store_float : t -> int -> float -> unit
