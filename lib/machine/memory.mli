(** Byte-addressable data memory (Harvard style: instructions live in their
    own image, as in the paper's target systems, so data traffic never
    pollutes the instruction bus). *)

type t

exception Fault of { address : int; message : string }

(** [create ~bytes] is a zeroed memory of [bytes] bytes (rounded up to a
    multiple of 4). *)
val create : bytes:int -> t

(** [size m] is the capacity in bytes. *)
val size : t -> int

(** [clear m] zeroes every byte, leaving [m] as {!create} made it. *)
val clear : t -> unit

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
