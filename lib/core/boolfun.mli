(** The sixteen two-input boolean functions.

    A transformation [tau] restores an original bit from a stored bit and one
    history bit: [x = tau (x_stored, history)].  Following the paper the
    first argument is written [x] (the encoded bit arriving on the bus line)
    and the second [y] (the history bit).  There are [2^(2^2) = 16] such
    functions; the paper shows a fixed subset of eight suffices for optimal
    codes at every practical block size (see {!Subset}). *)

type t = private int
(** The truth-table index.  Exposed as [private int] so the compiler knows
    values are immediate: storing them in arrays on the encode hot path then
    needs no GC write barrier. *)

(** [of_index i] is the function with truth table [i] ([0..15]): bit
    [(2*x + y)] of [i] is the value at [(x, y)].  Raises [Invalid_argument]
    outside [0..15]. *)
val of_index : int -> t

(** [index f] is the truth-table index, inverse of {!of_index}. *)
val index : t -> int

(** [apply f x y] evaluates [f] at stored bit [x] and history bit [y]. *)
val apply : t -> bool -> bool -> bool

(** [all] lists the 16 functions in truth-table order. *)
val all : t list

(** Named functions used by the paper's tables. *)

(** [x] — leaves the stored bit intact. *)
val identity : t

(** [not x]. *)
val inversion : t

(** [y] — repeats the previous original bit. *)
val history : t

(** [not y]. *)
val not_history : t

(** [x xor y]. *)
val xor : t

(** [not (x xor y)]. *)
val xnor : t

(** [not (x or y)]. *)
val nor : t

(** [not (x and y)]. *)
val nand : t

(** [x and y]. *)
val and_ : t

(** [x or y]. *)
val or_ : t

(** [name f] is the paper's analytic notation, e.g. ["x"], ["!x"], ["!y"],
    ["x^y"], ["!(x^y)"], ["!(x|y)"]. *)
val name : t -> string

(** [dual f] is the function obtained under global bit inversion of both the
    original and encoded streams: [dual f (x, y) = ¬ f (¬x, ¬y)].  The
    paper's symmetry interchanges XOR with XNOR and NOR with NAND while
    fixing identity and inversion. *)
val dual : t -> t

(** [equal] and [compare] order by truth-table index. *)

val equal : t -> t -> bool
val compare : t -> t -> int
val pp : Format.formatter -> t -> unit

(** Masks — sets of functions represented as 16-bit integers, used by the
    solver's hot loops. *)

(** [mask_of_list fs] is the bitset with bit [index f] set for each [f]. *)
val mask_of_list : t list -> int

(** [list_of_mask m] lists members of [m] in index order. *)
val list_of_mask : int -> t list

(** [mask_mem f m] tests membership. *)
val mask_mem : t -> int -> bool

(** [full_mask] contains all 16 functions. *)
val full_mask : int

(** [choose_preferred mask] is the first member of [mask] in the
    deterministic tie-break order used whenever several transformations
    are admissible: the paper's named functions first (identity,
    inversion, ¬y, XOR, XNOR, NOR, NAND, y), then truth-table order.
    Shared by {!Solver} and {!Codetable} so standalone and chained
    encodings pick identical transformations.  Raises [Invalid_argument]
    on the empty mask. *)
val choose_preferred : int -> t
