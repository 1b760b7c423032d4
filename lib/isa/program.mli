(** An assembled program: the instruction image plus its label map.

    Instruction addresses are {e word indices} (instruction 0, 1, 2, …);
    the machine multiplies by 4 nowhere — the bus carries one 32-bit
    instruction word per fetch, which is all the power analysis needs. *)

type t

(** [of_items items] resolves a symbolic stream into a program. *)
val of_items : Sym.item list -> t

(** [of_insns insns] wraps already-resolved instructions. *)
val of_insns : Insn.t array -> t

(** [insns p] is the instruction array (not copied; treat as read-only). *)
val insns : t -> Insn.t array

(** [words p] is the binary image, one encoded word per instruction
    (computed once at construction). *)
val words : t -> int array

(** [length p] is the number of instructions. *)
val length : t -> int

(** [labels p] is the label map sorted by address. *)
val labels : t -> (string * int) list

(** [address_of p name] is the label's word index.
    Raises [Not_found] if undefined. *)
val address_of : t -> string -> int

(** [pp] prints a disassembly listing with labels and addresses. *)
val pp : Format.formatter -> t -> unit
