(** Basic-block partitioning and the control-flow graph.

    Leaders are instruction 0, every branch/jump target, and every
    instruction following a control transfer.  A block never extends past a
    control transfer, so the power encoding applied per block can never be
    entered or left mid-chain (paper §7.1).  Indirect jumps ([jr]/[jalr])
    terminate a block with no static successors. *)

type terminator =
  | Fallthrough  (** block ends because the next instruction is a leader *)
  | Branch of { target : int; fallthrough : int }
  | Jump of { target : int }  (** [j]/[jal]; [jal] also links [$ra] *)
  | Indirect  (** [jr]/[jalr] *)
  | Exit  (** last instruction of the program with no transfer *)

type t = {
  index : int;  (** position in the block array *)
  start : int;  (** word index of the first instruction *)
  len : int;  (** number of instructions, [>= 1] *)
  terminator : terminator;
  succs : int list;  (** successor block indices, sorted *)
  preds : int list;  (** predecessor block indices, sorted *)
}

(** [partition insns] is the block array in address order.
    Raises [Invalid_argument] on an empty program or when a control
    transfer targets an out-of-range instruction. *)
val partition : Isa.Insn.t array -> t array

(** [block_at blocks index] is the block containing instruction [index].
    Raises [Not_found] when out of range. *)
val block_at : t array -> int -> t

val pp : Format.formatter -> t -> unit
