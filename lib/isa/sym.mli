(** Symbolic instruction streams: instructions whose control-flow targets
    are labels, as produced by the assembler front-end and the Minic code
    generator, before offsets are resolved. *)

type item =
  | Line of int
      (** the items after it come from this 1-based source line; a marker
          that occupies no slot *)
  | Label of string  (** defines a label at the next instruction *)
  | Op of Insn.t  (** an already-resolved instruction *)
  | Beq_l of Reg.t * Reg.t * string
  | Bne_l of Reg.t * Reg.t * string
  | Blez_l of Reg.t * string
  | Bgtz_l of Reg.t * string
  | Bltz_l of Reg.t * string
  | Bgez_l of Reg.t * string
  | Bc1t_l of string
  | Bc1f_l of string
  | J_l of string
  | Jal_l of string

exception Undefined_label of string
exception Duplicate_label of string

(** A resolved branch offset or jump target does not fit its field.
    [line] is that of the last {!Line} marker before the transfer, 0 when
    there is none; [message] is the encoder's. *)
exception Out_of_range of { line : int; message : string }

(** [resolve items] indexes the labels and rewrites every symbolic control
    transfer to a numeric one: branches get word offsets relative to the
    following instruction, jumps get absolute word indices.
    Raises {!Undefined_label}, {!Duplicate_label} or {!Out_of_range}. *)
val resolve : item list -> Insn.t array * (string * int) list

(** [instruction_count items] is the number of instructions (labels are
    markers and occupy no slot). *)
val instruction_count : item list -> int
