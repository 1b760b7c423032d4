(** The instruction set: a MIPS-I-like 32-bit RISC with a single-precision
    floating-point coprocessor, standing in for SimpleScalar's PISA.

    Control transfers are fully resolved: branch instructions carry a signed
    {e word} offset relative to the instruction after the branch; jumps
    carry an absolute {e word} index.  The machine has no delay slots.

    Field order conventions mirror assembly syntax: for three-register
    instructions the destination comes first. *)

type t =
  (* arithmetic / logic, register *)
  | Add of Reg.t * Reg.t * Reg.t  (** rd, rs, rt (trapping add not modeled) *)
  | Addu of Reg.t * Reg.t * Reg.t
  | Sub of Reg.t * Reg.t * Reg.t
  | Subu of Reg.t * Reg.t * Reg.t
  | And of Reg.t * Reg.t * Reg.t
  | Or of Reg.t * Reg.t * Reg.t
  | Xor of Reg.t * Reg.t * Reg.t
  | Nor of Reg.t * Reg.t * Reg.t
  | Slt of Reg.t * Reg.t * Reg.t
  | Sltu of Reg.t * Reg.t * Reg.t
  (* shifts *)
  | Sll of Reg.t * Reg.t * int  (** rd, rt, shamt 0..31 *)
  | Srl of Reg.t * Reg.t * int
  | Sra of Reg.t * Reg.t * int
  | Sllv of Reg.t * Reg.t * Reg.t  (** rd, rt, rs *)
  | Srlv of Reg.t * Reg.t * Reg.t
  | Srav of Reg.t * Reg.t * Reg.t
  (* multiply / divide *)
  | Mult of Reg.t * Reg.t
  | Div of Reg.t * Reg.t
  | Mfhi of Reg.t
  | Mflo of Reg.t
  (* arithmetic / logic, immediate *)
  | Addi of Reg.t * Reg.t * int  (** rt, rs, signed 16-bit *)
  | Addiu of Reg.t * Reg.t * int
  | Slti of Reg.t * Reg.t * int
  | Andi of Reg.t * Reg.t * int  (** rt, rs, unsigned 16-bit *)
  | Ori of Reg.t * Reg.t * int
  | Xori of Reg.t * Reg.t * int
  | Lui of Reg.t * int  (** rt, unsigned 16-bit *)
  (* memory *)
  | Lw of Reg.t * int * Reg.t  (** rt, offset, base *)
  | Sw of Reg.t * int * Reg.t
  | Lb of Reg.t * int * Reg.t
  | Sb of Reg.t * int * Reg.t
  (* control *)
  | Beq of Reg.t * Reg.t * int  (** rs, rt, word offset from next pc *)
  | Bne of Reg.t * Reg.t * int
  | Blez of Reg.t * int
  | Bgtz of Reg.t * int
  | Bltz of Reg.t * int
  | Bgez of Reg.t * int
  | J of int  (** absolute word index *)
  | Jal of int
  | Jr of Reg.t
  | Jalr of Reg.t * Reg.t  (** rd, rs *)
  (* floating point, single precision *)
  | Lwc1 of Reg.f * int * Reg.t
  | Swc1 of Reg.f * int * Reg.t
  | Mtc1 of Reg.t * Reg.f  (** rt, fs: GPR bits into FPR *)
  | Mfc1 of Reg.t * Reg.f
  | Add_s of Reg.f * Reg.f * Reg.f  (** fd, fs, ft *)
  | Sub_s of Reg.f * Reg.f * Reg.f
  | Mul_s of Reg.f * Reg.f * Reg.f
  | Div_s of Reg.f * Reg.f * Reg.f
  | Abs_s of Reg.f * Reg.f
  | Neg_s of Reg.f * Reg.f
  | Mov_s of Reg.f * Reg.f
  | Sqrt_s of Reg.f * Reg.f
  | Cvt_s_w of Reg.f * Reg.f  (** fd, fs: int bits -> float *)
  | Cvt_w_s of Reg.f * Reg.f  (** fd, fs: float -> int bits (truncate) *)
  | C_eq_s of Reg.f * Reg.f  (** sets the FP condition flag *)
  | C_lt_s of Reg.f * Reg.f
  | C_le_s of Reg.f * Reg.f
  | Bc1t of int  (** word offset from next pc *)
  | Bc1f of int
  (* system *)
  | Syscall
  | Nop

(** [equal] is structural equality. *)
val equal : t -> t -> bool

(** [is_branch i] holds for conditional branches (relative targets). *)
val is_branch : t -> bool

(** [is_jump i] holds for J/Jal/Jr/Jalr. *)
val is_jump : t -> bool

(** [branch_offset i] is the word offset of a conditional branch. *)
val branch_offset : t -> int option

(** [jump_target i] is the absolute target of [J]/[Jal]. *)
val jump_target : t -> int option

(** [pp] prints assembly syntax, with control targets shown numerically. *)
val pp : Format.formatter -> t -> unit

val to_string : t -> string
