type t =
  | Add of Reg.t * Reg.t * Reg.t
  | Addu of Reg.t * Reg.t * Reg.t
  | Sub of Reg.t * Reg.t * Reg.t
  | Subu of Reg.t * Reg.t * Reg.t
  | And of Reg.t * Reg.t * Reg.t
  | Or of Reg.t * Reg.t * Reg.t
  | Xor of Reg.t * Reg.t * Reg.t
  | Nor of Reg.t * Reg.t * Reg.t
  | Slt of Reg.t * Reg.t * Reg.t
  | Sltu of Reg.t * Reg.t * Reg.t
  | Sll of Reg.t * Reg.t * int
  | Srl of Reg.t * Reg.t * int
  | Sra of Reg.t * Reg.t * int
  | Sllv of Reg.t * Reg.t * Reg.t
  | Srlv of Reg.t * Reg.t * Reg.t
  | Srav of Reg.t * Reg.t * Reg.t
  | Mult of Reg.t * Reg.t
  | Div of Reg.t * Reg.t
  | Mfhi of Reg.t
  | Mflo of Reg.t
  | Addi of Reg.t * Reg.t * int
  | Addiu of Reg.t * Reg.t * int
  | Slti of Reg.t * Reg.t * int
  | Andi of Reg.t * Reg.t * int
  | Ori of Reg.t * Reg.t * int
  | Xori of Reg.t * Reg.t * int
  | Lui of Reg.t * int
  | Lw of Reg.t * int * Reg.t
  | Sw of Reg.t * int * Reg.t
  | Lb of Reg.t * int * Reg.t
  | Sb of Reg.t * int * Reg.t
  | Beq of Reg.t * Reg.t * int
  | Bne of Reg.t * Reg.t * int
  | Blez of Reg.t * int
  | Bgtz of Reg.t * int
  | Bltz of Reg.t * int
  | Bgez of Reg.t * int
  | J of int
  | Jal of int
  | Jr of Reg.t
  | Jalr of Reg.t * Reg.t
  | Lwc1 of Reg.f * int * Reg.t
  | Swc1 of Reg.f * int * Reg.t
  | Mtc1 of Reg.t * Reg.f
  | Mfc1 of Reg.t * Reg.f
  | Add_s of Reg.f * Reg.f * Reg.f
  | Sub_s of Reg.f * Reg.f * Reg.f
  | Mul_s of Reg.f * Reg.f * Reg.f
  | Div_s of Reg.f * Reg.f * Reg.f
  | Abs_s of Reg.f * Reg.f
  | Neg_s of Reg.f * Reg.f
  | Mov_s of Reg.f * Reg.f
  | Sqrt_s of Reg.f * Reg.f
  | Cvt_s_w of Reg.f * Reg.f
  | Cvt_w_s of Reg.f * Reg.f
  | C_eq_s of Reg.f * Reg.f
  | C_lt_s of Reg.f * Reg.f
  | C_le_s of Reg.f * Reg.f
  | Bc1t of int
  | Bc1f of int
  | Syscall
  | Nop

let equal = Stdlib.( = )

let is_branch = function
  | Beq _ | Bne _ | Blez _ | Bgtz _ | Bltz _ | Bgez _ | Bc1t _ | Bc1f _ ->
      true
  | Add _ | Addu _ | Sub _ | Subu _ | And _ | Or _ | Xor _ | Nor _ | Slt _
  | Sltu _ | Sll _ | Srl _ | Sra _ | Sllv _ | Srlv _ | Srav _ | Mult _
  | Div _ | Mfhi _ | Mflo _ | Addi _ | Addiu _ | Slti _ | Andi _ | Ori _
  | Xori _ | Lui _ | Lw _ | Sw _ | Lb _ | Sb _ | J _ | Jal _ | Jr _ | Jalr _
  | Lwc1 _ | Swc1 _ | Mtc1 _ | Mfc1 _ | Add_s _ | Sub_s _ | Mul_s _
  | Div_s _ | Abs_s _ | Neg_s _ | Mov_s _ | Sqrt_s _ | Cvt_s_w _ | Cvt_w_s _
  | C_eq_s _ | C_lt_s _ | C_le_s _ | Syscall | Nop ->
      false

let is_jump = function
  | J _ | Jal _ | Jr _ | Jalr _ -> true
  | _ -> false

let branch_offset = function
  | Beq (_, _, off) | Bne (_, _, off) -> Some off
  | Blez (_, off) | Bgtz (_, off) | Bltz (_, off) | Bgez (_, off) -> Some off
  | Bc1t off | Bc1f off -> Some off
  | _ -> None

let jump_target = function J t | Jal t -> Some t | _ -> None

let pp fmt i =
  let r = Reg.name and f = Reg.f_name in
  let p = Format.fprintf in
  match i with
  | Add (d, s, t) -> p fmt "add %s, %s, %s" (r d) (r s) (r t)
  | Addu (d, s, t) -> p fmt "addu %s, %s, %s" (r d) (r s) (r t)
  | Sub (d, s, t) -> p fmt "sub %s, %s, %s" (r d) (r s) (r t)
  | Subu (d, s, t) -> p fmt "subu %s, %s, %s" (r d) (r s) (r t)
  | And (d, s, t) -> p fmt "and %s, %s, %s" (r d) (r s) (r t)
  | Or (d, s, t) -> p fmt "or %s, %s, %s" (r d) (r s) (r t)
  | Xor (d, s, t) -> p fmt "xor %s, %s, %s" (r d) (r s) (r t)
  | Nor (d, s, t) -> p fmt "nor %s, %s, %s" (r d) (r s) (r t)
  | Slt (d, s, t) -> p fmt "slt %s, %s, %s" (r d) (r s) (r t)
  | Sltu (d, s, t) -> p fmt "sltu %s, %s, %s" (r d) (r s) (r t)
  | Sll (d, t, sa) -> p fmt "sll %s, %s, %d" (r d) (r t) sa
  | Srl (d, t, sa) -> p fmt "srl %s, %s, %d" (r d) (r t) sa
  | Sra (d, t, sa) -> p fmt "sra %s, %s, %d" (r d) (r t) sa
  | Sllv (d, t, s) -> p fmt "sllv %s, %s, %s" (r d) (r t) (r s)
  | Srlv (d, t, s) -> p fmt "srlv %s, %s, %s" (r d) (r t) (r s)
  | Srav (d, t, s) -> p fmt "srav %s, %s, %s" (r d) (r t) (r s)
  | Mult (s, t) -> p fmt "mult %s, %s" (r s) (r t)
  | Div (s, t) -> p fmt "div %s, %s" (r s) (r t)
  | Mfhi d -> p fmt "mfhi %s" (r d)
  | Mflo d -> p fmt "mflo %s" (r d)
  | Addi (t, s, imm) -> p fmt "addi %s, %s, %d" (r t) (r s) imm
  | Addiu (t, s, imm) -> p fmt "addiu %s, %s, %d" (r t) (r s) imm
  | Slti (t, s, imm) -> p fmt "slti %s, %s, %d" (r t) (r s) imm
  | Andi (t, s, imm) -> p fmt "andi %s, %s, %d" (r t) (r s) imm
  | Ori (t, s, imm) -> p fmt "ori %s, %s, %d" (r t) (r s) imm
  | Xori (t, s, imm) -> p fmt "xori %s, %s, %d" (r t) (r s) imm
  | Lui (t, imm) -> p fmt "lui %s, %d" (r t) imm
  | Lw (t, off, base) -> p fmt "lw %s, %d(%s)" (r t) off (r base)
  | Sw (t, off, base) -> p fmt "sw %s, %d(%s)" (r t) off (r base)
  | Lb (t, off, base) -> p fmt "lb %s, %d(%s)" (r t) off (r base)
  | Sb (t, off, base) -> p fmt "sb %s, %d(%s)" (r t) off (r base)
  | Beq (s, t, off) -> p fmt "beq %s, %s, %d" (r s) (r t) off
  | Bne (s, t, off) -> p fmt "bne %s, %s, %d" (r s) (r t) off
  | Blez (s, off) -> p fmt "blez %s, %d" (r s) off
  | Bgtz (s, off) -> p fmt "bgtz %s, %d" (r s) off
  | Bltz (s, off) -> p fmt "bltz %s, %d" (r s) off
  | Bgez (s, off) -> p fmt "bgez %s, %d" (r s) off
  | J t -> p fmt "j %d" t
  | Jal t -> p fmt "jal %d" t
  | Jr s -> p fmt "jr %s" (r s)
  | Jalr (d, s) -> p fmt "jalr %s, %s" (r d) (r s)
  | Lwc1 (ft, off, base) -> p fmt "lwc1 %s, %d(%s)" (f ft) off (r base)
  | Swc1 (ft, off, base) -> p fmt "swc1 %s, %d(%s)" (f ft) off (r base)
  | Mtc1 (t, fs) -> p fmt "mtc1 %s, %s" (r t) (f fs)
  | Mfc1 (t, fs) -> p fmt "mfc1 %s, %s" (r t) (f fs)
  | Add_s (d, s, t) -> p fmt "add.s %s, %s, %s" (f d) (f s) (f t)
  | Sub_s (d, s, t) -> p fmt "sub.s %s, %s, %s" (f d) (f s) (f t)
  | Mul_s (d, s, t) -> p fmt "mul.s %s, %s, %s" (f d) (f s) (f t)
  | Div_s (d, s, t) -> p fmt "div.s %s, %s, %s" (f d) (f s) (f t)
  | Abs_s (d, s) -> p fmt "abs.s %s, %s" (f d) (f s)
  | Neg_s (d, s) -> p fmt "neg.s %s, %s" (f d) (f s)
  | Mov_s (d, s) -> p fmt "mov.s %s, %s" (f d) (f s)
  | Sqrt_s (d, s) -> p fmt "sqrt.s %s, %s" (f d) (f s)
  | Cvt_s_w (d, s) -> p fmt "cvt.s.w %s, %s" (f d) (f s)
  | Cvt_w_s (d, s) -> p fmt "cvt.w.s %s, %s" (f d) (f s)
  | C_eq_s (s, t) -> p fmt "c.eq.s %s, %s" (f s) (f t)
  | C_lt_s (s, t) -> p fmt "c.lt.s %s, %s" (f s) (f t)
  | C_le_s (s, t) -> p fmt "c.le.s %s, %s" (f s) (f t)
  | Bc1t off -> p fmt "bc1t %d" off
  | Bc1f off -> p fmt "bc1f %d" off
  | Syscall -> p fmt "syscall"
  | Nop -> p fmt "nop"

let to_string i = Format.asprintf "%a" pp i
