type scalar = Tint | Tfloat
type typ = Scalar of scalar | Void
type etyp = Eint | Efloat

type binop =
  | Add | Sub | Mul | Dvd | Mod
  | Eq | Ne | Lt | Le | Gt | Ge
  | Land | Lor

type unop = Neg | Lnot

type lvalue = { base : string; indices : expr list; lv_line : int }

and expr = { desc : expr_desc; line : int; mutable ety : etyp option }

and expr_desc =
  | Int_lit of int
  | Float_lit of float
  | Lval of lvalue
  | Binop of binop * expr * expr
  | Unop of unop * expr
  | Call of string * expr list
  | Cast_float of expr
  | Cast_int of expr

type stmt =
  | Assign of lvalue * expr
  | If of expr * block * block option
  | While of expr * block
  | For of stmt option * expr option * stmt option * block
  | Return of expr option * int
  | Break of int
  | Continue of int
  | Expr_stmt of expr
  | Block of block

and block = { decls : (scalar * string * int) list; stmts : stmt list }

type global = {
  g_type : scalar;
  g_name : string;
  g_dims : int list;
  g_line : int;
}

type func = {
  f_ret : typ;
  f_name : string;
  f_params : (scalar * string) list;
  f_body : block;
  f_line : int;
}

type program = { globals : global list; funcs : func list }

let binop_to_string = function
  | Add -> "+"
  | Sub -> "-"
  | Mul -> "*"
  | Dvd -> "/"
  | Mod -> "%"
  | Eq -> "=="
  | Ne -> "!="
  | Lt -> "<"
  | Le -> "<="
  | Gt -> ">"
  | Ge -> ">="
  | Land -> "&&"
  | Lor -> "||"
