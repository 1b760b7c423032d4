(** Abstract syntax of Minic, the small C-like language the benchmark
    kernels are written in (the gcc/PISA substitute).

    Minic has [int] and [float] scalars, global 1-D/2-D arrays, functions
    with value parameters, and the usual statement forms.  That is exactly
    enough to express the paper's six kernels the way their C sources are
    written. *)

type scalar = Tint | Tfloat

type typ =
  | Scalar of scalar
  | Void

(** Expression types as inferred by the checker. *)
type etyp = Eint | Efloat

type binop =
  | Add | Sub | Mul | Dvd | Mod
  | Eq | Ne | Lt | Le | Gt | Ge
  | Land | Lor

type unop = Neg | Lnot

type lvalue = {
  base : string;
  indices : expr list;  (** [] scalar, [i] 1-D, [i; j] 2-D *)
  lv_line : int;
}

and expr = {
  desc : expr_desc;
  line : int;
  mutable ety : etyp option;  (** filled by the typechecker *)
}

and expr_desc =
  | Int_lit of int
  | Float_lit of float
  | Lval of lvalue
  | Binop of binop * expr * expr
  | Unop of unop * expr
  | Call of string * expr list
  | Cast_float of expr  (** [itof e] *)
  | Cast_int of expr  (** [ftoi e], truncating *)

type stmt =
  | Assign of lvalue * expr
  | If of expr * block * block option
  | While of expr * block
  | For of stmt option * expr option * stmt option * block
  | Return of expr option * int  (** line *)
  | Break of int  (** line *)
  | Continue of int  (** line *)
  | Expr_stmt of expr  (** calls for effect *)
  | Block of block

and block = { decls : (scalar * string * int) list; stmts : stmt list }

type global = {
  g_type : scalar;
  g_name : string;
  g_dims : int list;  (** [] scalar, [n] 1-D, [n; m] 2-D *)
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

val binop_to_string : binop -> string
