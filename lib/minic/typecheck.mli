(** Type checking and annotation.

    Minic's rules: [int] and [float] scalars; arithmetic over mixed
    operands promotes the [int] side to [float]; [%], [&&], [||] and [!]
    are integer-only; comparisons yield [int]; assigning [float] to [int]
    requires the explicit [ftoi] intrinsic; array indices are [int] and the
    index count must match the declared dimensionality.

    Intrinsics: [print_int(int)], [print_float(float)], [print_char(int)]
    (all void); [fabs(float)->float]; [sqrtf(float)->float];
    [itof(int)->float]; [ftoi(float)->int].

    [check] mutates every expression's [ety] field; code generation relies
    on those annotations. *)

exception Type_error of { line : int; message : string }

(** [check program] validates the program (including the presence of an
    [int main()] or [void main()] taking no parameters). *)
val check : Ast.program -> unit
