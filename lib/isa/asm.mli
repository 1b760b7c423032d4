(** Two-pass textual assembler.

    Syntax, one instruction per line:
    {v
      # comment
      loop:                     # label definition (may share a line)
        addiu $t0, $t0, -1
        lw    $t1, 4($sp)
        beq   $t0, $zero, done
        j     loop
      done:
        syscall
    v}

    Pseudo-instructions are expanded during parsing:
    - [li rd, imm] — [addiu] from [$zero], or [lui]+[ori] for wide values;
    - [la rd, imm] — alias of [li] (addresses are plain numbers here);
    - [move rd, rs] — [addu rd, rs, $zero];
    - [neg rd, rs] — [subu rd, $zero, rs];
    - [not rd, rs] — [nor rd, rs, $zero];
    - [b label] — [beq $zero, $zero, label];
    - [blt/bgt/ble/bge rs, rt, label] — [slt $at, …] plus a branch;
    - [seq/sne rd, rs, rt] — comparison into a register. *)

exception Parse_error of { line : int; message : string }

(** [parse source] assembles the text into a symbolic stream.
    Raises {!Parse_error} with a 1-based line number on bad input. *)
val parse : string -> Sym.item list

(** [assemble source] is [Program.of_items (parse source)].  Raises
    {!Parse_error}, {!Sym.Undefined_label} or {!Sym.Duplicate_label} on bad
    input. *)
val assemble : string -> Program.t

(** [describe_error exn] renders the three exceptions {!assemble} raises
    ("line 1: unknown mnemonic bogus", "undefined label nowhere",
    "duplicate label a"), [None] for foreign ones. *)
val describe_error : exn -> string option
