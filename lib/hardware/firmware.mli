(** Firmware bundles — the paper's first deployment mode (§7.1): the
    encoded instruction image and the table contents are "loaded at the
    same time as the application code upload", i.e. shipped together as
    one flashable artifact.

    The format is a simple line-oriented text file:
    {v
      POWERCODE-FIRMWARE v1
      k <block size>
      functions <n>
      <truth-table index per supported gate>
      image <n words>
      <8-digit hex word per line>
      tt <n entries>
      <index> <E:0|1> <CT> <32 hex digits: gate index per line, line 0 first>
      bbit <n entries>
      <pc> <tt base>
      end
    v} *)

exception Parse_error of string

(** [to_string system] serialises a complete decode system. *)
val to_string : Reprogram.system -> string

(** [of_string text] rebuilds the system (fresh tables, programmed to the
    recorded contents).  Raises {!Parse_error} on malformed input, and
    nothing else: a count that exceeds the lines left, a block size below
    2, a row the TT or BBIT rejects (no identity gate, an index past the
    capacity, a gate digit past the gate set, a duplicate block pc) and a
    BBIT base with no TT entry are each a ["line N: ..."] error. *)
val of_string : string -> Reprogram.system

(** [restore_program system] statically decodes the stored image back to an
    executable program, walking the TT/BBIT exactly as the fetch hardware
    would — what the processor "sees" after decode.  Raises
    [Isa.Word.Unknown_instruction] for a restored word that encodes no
    instruction, and {!Machine.Fault.Fault} when the tables do not decode
    the image (a chain running into an unprogrammed TT entry, a block
    entered inside another). *)
val restore_program : Reprogram.system -> Isa.Program.t
