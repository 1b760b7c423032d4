(** In-order, one-instruction-per-cycle functional simulator — the
    SimpleScalar stand-in.

    The CPU executes the program's decoded instructions directly; what the
    instruction {e bus} carries for each fetch is reported through the
    [on_fetch] hook with the fetching PC, so observers can count transitions
    for the baseline image, any number of encoded images, or a full
    fetch-side decoder model, all in a single run (the dynamic PC sequence
    is the same for every faithful image). *)

type state

exception Trap of string

(** [create_state ?mem_bytes ()] is a fresh machine state: registers zero,
    [$sp] at the top of a [mem_bytes] (default 4 MiB) data memory. *)
val create_state : ?mem_bytes:int -> unit -> state

(** [reset_state s] puts [s] back to what [create_state] made it, keeping
    its memory size: integer and FP registers zero, [hi], [lo], the FP
    condition flag and the pc cleared, [$sp] at the top of memory, the
    output empty and every memory byte zero.  A run on a reset state gives
    the same result, output and memory as on a fresh one, without
    allocating a new memory (4 MiB by default).  Fault campaigns reuse
    their states across injections this way. *)
val reset_state : state -> unit

val memory : state -> Memory.t

(** [reg s r] reads an integer register (always 0 for [$zero]). *)
val reg : state -> Isa.Reg.t -> int

(** [set_reg s r v] writes an integer register; writes to [$zero] are
    ignored.  [v] is truncated to signed 32 bits. *)
val set_reg : state -> Isa.Reg.t -> int -> unit

(** [freg s r] reads a floating-point register. *)
val freg : state -> Isa.Reg.f -> float

(** [set_freg s r v] writes a floating-point register (value is rounded to
    single precision). *)
val set_freg : state -> Isa.Reg.f -> float -> unit

(** [output s] is everything the program printed via syscalls so far. *)
val output : state -> string

type result = {
  instructions : int;  (** dynamic instruction (= fetch = cycle) count *)
  exit_code : int;  (** [$a0] at the exit syscall, or 0 *)
  pc_final : int;
}

(** A memory-mapped peripheral window: word loads and stores whose byte
    address falls in [base, base+size) are routed to the handlers instead
    of data memory ([offset] is relative to [base]).  Byte accesses to the
    window trap. *)
type mmio = {
  base : int;
  size : int;
  mmio_store : offset:int -> value:int -> unit;
  mmio_load : offset:int -> int;
}

(** [run ?max_instructions ?on_fetch program state] executes from
    instruction 0 until the exit syscall ([$v0] = 10).

    Syscalls: 1 print [$a0] as integer, 2 print [$f12], 4 print the
    NUL-terminated string at [$a0], 10 exit, 11 print [$a0] as a character.

    Raises {!Trap} on unknown syscalls or on exceeding [max_instructions]
    (default 2^62, the fixed test-suite budget).  Conditions a hardened
    fetch path must classify instead raise the typed
    {!Machine.Fault.Fault} channel:

    - the PC escaping the program is {!Fault.Pc_out_of_range};
    - exceeding [max_cycles] (default unbounded; fault campaigns set it)
      is {!Fault.Cycle_limit}, which campaigns classify as a hang;
    - with [fetch_word], a delivered word that decodes to no instruction
      is {!Fault.Illegal_instruction} — never a bare [Invalid_argument]
      from the word decoder.

    [fetch_word ~pc] overrides the instruction source: the executed
    stream becomes whatever the (possibly corrupted or degraded) fetch
    path delivers for each pc, decoded word by word with a per-pc cache
    keyed on the delivered word.  Without it the program's pre-decoded
    instructions run directly, as before. *)
val run :
  ?max_instructions:int ->
  ?max_cycles:int ->
  ?on_fetch:(pc:int -> unit) ->
  ?fetch_word:(pc:int -> int) ->
  ?mmio:mmio ->
  Isa.Program.t ->
  state ->
  result
