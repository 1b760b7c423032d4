(** In-order, one-instruction-per-cycle functional simulator — the
    SimpleScalar stand-in.

    The CPU runs each program as one closure per instruction, built when
    {!run} starts (see there); what the instruction {e bus} carries for
    each fetch is reported through the [on_fetch] hook with the fetching
    PC, so observers can count transitions for the baseline image, any
    number of encoded images, or a full fetch-side decoder model, all in a
    single run (the dynamic PC sequence is the same for every faithful
    image). *)

type state

exception Trap of string

(** [create_state ?mem_bytes ()] is a fresh machine state: registers zero,
    [$sp] at the top of a [mem_bytes] (default 4 MiB) data memory.  The
    memory is paged (see {!Memory}), so a state costs a small page
    directory, and a run on it pays for the pages it writes, not for
    [mem_bytes]: the scaled workload programs write two to four 4 KiB
    pages, the paper-sized ones at most 66. *)
val create_state : ?mem_bytes:int -> unit -> state

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

    Before the first fetch, [run] compiles each instruction of [program]
    into a closure that executes it on [state] and returns the next pc,
    with its register indices, immediates and branch targets already
    resolved; the loop then only fetches and calls.  What does not change
    during a run is decided when it starts: whether word loads and stores
    test the [mmio] window at all, and whether the trace collector is on
    ({!Trace.Collector.enabled} is read once, so a collector started by a
    hook mid-run sees none of that run's fetches).

    Each fetch does, in this order: the pc range check, the
    [max_instructions] and [max_cycles] checks, the trace tick, the
    [on_fetch] hook, the count, then the instruction.

    Syscalls: 1 print [$a0] as integer, 2 print [$f12], 4 print the
    NUL-terminated string at [$a0], 10 exit, 11 print [$a0] as a character.

    Raises {!Trap} on unknown syscalls or on exceeding [max_instructions]
    (default 2^62, the fixed test-suite budget).  Conditions a hardened
    fetch path must classify instead raise the typed
    {!Machine.Fault.Fault} channel:

    - the PC escaping the program is {!Fault.Pc_out_of_range};
    - exceeding [max_cycles] (default unbounded; fault campaigns set it)
      is {!Fault.Cycle_limit}, which campaigns classify as a hang; when
      both limits are reached at the same fetch the budget's {!Trap}
      wins;
    - with [fetch_word], a delivered word that decodes to no instruction
      is {!Fault.Illegal_instruction} — never a bare [Invalid_argument]
      from the word decoder.

    [fetch_word ~pc] overrides the instruction source: the executed
    stream becomes whatever the (possibly corrupted or degraded) fetch
    path delivers for each pc.  The program is then not compiled up
    front; a per-pc cache holds the last delivered word and its closure,
    and a pc is compiled again whenever its delivered word changes. *)
val run :
  ?max_instructions:int ->
  ?max_cycles:int ->
  ?on_fetch:(pc:int -> unit) ->
  ?fetch_word:(pc:int -> int) ->
  ?mmio:mmio ->
  Isa.Program.t ->
  state ->
  result
