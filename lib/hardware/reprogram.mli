(** Assembling and (re)programming a complete decode system from an
    encoding plan — the paper's two deployment modes: tables loaded
    together with the firmware image, or written by software through a
    peripheral interface just before entering the hot loop. *)

type system = {
  tt : Tt.t;
  bbit : Bbit.t;
  image : int array;  (** stored instruction memory: encoded regions patched *)
  k : int;
}

exception Does_not_fit of string

(** [stored_image ?tt_capacity ?bbit_capacity program plan] is
    [(image, writes)]: the program's words with each encoded placement's
    rows patched in, and the TT plus BBIT writes that program the plan's
    tables.  Both are fixed offline, with the firmware, so they are read
    off the plan with no hardware model; they equal [(build ...).image]
    and {!programming_writes}[ (build ...)] for the same arguments.
    Raises {!Does_not_fit} under exactly the conditions {!build} does.

    Every figure of an evaluation that does not run decoders is a function
    of these two, so [Pipeline.Evaluate.evaluate] builds no system unless
    it verifies (decoders on every fetch); a trace reads the TT writes off
    the plan too. *)
val stored_image :
  ?tt_capacity:int ->
  ?bbit_capacity:int ->
  Isa.Program.t ->
  Powercode.Program_encoder.plan ->
  int array * int

(** [build ?tt_capacity ?bbit_capacity ?functions program plan] lays the
    plan onto concrete hardware: the {!stored_image}, the TT entries loaded
    at each placement's base and the BBIT filled.  Raises {!Does_not_fit}
    when the plan needs more table space than the hardware has, and
    [Invalid_argument] if a planned transformation is not a supported
    gate.  Decoders, fault campaigns, the firmware writer and the
    peripheral script read a built system. *)
val build :
  ?tt_capacity:int ->
  ?bbit_capacity:int ->
  ?functions:Powercode.Boolfun.t array ->
  Isa.Program.t ->
  Powercode.Program_encoder.plan ->
  system

(** [decoder ?recovery system] is a fresh fetch-side decoder over the
    system — strict by default; pass [recovery] (from {!recovery}, derived
    while the system was pristine) for a gracefully-degrading one. *)
val decoder : ?recovery:Fetch_decoder.recovery -> system -> Fetch_decoder.t

(** [recovery system] derives the firmware-known degradation metadata from
    the system's current state: per-BBIT-slot region extents from the TT
    E/CT chains, and the raw program words from an address-order decode of
    the image.  Call it {e before} injecting corruption — it is the
    pristine copy the fallback path serves. *)
val recovery : system -> Fetch_decoder.recovery

(** [programming_writes system] is the total number of peripheral writes
    used to program both tables — the volume of the software-reprogramming
    traffic executed before entering the loop. *)
val programming_writes : system -> int
