(** Value Change Dump export of a trace — the 32 bus lines of the baseline
    image and of each encoded image as waveforms, plus one-bit pulse wires
    for the discrete events (block entries, BBIT hits, decodes, TT
    programming), viewable in GTKWave or Surfer.

    Time is the trace's fetch tick (declared as [1 ns] per tick, since VCD
    has no "instruction" unit).  Multi-bit wires hold their value until the
    next change; pulse wires are high exactly at ticks where the event
    fired.  Pulse wires are declared only when the trace contains the
    corresponding event, so a plain simulation trace is just the baseline
    bus. *)

(** [to_string ~encoded_names events] renders a VCD document.
    [encoded_names] label the per-image wires, in the order of the [Bus]
    events' word arrays (e.g. [["k4"; "k5"; "k6"; "k7"]]); images beyond
    the list are dropped.  [Span] events do not appear (wall-clock does not
    fit the tick timeline; use {!Perfetto}). *)
val to_string : ?date:string -> encoded_names:string list -> Event.t list -> string

(** {1 Round-trip parser}

    A deliberately small reader of the subset this module writes (plus
    ordinary VCD whitespace freedom) — enough for the test suite to prove
    a generated dump parses back to the recorded words, and for quick
    greps of a dump's structure. *)

type var = { id : string; name : string; width : int }

type parsed = {
  timescale : string;
  vars : var list;  (** declaration order *)
  changes : (int * (string * int) list) list;
      (** ascending time; per time, (var id, new value) in emission order *)
}

exception Parse_error of string

val parse : string -> parsed

(** [changes_for p ~name] — the (time, value) change points of the wire
    declared as [name], ascending.  Raises [Not_found] on unknown names. *)
val changes_for : parsed -> name:string -> (int * int) list
