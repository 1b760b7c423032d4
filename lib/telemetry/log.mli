(** Structured, leveled event log with run/span correlation.

    The third observability pillar next to {!Metrics} (aggregates) and the
    trace collector (per-fetch streams): discrete, schema-stable events
    for the decisions the system otherwise makes silently — plan-cache
    hits, per-region scheme choices, fault classifications, pool worker
    lifecycle.

    Collection is globally gated like metrics: while {!enabled} is [false]
    (the default) {!emit} is a load-and-branch no-op.  Hot call sites
    should still guard field-list construction with [if Log.enabled ()]
    so the arguments are never even allocated.

    Events land in per-domain bounded ring buffers (no cross-domain
    contention on the hot path; a full ring drops the oldest event and
    counts the drop).  {!events} merges and time-orders all rings without
    consuming them.

    Every serialized line carries the run-scoped {!run_id}, and events
    emitted inside a {!Metrics.with_span} extent carry the enclosing span
    path, so log lines, sampler series and speedscope profiles are
    cross-referenceable by ID. *)

type level = Debug | Info | Warn | Error

val level_name : level -> string

(** [level_of_name s] inverts {!level_name}; [None] for unknown names. *)
val level_of_name : string -> level option

(** [level_rank l] orders levels by severity: [Debug] is 0, [Error] 3. *)
val level_rank : level -> int

(** Typed field values.  JSON distinguishes all four on the wire:
    [Float] always serializes with a decimal point or exponent, so
    encode/parse round-trips preserve the constructor. *)
type value = Int of int | Float of float | Str of string | Bool of bool

type event = {
  seq : int;  (** per-domain emission index, for stable tie-breaking *)
  t_ns : float;  (** {!Metrics.now_ns} at emission *)
  domain : int;  (** recording domain id *)
  level : level;
  stability : Metrics.stability;
      (** [Stable] events have seq-vs-parallel-identical multisets of
          [(level, event, span, fields)] — the contract
          [test/test_differential.ml] enforces *)
  event : string;  (** dotted slug, e.g. [plan.cache_hit] *)
  span : string option;  (** enclosing span path at emission, if any *)
  fields : (string * value) list;
}

val enabled : unit -> bool
val set_enabled : bool -> unit

(** Minimum severity retained; events below it are dropped at emission.
    Default [Debug] (keep everything). *)
val set_level : level -> unit

val min_level : unit -> level

(** The run-scoped correlation id every serialized line carries.
    Initialised once per process from the pid and the clock; {!set_run_id}
    pins it (tests, or a caller threading an external request id). *)
val run_id : unit -> string

val set_run_id : string -> unit

(** [emit ?stability lvl slug fields] records one event (default
    stability [Stable]).  No-op while disabled or below {!min_level}. *)
val emit :
  ?stability:Metrics.stability ->
  level ->
  string ->
  (string * value) list ->
  unit

val debug :
  ?stability:Metrics.stability -> string -> (string * value) list -> unit

val info :
  ?stability:Metrics.stability -> string -> (string * value) list -> unit

val warn :
  ?stability:Metrics.stability -> string -> (string * value) list -> unit

val error :
  ?stability:Metrics.stability -> string -> (string * value) list -> unit

(** [events ()] merges every domain ring, ordered by [(t_ns, domain,
    seq)].  Non-destructive, like {!Metrics.freeze}. *)
val events : unit -> event list

(** [clear ()] empties the rings and zeroes the cumulative counts. *)
val clear : unit -> unit

(** [set_capacity n] bounds each per-domain ring at [n] events (default
    8192) and clears existing state. *)
val set_capacity : int -> unit

(** Cumulative counts since the last {!clear}, independent of ring
    retention: total emitted, total dropped (ring overflow), per-level and
    per-slug breakdowns (sorted by name). *)
val emitted : unit -> int

val dropped : unit -> int
val by_level : unit -> (string * int) list
val by_event : unit -> (string * int) list

(** [to_json e] is one self-contained JSONL line carrying the current
    {!run_id}.  [of_json line] parses it back as [(run_id, event)];
    [Error] says what is malformed or missing, and no other exception
    escapes.  The pair round-trips exactly, including float fields. *)
val to_json : event -> string

val of_json : string -> (string * event, string) result

(** Canonical key for seq-vs-parallel multiset comparison: level, slug,
    span and fields — everything except the wall clock, the recording
    domain and the per-domain seq. *)
val stable_key : event -> string
