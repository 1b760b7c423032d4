(** The global, gated event sink.

    Gated exactly like {!Telemetry.Metrics}: while {!enabled} is [false]
    (the default) every {!emit}, {!fetch} and {!bus} is a single
    load-and-branch, so the callers that record (the exported run's fetch
    hook and [Pipeline.Evaluate]'s trace sink) cost nothing in normal
    runs.  The clock is ticked only by the run being exported:
    [Pipeline.Evaluate]'s live run, or [simulate]'s fetch hook.  {!start}
    installs a fresh pre-sized ring (events beyond its capacity displace
    the oldest, so a long run exports its suffix window) and bridges
    {!Telemetry.Metrics} span exits into [Span] events for the Perfetto
    exporter; {!stop} disables recording but keeps the buffer for export.
    The session keeps each bus's running transition count and stamps it
    on every [Fetch] and [Bus] event, so totals stay exact when the ring
    wraps.

    Recording is domain-safe: pushes serialise on one mutex.  Span events
    arrive from pool worker domains; everything else is emitted by the
    simulating domain. *)

val enabled : unit -> bool

(** Default ring capacity ({!start}'s [?capacity]), 65536 events. *)
val default_capacity : int

(** [start ?capacity ()] resets the fetch clock and the running bus
    totals, installs a fresh ring and the telemetry span hook, and enables
    recording. *)
val start : ?capacity:int -> unit -> unit

(** Disable recording (and unhook telemetry).  The buffer survives for
    {!events}. *)
val stop : unit -> unit

(** [stop] plus drop the buffer and reset the fetch clock. *)
val clear : unit -> unit

(** [fetch ~pc ~word] records one dynamic instruction fetch, with the
    baseline bus transitions of the session through [word], and advances
    the trace clock by one tick.  No-op when disabled.  Call it from the
    exported run's fetch hook, before anything that stamps events with
    {!now} for that fetch. *)
val fetch : pc:int -> word:int -> unit

(** [bus ~pc ~encoded] records the current fetch's word on each encoded
    image's bus, with each image's bus transitions of the session through
    it (image [i] is the [i]th word of every [bus] call).  No-op when
    disabled. *)
val bus : pc:int -> encoded:int array -> unit

(** [emit e] appends [e].  No-op when disabled.  Call sites should guard
    with {!enabled} before constructing the event, so the disabled path
    does not allocate. *)
val emit : Event.t -> unit

(** The current fetch tick — the time to stamp non-fetch events with. *)
val now : unit -> int

(** Fetch ticks elapsed since {!start}. *)
val fetches : unit -> int

(** Buffered events, oldest first. *)
val events : unit -> Event.t list

(** Events displaced by ring wrap-around. *)
val dropped : unit -> int
