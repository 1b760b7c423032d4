(** Chrome trace-event JSON export — open the file at https://ui.perfetto.dev
    (or chrome://tracing).

    Two timelines share the document:

    - {b Spans} (pid 1): every interval in [~spans] (from
      {!Telemetry.Metrics.with_spans}) becomes a complete ("X") event
      named by its nested span path, on a track per recording domain
      (tid), with wall-clock microsecond timestamps.
    - {b The fetch stream} (pid 2): counter ("C") tracks of cumulative bus
      transitions — [transitions.baseline] plus one per encoded image —
      sampled along the run (at most [max_counter_samples] points), with
      the fetch tick as the microsecond timestamp; plus instant ("i")
      events for TT programming.  The counters are the running totals the
      collector recorded on each [Fetch] and [Bus] event, not a recount
      of the retained words, so they stay exact when the ring wrapped:
      the final baseline sample is the whole session's baseline
      transitions.

    The two clocks are different by construction (ticks are not
    nanoseconds); Perfetto renders them as separate process groups. *)

(** [to_string ~encoded_names ~spans events] — [encoded_names] label the
    counter tracks of the encoded images, in [Bus] word-array order. *)
val to_string :
  ?max_counter_samples:int -> encoded_names:string list ->
  spans:Telemetry.Metrics.span_interval list -> Event.t list -> string
