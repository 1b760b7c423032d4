(** Speedscope flamegraph export over the span tree.

    Renders span intervals (from {!Telemetry.Metrics.with_spans}) as a
    speedscope JSON document: one "evented" profile per recording
    domain, frames named by span leaf segment and deduplicated into the
    shared frame table, times in nanoseconds normalized to the earliest
    span start.  Open the result at
    {:https://www.speedscope.app} or with [speedscope profile.json].

    Children that overhang their parent by clock jitter are clamped to the
    enclosing interval, so emitted open/close events always nest and [at]
    values are non-decreasing — the invariants speedscope's importer
    checks.  No spans render an empty but schema-conforming document. *)

(** The [$schema] URL stamped into every document. *)
val schema_url : string

(** [to_string ?name spans] renders the speedscope JSON document. *)
val to_string :
  ?name:string -> Telemetry.Metrics.span_interval list -> string
