(** A pre-sized overwrite-oldest ring buffer.

    The trace collector and each {!Log} shard allocate their whole window
    up front, so recording is one array store and two integer bumps; once
    full, new events displace the oldest.  {!dropped} says how many were
    displaced, so exporters can state that a trace is a suffix window of
    the run. *)

type 'a t

(** [create ~capacity ~dummy] — [dummy] fills the backing array and is
    never returned by {!to_list}.  Raises on [capacity < 1]. *)
val create : capacity:int -> dummy:'a -> 'a t

val push : 'a t -> 'a -> unit

(** Oldest first; at most [capacity] elements. *)
val to_list : 'a t -> 'a list

(** Elements currently held. *)
val length : 'a t -> int

(** Total pushes since creation/clear. *)
val pushed : 'a t -> int

(** [max 0 (pushed - capacity)] — elements overwritten. *)
val dropped : 'a t -> int

val capacity : 'a t -> int
val clear : 'a t -> unit
