(** Memoized code tables for the chain encoder.

    A chained block differs from a standalone one: its first (overlap) bit
    already carries an encoded value fixed by the previous block, so the
    admissible codes are those whose first bit equals that value, and the
    first decode link seeds from it.  The tables below cache, per block size
    and transformation subset, the best chained code for every
    (overlap-encoded-bit, original-word) pair, both unconditionally and per
    required outgoing boundary bit (for the exact dynamic-programming
    encoder). *)

type t

type choice = {
  code : int;  (** chosen code word, bit 0 = the fixed overlap bit *)
  tau : Boolfun.t;
  cost : int;  (** transitions within [code], including the overlap link *)
}

(** [get ?subset_mask ~k ()] is the (cached) table for blocks of [k] bits.
    [subset_mask] defaults to all 16 transformations and must contain the
    identity.  Raises [Invalid_argument] for [k] outside [1..16]. *)
val get : ?subset_mask:int -> k:int -> unit -> t

val k : t -> int
val subset_mask : t -> int

(** [chained_best t ~b_in ~word] is the minimum-transition chained code for
    original [word] when the overlap bit is stored as [b_in].  A solution
    always exists: the identity ignores history, so the code equal to
    [word] with bit 0 replaced by [b_in] is always feasible. *)
val chained_best : t -> b_in:bool -> word:int -> choice

(** [chained_rows t] is [(row for b_in:false, row for b_in:true)], each
    indexed by original word: entry [word] of a row equals [chained_best t
    ~b_in ~word].  The arrays alias the table's own storage and must be
    treated as read-only.  The chain encode hot loop fetches both rows once
    per stream and indexes per block, keeping calls, range checks and
    allocation out of the loop. *)
val chained_rows : t -> choice array * choice array

(** [chained_best_out t ~b_in ~word ~b_out] constrains additionally the
    {e last} encoded bit of the block to [b_out]; [None] when infeasible. *)
val chained_best_out : t -> b_in:bool -> word:int -> b_out:bool -> choice option

(** [standalone t ~word] is the standalone solution (first bit passes
    through) expressed as a {!choice}. *)
val standalone : t -> word:int -> choice
