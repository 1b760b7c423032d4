(** The injectable-upset model: what a single-event upset can hit in the
    paper's fetch path, with deterministic seeded sampling.

    Four strike surfaces: a stored encoded-image word (persistent flip), a
    transient glitch on the instruction bus (one fetch sees one flipped
    bit, nothing stored changes), a Transformation Table entry field
    (tau index / E delimiter / CT counter), and a BBIT entry field (PC tag
    or TT base).  Campaigns sample targets from a {!space} describing one
    built decode system and {!apply} them; every draw comes from the
    caller's [Random.State], so a seed fully determines a campaign. *)

type target =
  | Image_bit of { pc : int; bit : int }
  | Bus_glitch of { fetch : int; bit : int }
      (** [fetch] is the 0-based dynamic fetch index at which the
          delivered word reads with [bit] flipped. *)
  | Tt_field of { index : int; upset : Hardware.Tt.upset }
  | Bbit_field of { slot : int; upset : Hardware.Bbit.upset }

(** The sampling space of one built system. *)
type space = {
  image_len : int;
  regions : (int * int) array;  (** encoded [(start, len)] extents *)
  tt_entries : int array;  (** programmed TT indices *)
  tt_index_bits : int;
  bbit_slots : int array;  (** programmed BBIT slots *)
  pc_bits : int;  (** stored PC tag width *)
  fetches : int;  (** dynamic fetch count, bounds glitch timing *)
}

(** [space system ~regions ~fetches] reads the sampling space off a built
    system ([regions] from {!Hardware.Reprogram.recovery}). *)
val space :
  Hardware.Reprogram.system -> regions:(int * int) array -> fetches:int ->
  space

(** [sample rng s] draws one target: uniform over the present upset kinds,
    then uniform within the kind (image flips are biased so half land
    inside encoded regions).  Raises [Invalid_argument] on an empty
    space. *)
val sample : Random.State.t -> space -> target

(** [label t] is the target's stable slug (e.g. ["tt:3:tau:12:1"],
    ["bus:8812:17"]) used in reports and the [fault.injection] log
    event. *)
val label : target -> string

(** [apply system t] injects the upset into the live system (bumps
    [fault.injections]).  For
    {!Bus_glitch} nothing stored changes — the campaign splices the flip
    into the fetch stream instead. *)
val apply : Hardware.Reprogram.system -> target -> unit
