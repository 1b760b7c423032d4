(** Per-region encoding-scheme selection for the fetch path: the
    auto-selector that weighs the paper's TT against word-at-a-time codes.

    Its functions are pure functions of the encoded regions, the recorded
    fetch counts, the measured mixed-bus totals and the energy model,
    apart from the [scheme.region] and [scheme.commit] log events. *)

(** [`Tt] (default): every encoded region uses the paper's TT scheme —
    byte-identical behaviour and reports to previous versions.  [`Auto]:
    each encoded region is scored against every registered word-at-a-time
    {!Buspower.Encoder} backend through the energy model (the [ledger]
    model when one is passed, {!Ledger.Model.on_chip} otherwise) and takes
    the cheapest, TT winning ties; the mixed bus (data plus the chosen
    backends' redundant lines) is then accounted {e exactly} — by a live
    run when some region left TT, and as the TT bus itself when none did —
    and a selection that measured worse than all-TT is discarded
    ([reverted]), so auto never reports higher energy than TT.
    [`Fixed name]: force every encoded region to backend [name] (["tt"]
    included), bypassing the scoring and the commit rule — the report
    carries honest numbers even when the override measures worse than TT;
    unknown or non-fetch-path names (a [latency_words > 0] backend such as
    the streaming TT, or one not covering 32 lines) raise
    [Invalid_argument].  Selection is deterministic: scores are pure
    functions of the plan and model, and backend registration order breaks
    ties. *)
type t = [ `Tt | `Auto | `Fixed of string ]

(** [of_string s] parses a scheme name: ["tt"], ["auto"], or a fetch-path
    backend, which it reads as [`Fixed].  Any other name is an [Error]
    naming the accepted ones — exactly the names {!Evaluate.evaluate}
    accepts without raising. *)
val of_string : string -> (t, string) result

type region_choice = {
  rc_start : int;  (** instruction index of the encoded region head *)
  rc_len : int;  (** words actually stored encoded *)
  rc_weight : int;  (** dynamic execution count *)
  rc_scheme : string;  (** ["tt"] or a registered backend name *)
}

(** One block size's committed selection. *)
type run = {
  srun_k : int;
  choices : region_choice list;
  scheme_counts : (string * int) list;  (** scheme -> regions, ["tt"] first *)
  auto_transitions : int;
      (** exact bus transitions (data + redundant lines) under the
          committed selection *)
  auto_reduction_pct : float;  (** versus the baseline image *)
  auto_energy_j : float;
      (** bus energy + side-table reads + one-time table writes under the
          committed selection; never exceeds [tt_energy_j] under [`Auto]
          (a [`Fixed] override may report worse) *)
  tt_energy_j : float;  (** the same accounting with every region TT *)
  reverted : bool;  (** [`Auto] commit rule fell back to all-TT *)
}

type backend = (module Buspower.Encoder.S)

(** What a scheme weighs per region: a scored choice among the fetch-path
    backends (TT unless one is strictly cheaper), or one backend forced
    onto every region. *)
type selector = [ `Choose of backend list | `Force of backend ]

(** [resolve scheme] is [None] when every region stays TT ([`Tt],
    [`Fixed "tt"]); it raises [Invalid_argument] on a name {!of_string}
    rejects. *)
val resolve : t -> selector option

(** One encoded region of one plan. *)
type region = {
  rg_start : int;  (** instruction index of the region head *)
  rg_len : int;  (** words stored encoded *)
  rg_weight : int;  (** dynamic execution count of the block *)
  rg_tt_static : int;  (** stored-image transitions of one traversal *)
}

(** [select sel ~model ~words ~ks regions] picks, per image [v] (block
    size [ks.(v)]) and region, the backend that replaces TT there, [None]
    where TT stays.  Each region is logged as one [scheme.region] event
    carrying every candidate's score. *)
val select :
  selector ->
  model:Ledger.Model.t ->
  words:int array ->
  ks:int array ->
  region array array ->
  backend option array array

(** [mixed_bus ~images ~region_of_pc picks] is the fetch hook of the live
    run that counts the mixed bus, and the per-image totals it fills:
    inside a region whose pick left TT, that backend's stateful encoder
    drives the data and redundant lines; every other fetch drives the
    stored image while the redundant lines hold.  [region_of_pc.(v).(pc)]
    is the index of the region of image [v] holding [pc], or [-1]. *)
val mixed_bus :
  images:int array array ->
  region_of_pc:int array array ->
  backend option array array ->
  (int -> int -> unit) * int array

(** [runs sel ~model ~profile ~ks ~totals ~mixed ~reduction_pct regions
    picks] prices each image's selection against all-TT from the recorded
    fetch counts, the TT bus [totals] and the [mixed] bus, applies the
    commit rule, logs one [scheme.commit] event per image, and returns
    one {!run} per image. *)
val runs :
  selector ->
  model:Ledger.Model.t ->
  profile:Cfg.Profile.t ->
  ks:int array ->
  totals:int array ->
  mixed:int array ->
  reduction_pct:(int -> float) ->
  region array array ->
  backend option array array ->
  run list
