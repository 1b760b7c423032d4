module Log = Telemetry.Log

type t = [ `Tt | `Auto | `Fixed of string ]

type region_choice = {
  rc_start : int;
  rc_len : int;
  rc_weight : int;
  rc_scheme : string;
}

type run = {
  srun_k : int;
  choices : region_choice list;
  scheme_counts : (string * int) list;
  auto_transitions : int;
  auto_reduction_pct : float;
  auto_energy_j : float;
  tt_energy_j : float;
  reverted : bool;
}

(* Only word-at-a-time backends covering the full 32-line bus qualify as
   fetch-path alternatives: a backend with [latency_words > 0] (the
   streaming TT) would stall fetch waiting for lookahead — the paper's TT
   gets its lookahead offline, through the stored image, which is the
   form the pipeline already implements.  Region membership detection is
   the BBIT's existing job, so a per-region decoder knows when to apply
   its scheme, exactly as the TT regions do. *)

type backend = (module Buspower.Encoder.S)

let name b =
  let module B = (val b : Buspower.Encoder.S) in
  B.scheme

let fetch_path_backends () =
  Buspower.Backends.ensure ();
  List.filter
    (fun b ->
      let module B = (val b : Buspower.Encoder.S) in
      B.max_width >= 32
      && (B.cost ~width:32).Buspower.Encoder.latency_words = 0)
    (Buspower.Encoder.all ())

let fetch_path_backend s =
  let eligible = fetch_path_backends () in
  match List.find_opt (fun b -> String.equal (name b) s) eligible with
  | Some b -> Ok b
  | None ->
      Error
        (Printf.sprintf
           "%S is not a fetch-path scheme (want tt, auto, or one of: %s)" s
           (String.concat ", " (List.map name eligible)))

let of_string = function
  | "tt" -> Ok `Tt
  | "auto" -> Ok `Auto
  | s -> Result.map (fun _ -> `Fixed s) (fetch_path_backend s)

type selector = [ `Choose of backend list | `Force of backend ]

let resolve = function
  | `Tt | `Fixed "tt" -> None
  | `Auto -> Some (`Choose (fetch_path_backends ()))
  | `Fixed s -> (
      match fetch_path_backend s with
      | Ok b -> Some (`Force b)
      | Error msg -> invalid_arg ("Pipeline.Evaluate: " ^ msg))

type region = {
  rg_start : int;
  rg_len : int;
  rg_weight : int;
  rg_tt_static : int;
}

(* A backend's side-table energy over [fetches] fetches of its regions:
   the per-fetch table reads plus the one-time table programming. *)
let side_j ~model ~fetches b =
  let module B = (val b : Buspower.Encoder.S) in
  let c = B.cost ~width:32 in
  (float_of_int (fetches * c.Buspower.Encoder.reads_per_fetch)
   *. model.Ledger.Model.tt_read_j)
  +. (float_of_int ((c.Buspower.Encoder.table_bits + 31) / 32)
     *. model.Ledger.Model.table_write_j)

(* Conservative static score, in joules per program run: weighted encoded
   stream transitions (plus a worst-case full-bus seam each traversal for
   non-incumbent schemes), per-fetch side-table reads, and the one-time
   table programming.  Deterministic: ties and near-ties keep TT, and
   among alternatives the first strictly-better backend in registration
   order wins.  Returns the winner (None = keep TT) together with every
   candidate's score, TT first — the event log records the full slate so
   a choice can be audited without rescoring. *)
let choose_backend ~alts ~model ~per_t ~words rg =
  let fl = float_of_int in
  let w = fl rg.rg_weight in
  let tt_score =
    (w *. fl rg.rg_tt_static *. per_t)
    +. (w *. fl rg.rg_len *. model.Ledger.Model.tt_read_j)
  in
  let body = Array.sub words rg.rg_start rg.rg_len in
  let best = ref None and best_score = ref tt_score in
  let scores = ref [ ("tt", tt_score) ] in
  List.iter
    (fun b ->
      let module B = (val b : Buspower.Encoder.S) in
      let t = Buspower.Encoder.stream_transitions b ~width:32 body in
      let seam = 32 + B.aux_width ~width:32 in
      let score =
        (w *. fl (t + seam) *. per_t)
        +. side_j ~model ~fetches:(rg.rg_weight * rg.rg_len) b
      in
      scores := (B.scheme, score) :: !scores;
      if score < !best_score then begin
        best := Some b;
        best_score := score
      end)
    alts;
  (!best, List.rev !scores)

let per_transition model =
  Buspower.Energy.per_transition model.Ledger.Model.bus

let select sel ~model ~words ~ks regions =
  let per_t = per_transition model in
  let pick ~k rg =
    let winner, scores, forced =
      match sel with
      | `Force b -> (Some b, [], true)
      | `Choose alts ->
          let winner, scores =
            choose_backend ~alts ~model ~per_t ~words rg
          in
          (winner, scores, false)
    in
    (* one event per region: the scored slate, the winner, and whether
       the choice was forced rather than scored *)
    if Log.enabled () then
      Log.info "scheme.region"
        ([
           ("k", Log.Int k);
           ("start", Log.Int rg.rg_start);
           ("len", Log.Int rg.rg_len);
           ("weight", Log.Int rg.rg_weight);
           ( "winner",
             Log.Str (match winner with None -> "tt" | Some b -> name b) );
           ("forced", Log.Bool forced);
         ]
        @ List.map (fun (s, v) -> ("cost_" ^ s, Log.Float v)) scores);
    winner
  in
  Array.mapi (fun v rgs -> Array.map (pick ~k:ks.(v)) rgs) regions

let mixed_bus ~images ~region_of_pc picks =
  let nimg = Array.length images in
  let step b =
    let module B = (val b : Buspower.Encoder.S) in
    let e = B.encoder ~width:32 in
    fun w ->
      match B.encode e w with
      | [ cw ] -> cw
      | _ -> failwith "Pipeline.Scheme: latency-0 backend emitted <> 1 codeword"
  in
  let steps = Array.map (Array.map (Option.map step)) picks in
  let totals = Array.make nimg 0 in
  let prev_data = Array.make nimg 0 and prev_aux = Array.make nimg 0 in
  let primed = ref false in
  let fetch pc w =
    for v = 0 to nimg - 1 do
      let data = ref images.(v).(pc) and aux = ref prev_aux.(v) in
      let r = region_of_pc.(v).(pc) in
      (if r >= 0 then
         match steps.(v).(r) with
         | Some step ->
             let cw = step w in
             data := cw.Buspower.Encoder.data;
             aux := cw.Buspower.Encoder.aux
         | None -> ());
      if !primed then
        totals.(v) <-
          totals.(v)
          + Bitutil.Popcount.count32 (!data lxor prev_data.(v))
          + Bitutil.Popcount.count32 (!aux lxor prev_aux.(v));
      prev_data.(v) <- !data;
      prev_aux.(v) <- !aux
    done;
    primed := true
  in
  (fetch, totals)

let runs sel ~model ~profile ~ks ~totals ~mixed ~reduction_pct regions picks =
  let fl = float_of_int in
  let per_t = per_transition model in
  let tt_read_j = model.Ledger.Model.tt_read_j in
  let names = "tt" :: List.map name (fetch_path_backends ()) in
  let region_fetches rg =
    let n = ref 0 in
    for pc = rg.rg_start to rg.rg_start + rg.rg_len - 1 do
      n := !n + Cfg.Profile.instruction_count profile pc
    done;
    !n
  in
  let run v k =
    let rgs = regions.(v) and picks_v = picks.(v) in
    let tt_fetches = ref 0 and alt_fetches = ref 0 in
    let alt_side_j = ref 0.0 in
    Array.iteri
      (fun ri rg ->
        let fetches = region_fetches rg in
        match picks_v.(ri) with
        | None -> tt_fetches := !tt_fetches + fetches
        | Some b ->
            alt_fetches := !alt_fetches + fetches;
            alt_side_j := !alt_side_j +. side_j ~model ~fetches b)
      rgs;
    let tt_energy_j =
      (fl totals.(v) *. per_t) +. (fl (!tt_fetches + !alt_fetches) *. tt_read_j)
    in
    let auto_energy_j =
      (fl mixed.(v) *. per_t) +. (fl !tt_fetches *. tt_read_j) +. !alt_side_j
    in
    (* Commit rule: an [`Auto] selection that measured worse than all-TT
       is discarded, so auto never reports higher energy than TT.  A
       [`Fixed] override is honoured as-is and reports honest (possibly
       worse) numbers. *)
    let reverted =
      (match sel with `Choose _ -> true | `Force _ -> false)
      && auto_energy_j > tt_energy_j
    in
    if Log.enabled () then
      Log.info "scheme.commit"
        [
          ("k", Log.Int k);
          ("auto_energy_j", Log.Float auto_energy_j);
          ("tt_energy_j", Log.Float tt_energy_j);
          ("reverted", Log.Bool reverted);
        ];
    let choice_of ri rg =
      {
        rc_start = rg.rg_start;
        rc_len = rg.rg_len;
        rc_weight = rg.rg_weight;
        rc_scheme =
          (match picks_v.(ri) with
          | Some b when not reverted -> name b
          | _ -> "tt");
      }
    in
    let choices = Array.to_list (Array.mapi choice_of rgs) in
    let count s =
      List.length (List.filter (fun c -> String.equal c.rc_scheme s) choices)
    in
    let auto_transitions = if reverted then totals.(v) else mixed.(v) in
    {
      srun_k = k;
      choices;
      scheme_counts =
        List.filter
          (fun (s, n) -> n > 0 || String.equal s "tt")
          (List.map (fun s -> (s, count s)) names);
      auto_transitions;
      auto_reduction_pct = reduction_pct auto_transitions;
      auto_energy_j = (if reverted then tt_energy_j else auto_energy_j);
      tt_energy_j;
      reverted;
    }
  in
  Array.to_list (Array.mapi run ks)
