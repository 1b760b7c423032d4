module Campaign = Fault.Campaign
module Model = Fault.Model
module Chain = Powercode.Chain
module Bitvec = Bitutil.Bitvec

let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)
let check_bool = Alcotest.(check bool)

let bench name = Workloads.by_name (Workloads.scaled @ Workloads.extended) name

let small_config =
  {
    Campaign.seed = 9;
    injections = 24;
    ks = [ 4; 5 ];
    benches = [ bench "tri"; bench "ej" ];
  }

(* ---- campaign ------------------------------------------------------------- *)

let with_env key value f =
  let saved = Sys.getenv_opt key in
  Unix.putenv key value;
  Fun.protect
    ~finally:(fun () -> Unix.putenv key (Option.value saved ~default:""))
    f

(* The tentpole differential: a campaign fanned out over the domain pool
   must render byte-for-byte the same classification JSON as the forced
   sequential path, for every seed.  QCheck draws seeds from 0..7 (the
   documented acceptance range); an empty-string restore behaves as unset
   because Parpool rejects it and falls back to the default width. *)
let prop_seq_par_identical =
  QCheck.Test.make ~name:"POWERCODE_SEQ=1 = two-domain campaign, seeds 0..7"
    ~count:8
    QCheck.(int_range 0 7)
    (fun seed ->
      let config = { small_config with Campaign.seed } in
      let seq_json =
        with_env "POWERCODE_SEQ" "1" (fun () ->
            Campaign.to_json (Campaign.run config))
      in
      let par_json =
        with_env "POWERCODE_SEQ" "0" (fun () ->
            with_env "POWERCODE_DOMAINS" "2" (fun () ->
                Campaign.to_json (Campaign.run config)))
      in
      String.equal seq_json par_json)

let test_campaign_deterministic () =
  let a = Campaign.run small_config in
  let b = Campaign.run small_config in
  check_string "bit-identical JSON" (Campaign.to_json a) (Campaign.to_json b)

(* The plan cache changes no result: a campaign planned from an empty
   cache, one served from the warm cache and one planned with the cache
   off render the same bytes. *)
let test_campaign_without_plan_cache () =
  let module Cache = Pipeline.Evaluate.Plan_cache in
  let config =
    {
      Campaign.seed = 7;
      injections = 8;
      ks = [ 4; 5 ];
      benches = [ bench "tri"; bench "ej" ];
    }
  in
  let json () = Campaign.to_json (Campaign.run config) in
  Cache.clear ();
  let cold = json () in
  let warm = json () in
  let uncached =
    Cache.set_enabled false;
    Fun.protect ~finally:(fun () -> Cache.set_enabled true) json
  in
  check_string "warm cache" cold warm;
  check_string "cache off" cold uncached

(* Nothing one campaign leaves behind reaches the next: campaigns back to
   back, and a switch of seed and back, must each render what the first
   campaign at that seed rendered. *)
let test_campaign_state_reuse () =
  let run seed = Campaign.to_json (Campaign.run { small_config with seed }) in
  let first_9 = run 9 in
  check_string "seed 9 again" first_9 (run 9);
  let first_10 = run 10 in
  check_string "back to seed 9" first_9 (run 9);
  check_string "seed 10 again" first_10 (run 10)

let test_campaign_seed_matters () =
  let a = Campaign.run small_config in
  let b = Campaign.run { small_config with Campaign.seed = 10 } in
  check_bool "different seed, different campaign" false
    (Campaign.to_json a = Campaign.to_json b)

let test_exactly_one_class () =
  let r = Campaign.run small_config in
  check_int "one record per injection" small_config.Campaign.injections
    (List.length r.Campaign.records);
  List.iter
    (fun (rc : Campaign.record) ->
      check_bool "class is one of the six" true
        (List.mem (Campaign.outcome_class rc.Campaign.outcome)
           Campaign.classes))
    r.Campaign.records;
  check_int "totals partition the injections" small_config.Campaign.injections
    (List.fold_left (fun acc (_, n) -> acc + n) 0 r.Campaign.totals)

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i =
    i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1))
  in
  go 0

let test_render_stability () =
  let r = Campaign.run { small_config with Campaign.injections = 6 } in
  check_bool "schema tag" true
    (contains (Campaign.to_json r) "powercode-fault-campaign/1");
  check_bool "markdown has outcome table" true
    (contains (Campaign.to_markdown r) "## Outcomes")

(* ---- full-run oracle ---------------------------------------------------- *)

(* The campaign's classification rebuilt from public APIs only, with every
   injection run to completion: no early stop.  [Campaign.run] stops a run
   once it rejoins the reference run, so each of its records must equal
   the oracle's, field by field. *)

type oracle_pair = {
  o_bench : string;
  o_program : Isa.Program.t;
  o_prep : Pipeline.Evaluate.prepared;
  o_system : Hardware.Reprogram.system;  (* pristine *)
  o_recovery : Hardware.Fetch_decoder.recovery;
  o_space : Model.space;
}

let oracle_pairs (config : Campaign.config) =
  List.concat_map
    (fun w ->
      let program = (Workloads.compile w).Minic.Compile.program in
      List.map
        (fun (p : Pipeline.Evaluate.prepared) ->
          let system = p.Pipeline.Evaluate.rebuild () in
          let recovery = Hardware.Reprogram.recovery system in
          {
            o_bench = w.Workloads.name;
            o_program = program;
            o_prep = p;
            o_system = system;
            o_recovery = recovery;
            o_space =
              Model.space system
                ~regions:recovery.Hardware.Fetch_decoder.regions
                ~fetches:p.Pipeline.Evaluate.prep_instructions;
          })
        (Pipeline.Evaluate.prepare ~ks:config.Campaign.ks program))
    config.Campaign.benches

(* Strict address-order decode of the corrupted stored state against the
   raw words; a refused fetch counts as a fully-unknown word. *)
let oracle_corruption o system =
  let raw = o.o_recovery.Hardware.Fetch_decoder.raw in
  let n = Array.length raw in
  let dec = Hardware.Reprogram.decoder system in
  let diffs =
    Array.init n (fun pc ->
        match Hardware.Fetch_decoder.fetch dec ~pc with
        | _, d -> (d lxor raw.(pc)) land 0xffffffff
        | exception Machine.Fault.Fault _ ->
            Hardware.Fetch_decoder.reset dec;
            0xffffffff)
  in
  if Array.for_all (( = ) 0) diffs then None
  else begin
    let bits = Bitutil.Popcount.count32 in
    let sum f = Array.fold_left (fun a d -> a + f d) 0 diffs in
    let in_region = Array.make n false in
    let regions_hit = ref 0 and max_extent = ref 0 in
    Array.iter
      (fun (start, len) ->
        let hit = ref [] in
        for pc = start to min (n - 1) (start + len - 1) do
          in_region.(pc) <- true;
          if diffs.(pc) <> 0 then hit := pc :: !hit
        done;
        match !hit with
        | [] -> ()
        | last :: _ ->
            incr regions_hit;
            let first = List.fold_left min last !hit in
            max_extent := max !max_extent (last - first + 1))
      o.o_recovery.Hardware.Fetch_decoder.regions;
    Array.iteri
      (fun pc d ->
        if d <> 0 && not in_region.(pc) then max_extent := max !max_extent 1)
      diffs;
    Some
      {
        Campaign.hamming_bits = sum bits;
        words_corrupted = sum (fun d -> if d <> 0 then 1 else 0);
        regions_hit = !regions_hit;
        bitlines = bits (Array.fold_left ( lor ) 0 diffs);
        max_extent = !max_extent;
      }
  end

let oracle_outcome o target =
  let p = o.o_prep in
  let system = p.Pipeline.Evaluate.rebuild () in
  Model.apply system target;
  let dec = Hardware.Reprogram.decoder ~recovery:o.o_recovery system in
  let image = system.Hardware.Reprogram.image in
  let glitch =
    match target with
    | Model.Bus_glitch { fetch; bit } -> Some (fetch, bit)
    | _ -> None
  in
  let fetches = ref 0 in
  let fetch_word ~pc =
    let this = !fetches in
    incr fetches;
    match glitch with
    | Some (f, bit) when this = f ->
        let saved = image.(pc) in
        image.(pc) <- saved lxor (1 lsl bit);
        Fun.protect
          ~finally:(fun () -> image.(pc) <- saved)
          (fun () -> snd (Hardware.Fetch_decoder.fetch dec ~pc))
    | _ -> snd (Hardware.Fetch_decoder.fetch dec ~pc)
  in
  let cap = (p.Pipeline.Evaluate.prep_instructions * 4) + 10_000 in
  let state = Machine.Cpu.create_state () in
  match Machine.Cpu.run ~max_cycles:cap ~fetch_word o.o_program state with
  | result ->
      let detections =
        Hardware.Fetch_decoder.tt_detections dec
        + Hardware.Fetch_decoder.bbit_detections dec
      in
      if
        Machine.Cpu.output state = p.Pipeline.Evaluate.prep_output
        && result.Machine.Cpu.exit_code = p.Pipeline.Evaluate.prep_exit_code
      then
        if detections > 0 then
          Campaign.Recovered
            {
              detections;
              fallbacks = Hardware.Fetch_decoder.fallback_fetches dec;
            }
        else if glitch <> None then Campaign.Masked
        else
          match oracle_corruption o system with
          | None -> Campaign.Masked
          | Some c -> Campaign.Corrupted c
      else Campaign.Sdc
  | exception Machine.Fault.Fault (Machine.Fault.Cycle_limit { limit }) ->
      Campaign.Hang { limit }
  | exception Machine.Fault.Fault c ->
      Campaign.Trap { cause = Machine.Fault.label c }
  | exception Machine.Cpu.Trap msg ->
      Campaign.Trap { cause = "cpu-trap: " ^ msg }
  | exception Machine.Memory.Fault _ -> Campaign.Trap { cause = "memory-fault" }
  | exception Invalid_argument _ -> Campaign.Trap { cause = "machine-abort" }

(* Every record of the campaign at [config.seed], with the targets drawn
   in the campaign's order: injection [id] on pair [id mod npairs]. *)
let oracle_records (config : Campaign.config) =
  let pairs = Array.of_list (oracle_pairs config) in
  let rng = Random.State.make [| config.Campaign.seed |] in
  List.init config.Campaign.injections (fun id ->
      let o = pairs.(id mod Array.length pairs) in
      (id, o, Model.sample rng o.o_space))
  |> List.map (fun (id, o, target) ->
         {
           Campaign.id;
           bench = o.o_bench;
           k = o.o_prep.Pipeline.Evaluate.prep_k;
           target = Model.label target;
           outcome = oracle_outcome o target;
         })

let pp_outcome ppf = function
  | Campaign.Masked -> Format.pp_print_string ppf "masked"
  | Campaign.Corrupted c ->
      Format.fprintf ppf
        "corrupted(bits=%d words=%d regions=%d lines=%d extent=%d)"
        c.Campaign.hamming_bits c.words_corrupted c.regions_hit c.bitlines
        c.max_extent
  | Campaign.Recovered { detections; fallbacks } ->
      Format.fprintf ppf "recovered(detections=%d fallbacks=%d)" detections
        fallbacks
  | Campaign.Sdc -> Format.pp_print_string ppf "sdc"
  | Campaign.Trap { cause } -> Format.fprintf ppf "trap(%s)" cause
  | Campaign.Hang { limit } -> Format.fprintf ppf "hang(%d)" limit

let check_records label expected actual =
  check_int (label ^ ": record count") (List.length expected)
    (List.length actual);
  List.iter2
    (fun (e : Campaign.record) (a : Campaign.record) ->
      let where = Printf.sprintf "%s #%d %s" label e.Campaign.id e.target in
      check_int (where ^ " id") e.id a.Campaign.id;
      check_string (where ^ " bench") e.bench a.bench;
      check_int (where ^ " k") e.k a.k;
      check_string (where ^ " target") e.target a.target;
      Alcotest.(check (testable pp_outcome ( = )))
        (where ^ " outcome") e.outcome a.outcome)
    expected actual

let skipped () =
  Telemetry.Metrics.counter_total Telemetry.Registry.fault_fetches_skipped

(* Metrics on for [f], so the Stable fault counters can be read *)
let with_metrics f =
  let was = Telemetry.Metrics.enabled () in
  Telemetry.Metrics.set_enabled true;
  Fun.protect ~finally:(fun () -> Telemetry.Metrics.set_enabled was) f

let fast_forwarded () =
  Telemetry.Metrics.counter_total
    Telemetry.Registry.fault_fast_forward_fetches

let test_early_stop_matches_full_run () =
  with_metrics @@ fun () ->
  let before = skipped () and forwarded = fast_forwarded () in
  List.iter
    (fun seed ->
      let config =
        {
          Campaign.seed;
          injections = 48;
          ks = [ 4; 5; 6; 7 ];
          benches = List.map bench [ "sor"; "fft"; "tri"; "ej" ];
        }
      in
      let expected = oracle_records config in
      let campaign env value =
        with_env env value (fun () -> (Campaign.run config).Campaign.records)
      in
      check_records
        (Printf.sprintf "seed %d, POWERCODE_SEQ=1" seed)
        expected
        (campaign "POWERCODE_SEQ" "1");
      check_records
        (Printf.sprintf "seed %d, default pool" seed)
        expected
        (campaign "POWERCODE_SEQ" "0"))
    [ 1; 2; 3; 4; 5; 6 ];
  check_bool "fault.fetches_skipped > 0: the early stop fired" true
    (skipped () > before);
  check_bool "fault.fast_forward_fetches > 0: prefixes ran without the decoder"
    true
    (fast_forwarded () > forwarded)

(* ---- run starts ----------------------------------------------------------- *)

(* The reference run's pc at every fetch (forced only where needed: dct's
   run is 1.88 M fetches). *)
let reference_pcs o =
  let pcs = Array.make o.o_prep.Pipeline.Evaluate.prep_instructions 0 in
  let i = ref 0 in
  ignore
    (Machine.Cpu.run
       ~on_fetch:(fun ~pc ->
         pcs.(!i) <- pc;
         incr i)
       o.o_program
       (Machine.Cpu.create_state ()));
  pcs

(* The encoded region [(start, len)] holding [pc], if any. *)
let region_of o pc =
  Array.find_opt
    (fun (start, len) -> pc >= start && pc < start + len)
    o.o_recovery.Hardware.Fetch_decoder.regions

(* The first one-injection campaign, over five benches, k = 4..7 and seeds
   from 0, whose one target satisfies [pred]; with its oracle pair.  Of
   the nine benches only dct has pcs that its run never fetches (3 of
   344). *)
let find_case what pred =
  let from (name, k) =
    let config =
      { Campaign.seed = 0; injections = 1; ks = [ k ]; benches = [ bench name ] }
    in
    let o = List.hd (oracle_pairs config) in
    let pcs = lazy (reference_pcs o) in
    let rec go seed =
      if seed > 5000 then None
      else
        let target = Model.sample (Random.State.make [| seed |]) o.o_space in
        if pred o pcs target then
          Some ({ config with Campaign.seed }, o, pcs, target)
        else go (seed + 1)
    in
    go 0
  in
  let candidates =
    List.concat_map
      (fun name -> List.map (fun k -> (name, k)) [ 4; 5; 6; 7 ])
      [ "sor"; "fft"; "tri"; "ej"; "dct" ]
  in
  match List.find_map from candidates with
  | Some case -> case
  | None -> Alcotest.failf "no seed draws %s" what

(* The campaign's record equals the full-run oracle's, and the injection
   ran [expected] fetches without the decoder. *)
let check_start_rule what pred expected =
  with_metrics @@ fun () ->
  let config, o, pcs, target = find_case what pred in
  let before = fast_forwarded () in
  let records = (Campaign.run config).Campaign.records in
  let label = what ^ " " ^ Model.label target in
  check_records label (oracle_records config) records;
  check_int (label ^ ": fetches without the decoder") (expected o pcs target)
    (fast_forwarded () - before)

let test_glitch_inside_block () =
  check_start_rule "a bus glitch inside a block"
    (fun o pcs -> function
      | Model.Bus_glitch { fetch; _ } -> (
          let pc = (Lazy.force pcs).(fetch) in
          match region_of o pc with
          | Some (start, _) -> pc > start
          | None -> false)
      | _ -> false)
    (fun _ _ -> function Model.Bus_glitch { fetch; _ } -> fetch | _ -> -1)

let test_image_never_fetched () =
  check_start_rule "an image upset at a pc never fetched"
    (fun o _ -> function
      | Model.Image_bit { pc; _ } ->
          Cfg.Profile.instruction_count o.o_prep.Pipeline.Evaluate.prep_profile
            pc
          = 0
      | _ -> false)
    (fun o _ _ -> o.o_prep.Pipeline.Evaluate.prep_instructions)

(* the slot whose TT chain holds [index] after its head entry *)
let chain_tail_slot o index =
  List.find_opt
    (fun (_, (e : Hardware.Bbit.entry)) ->
      let tt = o.o_system.Hardware.Reprogram.tt in
      let rec holds i =
        i = index || ((not (Hardware.Tt.read tt i).Hardware.Tt.e_bit) && holds (i + 1))
      in
      index > e.Hardware.Bbit.tt_base && holds e.Hardware.Bbit.tt_base)
    (Hardware.Bbit.programmed o.o_system.Hardware.Reprogram.bbit)

let test_tt_chain_tail () =
  check_start_rule "a TT upset after its chain's head"
    (fun o pcs -> function
      | Model.Tt_field { index; _ } -> (
          match chain_tail_slot o index with
          | Some (_, e) -> Array.mem e.Hardware.Bbit.pc (Lazy.force pcs)
          | None -> false)
      | _ -> false)
    (fun o pcs -> function
      | Model.Tt_field { index; _ } -> (
          match chain_tail_slot o index with
          | Some (_, e) ->
              let pcs = Lazy.force pcs in
              let rec first i =
                if pcs.(i) = e.Hardware.Bbit.pc then i else first (i + 1)
              in
              first 0
          | None -> -1)
      | _ -> -1)

let test_bbit_from_fetch_zero () =
  check_start_rule "a BBIT upset"
    (fun _ _ -> function Model.Bbit_field _ -> true | _ -> false)
    (fun _ _ _ -> 0)

(* A BBIT tag flipped onto another programmed slot's pc shadows that live
   slot: [Bbit.corrupt] re-points the associative match, the scrub
   degrades the flipped slot, and the shadowed block's head no longer
   matches, so its encoded words go out undecoded.  The run is detected
   once and has delivered only original words at the detection, so only
   the containment check keeps the campaign from stopping there.  The
   upset is found in the first workload whose slots differ in one pc bit,
   and the campaign seed as the first whose first draw is that upset. *)
let test_bbit_tag_shadow () =
  let shadow (name, k) =
    let config =
      {
        Campaign.seed = 0;
        injections = 1;
        ks = [ k ];
        benches = [ bench name ];
      }
    in
    let o = List.hd (oracle_pairs config) in
    let slots =
      Hardware.Bbit.programmed
        o.o_system.Hardware.Reprogram.bbit
    in
    let tag_bits = List.init o.o_space.Model.pc_bits Fun.id in
    List.find_map
      (fun (slot, (e : Hardware.Bbit.entry)) ->
        List.find_map
          (fun (_, (e' : Hardware.Bbit.entry)) ->
            List.find_opt
              (fun bit -> e.Hardware.Bbit.pc lxor (1 lsl bit) = e'.pc)
              tag_bits
            |> Option.map (fun bit ->
                   ( config,
                     o,
                     Model.Bbit_field { slot; upset = Hardware.Bbit.Pc { bit } }
                   )))
          slots)
      slots
  in
  let candidates =
    List.concat_map
      (fun name -> List.map (fun k -> (name, k)) [ 4; 5; 6; 7 ])
      [ "sor"; "fft"; "tri"; "ej" ]
  in
  match List.find_map shadow candidates with
  | None -> Alcotest.fail "no two BBIT slots whose pcs differ in one bit"
  | Some (config, o, target) ->
      let label = Model.label target in
      let rec find_seed seed =
        if seed > 100_000 then Alcotest.fail ("no seed draws " ^ label)
        else if
          Model.label (Model.sample (Random.State.make [| seed |]) o.o_space)
          = label
        then seed
        else find_seed (seed + 1)
      in
      let config = { config with Campaign.seed = find_seed 0 } in
      let expected = oracle_records config in
      (match expected with
      | [ { Campaign.outcome = Campaign.Recovered _; _ } ] ->
          Alcotest.fail (label ^ " recovers: it shadows nothing")
      | _ -> ());
      check_records label expected (Campaign.run config).Campaign.records

(* ---- model sampling ------------------------------------------------------- *)

let test_model_sampling_deterministic () =
  let w = bench "tri" in
  let program = (Workloads.compile w).Minic.Compile.program in
  match Pipeline.Evaluate.prepare ~ks:[ 4 ] program with
  | [] -> Alcotest.fail "no prepared system"
  | p :: _ ->
      let system = p.Pipeline.Evaluate.rebuild () in
      let recovery = Hardware.Reprogram.recovery system in
      let space =
        Model.space system ~regions:recovery.Hardware.Fetch_decoder.regions
          ~fetches:1000
      in
      let draw seed =
        let rng = Random.State.make [| seed |] in
        List.init 50 (fun _ -> Model.label (Model.sample rng space))
      in
      Alcotest.(check (list string)) "same seed, same draws" (draw 3) (draw 3);
      check_bool "different seed diverges" true (draw 3 <> draw 4)

(* ---- direct parity recovery ----------------------------------------------- *)

(* baseline run + prepared system for one benchmark *)
let prep name k =
  let w = bench name in
  let program = (Workloads.compile w).Minic.Compile.program in
  let state = Machine.Cpu.create_state () in
  ignore (Machine.Cpu.run program state);
  let baseline = Machine.Cpu.output state in
  match Pipeline.Evaluate.prepare ~ks:[ k ] program with
  | [] -> Alcotest.fail "no prepared system"
  | p :: _ -> (program, baseline, p)

let run_through decoder program =
  let state = Machine.Cpu.create_state () in
  ignore
    (Machine.Cpu.run
       ~fetch_word:(fun ~pc -> snd (Hardware.Fetch_decoder.fetch decoder ~pc))
       program state);
  Machine.Cpu.output state

let test_tt_parity_recovery () =
  let program, baseline, p = prep "tri" 4 in
  let recovery = Hardware.Reprogram.recovery (p.Pipeline.Evaluate.rebuild ()) in
  let system = p.Pipeline.Evaluate.rebuild () in
  (match Hardware.Tt.programmed system.Hardware.Reprogram.tt with
  | [] -> Alcotest.fail "no programmed TT entries"
  | (index, _) :: _ ->
      Hardware.Tt.corrupt system.Hardware.Reprogram.tt ~index
        (Hardware.Tt.Tau { line = 0; bit = 0 }));
  let dec = Hardware.Reprogram.decoder ~recovery system in
  let out = run_through dec program in
  check_string "recovered output is baseline-identical" baseline out;
  check_bool "parity detected" true (Hardware.Fetch_decoder.tt_detections dec > 0);
  check_bool "identity-decode fallback served fetches" true
    (Hardware.Fetch_decoder.fallback_fetches dec > 0)

let test_bbit_parity_recovery () =
  let program, baseline, p = prep "ej" 5 in
  let recovery = Hardware.Reprogram.recovery (p.Pipeline.Evaluate.rebuild ()) in
  let system = p.Pipeline.Evaluate.rebuild () in
  (match Hardware.Bbit.programmed system.Hardware.Reprogram.bbit with
  | [] -> Alcotest.fail "no programmed BBIT slots"
  | (slot, _) :: _ ->
      Hardware.Bbit.corrupt system.Hardware.Reprogram.bbit ~slot
        (Hardware.Bbit.Base { bit = 1 }));
  let dec = Hardware.Reprogram.decoder ~recovery system in
  let out = run_through dec program in
  check_string "recovered output is baseline-identical" baseline out;
  check_bool "scrub caught the corrupt slot" true
    (Hardware.Fetch_decoder.bbit_detections dec > 0)

(* without the recovery image the same upsets surface as typed faults (or
   are masked when the damaged entry is never consulted) -- never as a
   silent wrong decode of a parity-protected table *)
let test_strict_mode_faults () =
  let program, _, p = prep "tri" 4 in
  let system = p.Pipeline.Evaluate.rebuild () in
  (match Hardware.Tt.programmed system.Hardware.Reprogram.tt with
  | [] -> Alcotest.fail "no programmed TT entries"
  | (index, _) :: _ ->
      Hardware.Tt.corrupt system.Hardware.Reprogram.tt ~index
        (Hardware.Tt.Tau { line = 0; bit = 0 }));
  let dec = Hardware.Reprogram.decoder system in
  let state = Machine.Cpu.create_state () in
  match
    Machine.Cpu.run ~max_cycles:100_000
      ~fetch_word:(fun ~pc -> snd (Hardware.Fetch_decoder.fetch dec ~pc))
      program state
  with
  | _ -> Alcotest.fail "strict decode of a corrupt TT entry did not fault"
  | exception Machine.Fault.Fault (Machine.Fault.Tt_parity _) -> ()

(* ---- block isolation ------------------------------------------------------ *)

(* A single flipped stored bit may corrupt the decode only within the
   chained block(s) that contain it: its own block, plus the next block
   when the flip lands on the shared overlap bit. *)
let prop_block_isolation =
  QCheck.Test.make ~name:"single stored flip stays within its block(s)"
    ~count:400
    QCheck.(
      triple (int_range 2 7)
        (list_of_size Gen.(2 -- 90) bool)
        (int_range 0 10_000))
    (fun (k, bits, flip_pick) ->
      let s = Bitvec.of_list bits in
      let n = Bitvec.length s in
      let e = Chain.encode_greedy ~k s in
      let p = flip_pick mod n in
      let corrupted =
        { e with Chain.code = Bitvec.set e.Chain.code p (not (Bitvec.get e.Chain.code p)) }
      in
      let decoded = Chain.decode corrupted in
      (* blocks overlap by one: block j covers [j*(k-1), j*(k-1)+k-1] *)
      let stride = k - 1 in
      let j_hi = p / stride in
      let j_lo = max 0 ((p - stride + stride - 1) / stride) in
      let lo = j_lo * stride in
      let hi = min (n - 1) ((j_hi * stride) + stride) in
      let ok = ref true in
      for i = 0 to n - 1 do
        if Bitvec.get decoded i <> Bitvec.get s i && (i < lo || i > hi) then
          ok := false
      done;
      !ok)

let () =
  Alcotest.run "fault"
    [
      ( "campaign",
        [
          Alcotest.test_case "deterministic" `Quick test_campaign_deterministic;
          Alcotest.test_case "seed matters" `Quick test_campaign_seed_matters;
          Alcotest.test_case "state reuse leaks nothing" `Quick
            test_campaign_state_reuse;
          Alcotest.test_case "exactly one class" `Quick test_exactly_one_class;
          Alcotest.test_case "render stability" `Quick test_render_stability;
          Alcotest.test_case "same bytes without the plan cache" `Quick
            test_campaign_without_plan_cache;
        ] );
      ( "early stop",
        [
          Alcotest.test_case "records equal the full-run oracle" `Quick
            test_early_stop_matches_full_run;
          Alcotest.test_case "bbit tag shadow runs to completion" `Quick
            test_bbit_tag_shadow;
        ] );
      ( "run starts",
        [
          Alcotest.test_case "bus glitch inside a block replays its head"
            `Quick test_glitch_inside_block;
          Alcotest.test_case "image upset never fetched skips the run" `Quick
            test_image_never_fetched;
          Alcotest.test_case "tt upset after the chain head" `Quick
            test_tt_chain_tail;
          Alcotest.test_case "bbit upset starts at fetch 0" `Quick
            test_bbit_from_fetch_zero;
        ] );
      ( "model",
        [
          Alcotest.test_case "sampling deterministic" `Quick
            test_model_sampling_deterministic;
        ] );
      ( "recovery",
        [
          Alcotest.test_case "tt parity -> identity decode" `Quick
            test_tt_parity_recovery;
          Alcotest.test_case "bbit parity -> scrub" `Quick
            test_bbit_parity_recovery;
          Alcotest.test_case "strict mode faults" `Quick
            test_strict_mode_faults;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_block_isolation; prop_seq_par_identical ] );
    ]
