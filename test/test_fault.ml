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

(* Injections reuse machine states, reset before each run: campaigns back
   to back, and a switch of seed and back, must each render what the first
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

(* ---- model sampling ------------------------------------------------------- *)

let test_model_sampling_deterministic () =
  let w = bench "tri" in
  let program = (Workloads.compile w).Minic.Compile.program in
  match Pipeline.Evaluate.prepare ~ks:[ 4 ] program with
  | [] -> Alcotest.fail "no prepared system"
  | p :: _ ->
      let system = p.Pipeline.Evaluate.prep_system in
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
  let recovery =
    Hardware.Reprogram.recovery p.Pipeline.Evaluate.prep_system
  in
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
  let recovery =
    Hardware.Reprogram.recovery p.Pipeline.Evaluate.prep_system
  in
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
