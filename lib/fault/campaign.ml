type corruption = {
  hamming_bits : int;
  words_corrupted : int;
  regions_hit : int;
  bitlines : int;
  max_extent : int;
}

type outcome =
  | Masked
  | Corrupted of corruption
  | Recovered of { detections : int; fallbacks : int }
  | Sdc
  | Trap of { cause : string }
  | Hang of { limit : int }

let outcome_class = function
  | Masked -> "masked"
  | Corrupted _ -> "corrupted"
  | Recovered _ -> "recovered"
  | Sdc -> "sdc"
  | Trap _ -> "trap"
  | Hang _ -> "hang"

let classes = [ "masked"; "corrupted"; "recovered"; "sdc"; "trap"; "hang" ]

type record = {
  id : int;
  bench : string;
  k : int;
  target : string;
  outcome : outcome;
}

type report = {
  seed : int;
  requested : int;
  ks : int list;
  benches : string list;
  records : record list;
  totals : (string * int) list;
}

type config = {
  seed : int;
  injections : int;
  ks : int list;
  benches : Workloads.t list;
}

let default_config =
  {
    seed = 42;
    injections = 200;
    ks = [ 4; 5; 6; 7 ];
    benches = Workloads.scaled @ Workloads.extended;
  }

(* A programmed BBIT slot as the pristine system holds it, with the TT
   chain (tt_base to the E-delimited entry) that its entry heads. *)
type live_slot = {
  slot : int;
  entry : Hardware.Bbit.entry;
  chain : (int * Hardware.Tt.entry) list;
}

let live_slots (system : Hardware.Reprogram.system) =
  let tt = system.Hardware.Reprogram.tt in
  let rec chain index =
    let e = Hardware.Tt.read tt index in
    (index, e) :: (if e.Hardware.Tt.e_bit then [] else chain (index + 1))
  in
  List.map
    (fun (slot, entry) ->
      { slot; entry; chain = chain entry.Hardware.Bbit.tt_base })
    (Hardware.Bbit.programmed system.Hardware.Reprogram.bbit)

(* One (benchmark, k) experiment: everything needed to rebuild a pristine
   system per injection and judge the outcome against the fault-free run. *)
type pair = {
  pair_bench : string;
  pair_k : int;
  program : Isa.Program.t;
  rebuild : unit -> Hardware.Reprogram.system;
  recovery : Hardware.Fetch_decoder.recovery;
  pair_space : Model.space;
      (* read off a pristine system once: every rebuild yields a
         structurally identical system, so the space — and therefore the
         RNG stream sampling from it — is the same one the historical
         rebuild-then-sample order produced *)
  baseline_output : string;
  baseline_exit : int;
  baseline_instructions : int;
  profile : Cfg.Profile.t;  (* the reference run's fetches per pc *)
  slots : live_slot list;
}

(* One workload's pairs for one [ks], kept in the plan-cache entry of
   their plans, so they live exactly as long as the plans do. *)
type derived = {
  workload : Workloads.t;
  ks : int list;
  compiled : Isa.Program.t;
  pairs : pair list;
}

type Pipeline.Evaluate.Plan_cache.attachment += Pairs of derived

let derive (w : Workloads.t) program (p : Pipeline.Evaluate.prepared) =
  (* derived while the system is pristine: this is the copy the degraded
     fetch path serves *)
  let system = p.Pipeline.Evaluate.rebuild () in
  let recovery = Hardware.Reprogram.recovery system in
  {
    pair_bench = w.Workloads.name;
    pair_k = p.Pipeline.Evaluate.prep_k;
    program;
    rebuild = p.Pipeline.Evaluate.rebuild;
    recovery;
    pair_space =
      Model.space system ~regions:recovery.Hardware.Fetch_decoder.regions
        ~fetches:p.Pipeline.Evaluate.prep_instructions;
    baseline_output = p.Pipeline.Evaluate.prep_output;
    baseline_exit = p.Pipeline.Evaluate.prep_exit_code;
    baseline_instructions = p.Pipeline.Evaluate.prep_instructions;
    profile = p.Pipeline.Evaluate.prep_profile;
    slots = live_slots system;
  }

(* The workload's pairs: compiled, planned and derived on the first call,
   then reused while the plan cache holds their plans. *)
let workload_pairs ks w =
  match
    Pipeline.Evaluate.Plan_cache.find_attached (function
      | Pairs d when d.ks = ks && d.workload = w -> Some d
      | _ -> None)
  with
  | Some d ->
      (* the cache's hits, misses, LRU order and log events stay those of
         a campaign that derives afresh *)
      ignore (Pipeline.Evaluate.prepare ~ks d.compiled);
      d.pairs
  | None ->
      let program = (Workloads.compile w).Minic.Compile.program in
      let preps = Pipeline.Evaluate.prepare ~ks program in
      let pairs = List.map (derive w program) preps in
      (match preps with
      | p :: _ ->
          Pipeline.Evaluate.Plan_cache.attach p.Pipeline.Evaluate.prep_plan
            (Pairs { workload = w; ks; compiled = program; pairs })
      | [] -> ());
      pairs

(* Address-order decode of the corrupted stored state through a strict
   decoder, diffed against the pristine raw words.  A fetch the decoder
   refuses (typed fault) counts as a fully-unknown word. *)
let static_corruption (pair : pair) system =
  let raw = pair.recovery.Hardware.Fetch_decoder.raw in
  let regions = pair.recovery.Hardware.Fetch_decoder.regions in
  let n = Array.length raw in
  let dec = Hardware.Reprogram.decoder system in
  let diffs = Array.make n 0 in
  let any = ref false in
  for pc = 0 to n - 1 do
    let diff =
      match Hardware.Fetch_decoder.fetch dec ~pc with
      | _, d -> (d lxor raw.(pc)) land 0xffffffff
      | exception Machine.Fault.Fault _ ->
          Hardware.Fetch_decoder.reset dec;
          0xffffffff
    in
    if diff <> 0 then any := true;
    diffs.(pc) <- diff
  done;
  if not !any then None
  else begin
    let hamming = ref 0 and words = ref 0 and lines = ref 0 in
    Array.iter
      (fun d ->
        if d <> 0 then begin
          incr words;
          hamming := !hamming + Bitutil.Popcount.count32 d;
          lines := !lines lor d
        end)
      diffs;
    let in_any_region = Array.make n false in
    let regions_hit = ref 0 and max_extent = ref 0 in
    Array.iter
      (fun (start, len) ->
        let first = ref (-1) and last = ref (-1) in
        for pc = start to min (n - 1) (start + len - 1) do
          in_any_region.(pc) <- true;
          if diffs.(pc) <> 0 then begin
            if !first < 0 then first := pc;
            last := pc
          end
        done;
        if !first >= 0 then begin
          incr regions_hit;
          max_extent := max !max_extent (!last - !first + 1)
        end)
      regions;
    Array.iteri
      (fun pc d ->
        if d <> 0 && not in_any_region.(pc) then max_extent := max !max_extent 1)
      diffs;
    Some
      {
        hamming_bits = !hamming;
        words_corrupted = !words;
        regions_hit = !regions_hit;
        bitlines = Bitutil.Popcount.count32 !lines;
        max_extent = !max_extent;
      }
  end

(* Is every table a live slot reads as the pristine system holds it?  For
   each slot that has not degraded: its pristine pc still matches that
   slot with its pristine entry, every entry of its TT chain is pristine,
   and all their parities hold.  A flipped BBIT tag equal to another
   slot's pc shadows that live slot, and fails here. *)
let contained (pair : pair) (system : Hardware.Reprogram.system) dec =
  let tt = system.Hardware.Reprogram.tt
  and bbit = system.Hardware.Reprogram.bbit in
  let degraded = Hardware.Fetch_decoder.degraded_slots dec in
  List.for_all
    (fun s ->
      List.mem s.slot degraded
      || Hardware.Bbit.lookup_slot bbit ~pc:s.entry.Hardware.Bbit.pc
         = Some (s.slot, s.entry)
         && Hardware.Bbit.parity_ok bbit s.slot
         && List.for_all
              (fun (index, e) ->
                Hardware.Tt.read_opt tt index = Some e
                && Hardware.Tt.parity_ok tt index)
              s.chain)
    pair.slots

(* The fallbacks the rest of a rejoined run would serve: every reference
   fetch of a degraded region's pcs not yet made. *)
let future_fallbacks (pair : pair) dec fetched =
  List.fold_left
    (fun acc slot ->
      let start, len = pair.recovery.Hardware.Fetch_decoder.regions.(slot) in
      let acc = ref acc in
      for pc = start to start + len - 1 do
        acc :=
          !acc + Cfg.Profile.instruction_count pair.profile pc - fetched.(pc)
      done;
      !acc)
    0
    (Hardware.Fetch_decoder.degraded_slots dec)

(* Raised out of [Machine.Cpu.run] at the fetch where a run rejoins the
   reference run (see campaign.mli). *)
exception Rejoined

(* The encoded region [(start, len)] holding [pc], if any. *)
let region_of (pair : pair) pc =
  Array.find_opt
    (fun (start, len) -> pc >= start && pc < start + len)
    pair.recovery.Hardware.Fetch_decoder.regions

(* [(until, lo, hi)]: the injection's fetches run without the decoder
   while their index is below [until] and their pc lies outside
   [lo, hi) — up to its first affected fetch (see campaign.mli).  [None]
   when every fetch must go through the decoder. *)
let prefix_window (pair : pair) target =
  let whole (start, len) = (max_int, start, start + len) in
  if Trace.Collector.enabled () then None
  else
    match target with
    | Model.Bbit_field _ -> None
    | Model.Bus_glitch { fetch; _ } -> Some (fetch, 0, 0)
    | Model.Image_bit { pc; _ } ->
        Some
          (match region_of pair pc with
          | Some r -> whole r
          | None -> (max_int, pc, pc + 1))
    | Model.Tt_field { index; _ } -> (
        let regions = pair.recovery.Hardware.Fetch_decoder.regions in
        match
          List.filter (fun s -> List.mem_assoc index s.chain) pair.slots
        with
        | [ s ] -> Some (whole regions.(s.slot))
        | _ -> None)

(* Run one pre-sampled injection.  Touches nothing shared mutably — the
   rebuilt system, decoder and CPU state are local — so injections fan out
   over the domain pool; [pair.recovery] is shared read-only. *)
let inject_target ~id (pair : pair) target =
  let system = pair.rebuild () in
  Model.apply system target;
  let dec = Hardware.Reprogram.decoder ~recovery:pair.recovery system in
  let glitch =
    match target with
    | Model.Bus_glitch { fetch; bit } -> Some (fetch, bit)
    | _ -> None
  in
  let image = system.Hardware.Reprogram.image in
  let raw = pair.recovery.Hardware.Fetch_decoder.raw in
  let fetches = ref 0 in
  (* Until the first detection or the first word that is not original,
     count this run's fetches per pc: if the run rejoins there, the counts
     give the fallbacks it did not run. *)
  let watching = ref true and fetched = Array.make (Array.length raw) 0 in
  let window = prefix_window pair target in
  let skipping = ref (window <> None) and handover = ref 0 in
  let until, lo, hi = Option.value window ~default:(0, 0, 0) in
  (* The hardened fetch path, from the handover on. *)
  let decode ~pc this =
    let word =
      match glitch with
      | Some (f, bit) when this = f ->
          (* transient: the stored word reads flipped for this fetch only *)
          let saved = image.(pc) in
          image.(pc) <- saved lxor (1 lsl bit);
          Fun.protect
            ~finally:(fun () -> image.(pc) <- saved)
            (fun () -> snd (Hardware.Fetch_decoder.fetch dec ~pc))
      | _ -> snd (Hardware.Fetch_decoder.fetch dec ~pc)
    in
    if !watching then
      if word <> raw.(pc) then watching := false
      else begin
        fetched.(pc) <- fetched.(pc) + 1;
        let detections =
          Hardware.Fetch_decoder.tt_detections dec
          + Hardware.Fetch_decoder.bbit_detections dec
        in
        if detections > 0 then begin
          watching := false;
          if detections = 1 && contained pair system dec then raise Rejoined
        end
      end;
    word
  in
  let hand_over ~pc this =
    skipping := false;
    handover := this;
    (* a glitch inside a block: bring the decoder to the state that the
       block's earlier fetches left it in *)
    match (glitch, region_of pair pc) with
    | Some _, Some (start, _) ->
        for q = start to pc - 1 do
          ignore (Hardware.Fetch_decoder.fetch dec ~pc:q)
        done
    | _ -> ()
  in
  let fetch_word ~pc =
    let this = !fetches in
    incr fetches;
    if !skipping && this < until && (pc < lo || pc >= hi) then begin
      (* the pristine prefix: the decoder would deliver the original *)
      fetched.(pc) <- fetched.(pc) + 1;
      raw.(pc)
    end
    else begin
      if !skipping then hand_over ~pc this;
      decode ~pc this
    end
  in
  let cap = (pair.baseline_instructions * 4) + 10_000 in
  let outcome =
    let state = Machine.Cpu.create_state () in
    match Machine.Cpu.run ~max_cycles:cap ~fetch_word pair.program state with
    | exception Rejoined ->
        (* book the Stable counters as the full run would have *)
        let future = future_fallbacks pair dec fetched in
        Telemetry.Metrics.add Telemetry.Registry.fault_fallback_fetches future;
        Telemetry.Metrics.add Telemetry.Registry.cpu_instructions
          pair.baseline_instructions;
        Telemetry.Metrics.add Telemetry.Registry.fault_fetches_skipped
          (pair.baseline_instructions - !fetches);
        Telemetry.Metrics.incr Telemetry.Registry.fault_recoveries;
        Recovered
          {
            detections = 1;
            fallbacks = Hardware.Fetch_decoder.fallback_fetches dec + future;
          }
    | result ->
        let detections =
          Hardware.Fetch_decoder.tt_detections dec
          + Hardware.Fetch_decoder.bbit_detections dec
        in
        if
          Machine.Cpu.output state = pair.baseline_output
          && result.Machine.Cpu.exit_code = pair.baseline_exit
        then
          if detections > 0 then begin
            Telemetry.Metrics.incr Telemetry.Registry.fault_recoveries;
            Recovered
              {
                detections;
                fallbacks = Hardware.Fetch_decoder.fallback_fetches dec;
              }
          end
          else begin
            match glitch with
            | Some _ -> Masked (* transient: nothing stored to sweep *)
            | None -> (
                match static_corruption pair system with
                | None -> Masked
                | Some c -> Corrupted c)
          end
        else Sdc
    | exception Machine.Fault.Fault (Machine.Fault.Cycle_limit { limit }) ->
        Hang { limit }
    | exception Machine.Fault.Fault c -> Trap { cause = Machine.Fault.label c }
    | exception Machine.Cpu.Trap msg -> Trap { cause = "cpu-trap: " ^ msg }
    | exception Machine.Memory.Fault _ -> Trap { cause = "memory-fault" }
    | exception Invalid_argument _ -> Trap { cause = "machine-abort" }
  in
  Telemetry.Metrics.add Telemetry.Registry.fault_fast_forward_fetches
    (if !skipping then !fetches else !handover);
  let record =
    {
      id;
      bench = pair.pair_bench;
      k = pair.pair_k;
      target = Model.label target;
      outcome;
    }
  in
  (* One event per injection.  The classification is a pure function of
     the seed, so the event is Stable: the seq-vs-parallel multisets match
     even though injections fan out over the pool. *)
  if Telemetry.Log.enabled () then
    Telemetry.Log.info "fault.injection"
      [
        ("id", Telemetry.Log.Int record.id);
        ("bench", Telemetry.Log.Str record.bench);
        ("k", Telemetry.Log.Int record.k);
        ("target", Telemetry.Log.Str record.target);
        ("class", Telemetry.Log.Str (outcome_class record.outcome));
      ];
  record

let run config =
  if config.injections < 0 then
    invalid_arg "Fault.Campaign.run: negative injection count";
  let pairs =
    Array.of_list (List.concat_map (workload_pairs config.ks) config.benches)
  in
  let npairs = Array.length pairs in
  if npairs = 0 then invalid_arg "Fault.Campaign.run: no (benchmark, k) pairs";
  (* Phase A, sequential: draw every target in injection order from the
     one campaign RNG.  Sampling reads only the pair's (deterministic)
     space, so this stream is bit-identical to the historical
     sample-inside-each-injection order — which is what lets phase B
     reorder execution freely. *)
  let rng = Random.State.make [| config.seed |] in
  let targets =
    Array.init config.injections (fun id ->
        Model.sample rng pairs.(id mod npairs).pair_space)
  in
  (* Phase B, parallel: injections are independent experiments; results
     land in id order regardless of which domain ran them.  POWERCODE_SEQ=1
     (or a 1-domain pool) degrades to the sequential loop. *)
  let records =
    Array.to_list
      (Powercode.Parpool.parallel_init config.injections (fun id ->
           inject_target ~id pairs.(id mod npairs) targets.(id)))
  in
  let totals =
    List.map
      (fun c ->
        ( c,
          List.length
            (List.filter (fun r -> outcome_class r.outcome = c) records) ))
      classes
  in
  {
    seed = config.seed;
    requested = config.injections;
    ks = config.ks;
    benches = List.map (fun w -> w.Workloads.name) config.benches;
    records;
    totals;
  }

(* ---- rendering --------------------------------------------------------- *)

let esc = Telemetry.Json.escape

let outcome_json = function
  | Masked -> {|{"class":"masked"}|}
  | Corrupted c ->
      Printf.sprintf
        {|{"class":"corrupted","hamming_bits":%d,"words":%d,"regions":%d,"bitlines":%d,"max_extent":%d}|}
        c.hamming_bits c.words_corrupted c.regions_hit c.bitlines c.max_extent
  | Recovered { detections; fallbacks } ->
      Printf.sprintf
        {|{"class":"recovered","detections":%d,"fallback_fetches":%d}|}
        detections fallbacks
  | Sdc -> {|{"class":"sdc"}|}
  | Trap { cause } ->
      Printf.sprintf {|{"class":"trap","cause":"%s"}|} (esc cause)
  | Hang { limit } -> Printf.sprintf {|{"class":"hang","cycle_cap":%d}|} limit

let to_json (r : report) =
  let b = Buffer.create 4096 in
  Buffer.add_string b "{\n";
  Buffer.add_string b "  \"schema\": \"powercode-fault-campaign/1\",\n";
  Printf.bprintf b "  \"seed\": %d,\n" r.seed;
  Printf.bprintf b "  \"injections\": %d,\n" r.requested;
  Printf.bprintf b "  \"ks\": [%s],\n"
    (String.concat ", " (List.map string_of_int r.ks));
  Printf.bprintf b "  \"benches\": [%s],\n"
    (String.concat ", "
       (List.map (fun n -> "\"" ^ esc n ^ "\"") r.benches));
  Printf.bprintf b "  \"outcomes\": {%s},\n"
    (String.concat ", "
       (List.map (fun (c, n) -> Printf.sprintf "\"%s\": %d" c n) r.totals));
  Buffer.add_string b "  \"records\": [\n";
  let last = List.length r.records - 1 in
  List.iteri
    (fun i rec_ ->
      Printf.bprintf b
        {|    {"id":%d,"bench":"%s","k":%d,"target":"%s","outcome":%s}|}
        rec_.id (esc rec_.bench) rec_.k (esc rec_.target)
        (outcome_json rec_.outcome);
      if i < last then Buffer.add_string b ",";
      Buffer.add_string b "\n")
    r.records;
  Buffer.add_string b "  ]\n}\n";
  Buffer.contents b

let to_markdown (r : report) =
  let b = Buffer.create 4096 in
  let p fmt = Printf.bprintf b fmt in
  p "# Fault-injection campaign\n\n";
  p "- seed: %d\n- injections: %d\n- block sizes: %s\n- benchmarks: %s\n\n"
    r.seed r.requested
    (String.concat ", " (List.map string_of_int r.ks))
    (String.concat ", " r.benches);
  p "## Outcomes\n\n";
  p "| class | count | share |\n|---|---:|---:|\n";
  List.iter
    (fun (c, n) ->
      p "| %s | %d | %.1f%% |\n" c n
        (if r.requested = 0 then 0.0
         else 100.0 *. float_of_int n /. float_of_int r.requested))
    r.totals;
  p "\n## Per benchmark\n\n";
  p "| bench | %s |\n" (String.concat " | " classes);
  p "|---|%s\n" (String.concat "" (List.map (fun _ -> "---:|") classes));
  List.iter
    (fun bench ->
      let of_class c =
        List.length
          (List.filter
             (fun rc -> rc.bench = bench && outcome_class rc.outcome = c)
             r.records)
      in
      p "| %s | %s |\n" bench
        (String.concat " | "
           (List.map (fun c -> string_of_int (of_class c)) classes)))
    r.benches;
  (* corruption propagation: the paper's block-isolation claim in numbers *)
  let corruptions =
    List.filter_map
      (fun rc -> match rc.outcome with Corrupted c -> Some c | _ -> None)
      r.records
  in
  if corruptions <> [] then begin
    let max_ext =
      List.fold_left (fun a c -> max a c.max_extent) 0 corruptions
    in
    let total_bits =
      List.fold_left (fun a c -> a + c.hamming_bits) 0 corruptions
    in
    let total_words =
      List.fold_left (fun a c -> a + c.words_corrupted) 0 corruptions
    in
    p
      "\n## Decoded-image corruption\n\n%d injections corrupted the decoded \
       image without an architectural effect: %d bits over %d words; the \
       widest propagation inside any one encoded region spanned %d words.\n"
      (List.length corruptions) total_bits total_words max_ext
  end;
  (match
     List.find_opt
       (fun rc -> match rc.outcome with Recovered _ -> true | _ -> false)
       r.records
   with
  | Some ({ outcome = Recovered { detections; fallbacks }; _ } as rc) ->
      p
        "\n## Graceful degradation\n\nInjection #%d (%s into %s k=%d) was \
         caught by parity (%d detection%s); the fetch engine served %d \
         fetches from the raw region and the run's output matched the \
         fault-free baseline exactly.\n"
        rc.id rc.target rc.bench rc.k detections
        (if detections = 1 then "" else "s")
        fallbacks
  | _ -> ());
  let traps =
    List.filter_map
      (fun rc ->
        match rc.outcome with Trap { cause } -> Some cause | _ -> None)
      r.records
  in
  if traps <> [] then begin
    let tbl = Hashtbl.create 8 in
    List.iter
      (fun c ->
        Hashtbl.replace tbl c (1 + Option.value ~default:0 (Hashtbl.find_opt tbl c)))
      traps;
    let causes =
      List.sort compare (Hashtbl.fold (fun c n acc -> (c, n) :: acc) tbl [])
    in
    p "\n## Trap causes\n\n| cause | count |\n|---|---:|\n";
    List.iter (fun (c, n) -> p "| %s | %d |\n" c n) causes
  end;
  Buffer.contents b
