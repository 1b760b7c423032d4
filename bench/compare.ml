(* Regression gate: diff a fresh BENCH_encoding.json against the committed
   bench/baseline.json.

     dune exec bench/compare.exe -- [--baseline FILE] [--current FILE]
                                    [--time-band PCT]

   Comparison policy (the whole point of the tool):
     - deterministic results — evaluations (transition counts, coverage,
       TT usage) and the per-bitline attribution — must match EXACTLY;
       these are machine-independent, so any drift is a behaviour change.
     - wall-clock figures (workloads[].*_ns_per_insn, chain_encode_256,
       the throughput sweep rates, plan-cache cold/warm timings, and the
       allocation counts) only need to stay within +/- time-band percent
       of the baseline; CI machines vary widely, so the default band is
       generous.  The plan_cache hit/miss counts are a pure function of
       the harness's call sequence, so they are diffed exactly.
     - self-relative speedup floors are enforced from the current run
       alone: a plan-cache-warm prepare >= 1.3x cold and a warm full
       evaluate >= 10x cold always; the
       widest-domains campaign leg >= 2x the domains=1 leg only when the
       run recorded >= 4 cores (skipped with a stderr note below that —
       an exactly-2-core machine sits right at the floor, and a
       single-core one cannot reach it at all).
     - the telemetry section is ignored: Bechamel picks repetition counts
       by wall-clock quota, so those counters are machine-dependent.

   Exit codes: 0 = within policy, 1 = regression, 2 = incomparable
   (missing/bad file, different schema/mode/settings, or a whole top-level
   section absent on either side — every absent section is named first).
   Regression lines go to stdout without numeric values (stable for cram);
   the numbers go to stderr, as does the history.jsonl trend summary. *)

let baseline_path = ref "bench/baseline.json"
let current_path = ref "BENCH_encoding.json"
let history_path = ref "bench/history.jsonl"
let time_band = ref 300.0
let run_trend = ref false

let args =
  [
    ("--baseline", Arg.Set_string baseline_path, "FILE committed baseline json");
    ("--current", Arg.Set_string current_path, "FILE freshly generated json");
    ( "--history",
      Arg.Set_string history_path,
      "FILE append-only run log (history.jsonl); trend summary when it \
       holds two or more entries" );
    ( "--time-band",
      Arg.Set_float time_band,
      "PCT allowed wall-clock drift, percent (default 300)" );
    ( "--trend",
      Arg.Set run_trend,
      " gate the latest history entry against its trailing same-schema \
       window (trend.ml policy); a trend regression fails the compare" );
  ]

let usage =
  "compare [--baseline FILE] [--current FILE] [--history FILE] \
   [--time-band PCT]"

let die_incomparable msg =
  print_endline ("bench compare: incomparable (" ^ msg ^ ")");
  exit 2

let read_file path =
  match open_in_bin path with
  | exception Sys_error msg -> die_incomparable msg
  | ic ->
      let n = in_channel_length ic in
      let s = really_input_string ic n in
      close_in ic;
      s

let load path =
  match Json_min.of_string (read_file path) with
  | v -> v
  | exception Json_min.Parse_error msg ->
      die_incomparable (path ^ ": " ^ msg)

(* ---- classification --------------------------------------------------- *)

type rule = Ignore | Exact | Band

let banded_leaves =
  [
    "encode_ns_per_insn"; "decode_ns_per_insn"; "evaluate_ns_per_insn";
    "builder_ns"; "seed_style_ns"; "speedup";
    (* schema /5: throughput sweep rates and plan-cache/alloc timings are
       wall-clock; the counts next to them (requested_domains, domains,
       campaign_injections, plan_cache hits/misses, block_rows) stay exact *)
    "campaign_s"; "injections_per_s"; "encode_s"; "bits_per_s";
    "cold_s"; "warm_s"; "warm_speedup";
    "evaluate_cold_s"; "evaluate_warm_s"; "evaluate_warm_speedup";
    "before_minor_words_per_block"; "after_minor_words_per_block";
    "reduction_factor";
    (* schema /7: the observability section's figures are scheduling- and
       wall-clock-dependent (pool busy/idle split, GC pacing, sampler
       cadence); the structural constants next to them (pool slots, the
       sampler interval, the validator verdict) stay exact *)
    "samples"; "bytes"; "width"; "busy_ns"; "idle_ns"; "chunks";
    "utilization_pct"; "profile_minor_words"; "plan_minor_words";
    "count_minor_words"; "major_words"; "collections"; "heap_words";
    "top_heap_words";
    (* schema /8: the eventlog window's Stable-event counts are a pure
       function of the pinned workload and diff exactly; Runtime events
       (worker lifecycle) depend on scheduling, and the serialized byte
       total ("bytes", banded above) rides on the run_id length *)
    "runtime_events";
  ]

let classify path =
  match path with
  | "telemetry" :: _ -> Ignore
  (* settings are preconditions (checked up front); domains only warns *)
  | "settings" :: _ -> Ignore
  | _ -> (
      match List.rev path with
      | leaf :: _ when List.mem leaf banded_leaves -> Band
      | _ -> Exact)

(* ---- comparison ------------------------------------------------------- *)

let exact_checked = ref 0
let band_checked = ref 0
let regressions = ref 0

let show_path path = String.concat "." (List.rev path)

let fail ~kind rpath detail =
  incr regressions;
  Printf.printf "regression: %s (%s)\n" (show_path rpath) kind;
  Printf.eprintf "  %s: %s\n" (show_path rpath) detail

let feq a b =
  a = b || Float.abs (a -. b) <= 1e-9 *. Float.max (Float.abs a) (Float.abs b)

(* Arrays of {"name": ...} objects (evaluations, attribution) index by name
   in paths, so a reordered baseline reads sensibly; throughput legs are
   keyed by their requested domain count instead. *)
let element_label i v =
  match Option.bind (Json_min.member "name" v) Json_min.to_string_opt with
  | Some name -> Printf.sprintf "[%s]" name
  | None -> (
      match Json_min.member "requested_domains" v with
      | Some (Json_min.Num d) -> Printf.sprintf "[d%g]" d
      | _ -> Printf.sprintf "[%d]" i)

let rec walk rpath (b : Json_min.t) (c : Json_min.t) =
  match classify (List.rev rpath) with
  | Ignore -> ()
  | rule -> (
      match (b, c) with
      | Json_min.Obj bf, Json_min.Obj cf ->
          List.iter
            (fun (key, bv) ->
              match List.assoc_opt key cf with
              | Some cv -> walk (key :: rpath) bv cv
              | None ->
                  fail ~kind:"structure" (key :: rpath) "missing in current")
            bf;
          List.iter
            (fun (key, _) ->
              if List.assoc_opt key bf = None then
                fail ~kind:"structure" (key :: rpath)
                  "new field not in baseline (regenerate bench/baseline.json)")
            cf
      | Json_min.Arr bl, Json_min.Arr cl ->
          if List.length bl <> List.length cl then
            fail ~kind:"structure" rpath
              (Printf.sprintf "length %d -> %d (regenerate bench/baseline.json)"
                 (List.length bl) (List.length cl))
          else
            List.iteri
              (fun i (bv, cv) -> walk (element_label i bv :: rpath) bv cv)
              (List.combine bl cl)
      | Json_min.Num x, Json_min.Num y -> (
          match rule with
          | Band ->
              incr band_checked;
              let limit = Float.abs x *. (!time_band /. 100.0) in
              if Float.abs (y -. x) > limit then
                fail ~kind:"band" rpath
                  (Printf.sprintf "%.2f -> %.2f (allowed +/-%.0f%%)" x y
                     !time_band)
          | _ ->
              incr exact_checked;
              if not (feq x y) then
                fail ~kind:"exact" rpath (Printf.sprintf "%.4f -> %.4f" x y))
      | Json_min.Str x, Json_min.Str y ->
          incr exact_checked;
          if x <> y then
            fail ~kind:"exact" rpath (Printf.sprintf "%S -> %S" x y)
      | Json_min.Bool x, Json_min.Bool y ->
          incr exact_checked;
          if x <> y then
            fail ~kind:"exact" rpath (Printf.sprintf "%b -> %b" x y)
      | Json_min.Null, Json_min.Null -> ()
      | _ -> fail ~kind:"structure" rpath "value kind changed")

(* ---- section inventory ------------------------------------------------ *)

(* A file missing a whole top-level section is a schema mismatch, not a
   regression: the two runs came from different harness versions, so a
   field-by-field diff would drown the real signal.  Name every absent
   section on both sides, then refuse (exit 2). *)
let check_sections base cur =
  let keys = function
    | Json_min.Obj fields -> List.map fst fields
    | _ -> die_incomparable "top level is not an object"
  in
  let bkeys = keys base and ckeys = keys cur in
  let missing_in l = List.filter (fun k -> not (List.mem k l)) in
  let gone = missing_in ckeys bkeys in
  let added = missing_in bkeys ckeys in
  List.iter
    (fun k -> Printf.printf "section missing in current: %s\n" k)
    gone;
  List.iter
    (fun k ->
      Printf.printf
        "section missing in baseline: %s (regenerate bench/baseline.json)\n" k)
    added;
  if gone <> [] || added <> [] then
    die_incomparable "top-level sections differ"

(* ---- speedup floors ---------------------------------------------------- *)

let num_member doc key =
  match Json_min.member key doc with
  | Some (Json_min.Num f) -> Some f
  | _ -> None

(* The raw-speed work has hard floors, read from the CURRENT run only (they
   are self-relative ratios, so the baseline's machine doesn't matter):

     - the widest-domains campaign leg must run >= 2x the injections/s of
       the domains=1 leg.  The campaign's parallel fraction caps an
       exactly-2-core machine right at 2x, so this floor is only enforced
       when the run recorded >= 4 cores; below that it is skipped with a
       note on stderr (and never on single-core CI, where it is
       physically unattainable).
     - a plan-cache-warm prepare must be >= 1.3x faster than cold.  The
       cache serves the recorded run and the planning work from a lookup,
       so this holds on any core count and is always enforced.
     - a warm full evaluate must be >= 10x faster than a cold one: it
       replays the cached recording over the pc pairs instead of running
       the program, so what is left is decode-system builds and work
       linear in the static program.  Always enforced. *)
let campaign_floor = 2.0
let campaign_floor_min_cores = 4.0
let warm_floor = 1.3
let evaluate_warm_floor = 10.0

let check_speedup_floors cur =
  let cores =
    num_member
      (Option.value (Json_min.member "settings" cur) ~default:Json_min.Null)
      "cores"
  in
  (match cores with
  | Some c when c >= campaign_floor_min_cores -> (
      let legs =
        match Json_min.member "throughput" cur with
        | Some (Json_min.Arr l) -> l
        | _ -> []
      in
      let leg_rate leg =
        match
          (num_member leg "requested_domains", num_member leg "injections_per_s")
        with
        | Some d, Some r -> Some (d, r)
        | _ -> None
      in
      let rates = List.filter_map leg_rate legs in
      let d1 = List.assoc_opt 1.0 rates in
      let widest =
        List.fold_left
          (fun acc (d, r) ->
            match acc with
            | Some (dd, _) when dd >= d -> acc
            | _ -> Some (d, r))
          None rates
      in
      match (d1, widest) with
      | Some r1, Some (dmax, rmax) when dmax >= 2.0 && r1 > 0.0 ->
          let speedup = rmax /. r1 in
          if speedup < campaign_floor then
            fail ~kind:"floor"
              [ "campaign_speedup"; "throughput" ]
              (Printf.sprintf "%.2fx (d%g vs d1) < required %.1fx" speedup
                 dmax campaign_floor)
          else
            Printf.eprintf "floor: campaign d%g/d1 speedup %.2fx (>= %.1fx)\n"
              dmax speedup campaign_floor
      | _ ->
          fail ~kind:"floor"
            [ "campaign_speedup"; "throughput" ]
            "throughput legs for the floor check are missing")
  | _ ->
      Printf.eprintf
        "note: campaign speedup floor skipped (recorded cores < %.0f)\n"
        campaign_floor_min_cores);
  let plan_cache =
    Option.value (Json_min.member "plan_cache" cur) ~default:Json_min.Null
  in
  List.iter
    (fun (leaf, what, floor) ->
      match num_member plan_cache leaf with
      | Some s ->
          if s < floor then
            fail ~kind:"floor" [ leaf; "plan_cache" ]
              (Printf.sprintf "%.2fx < required %.1fx" s floor)
          else
            Printf.eprintf "floor: plan-cache warm %s speedup %.2fx (>= %.1fx)\n"
              what s floor
      | None ->
          fail ~kind:"floor" [ leaf; "plan_cache" ] ("plan_cache." ^ leaf ^ " missing"))
    [
      ("warm_speedup", "prepare", warm_floor);
      ("evaluate_warm_speedup", "evaluate", evaluate_warm_floor);
    ]

(* ---- trend summary ----------------------------------------------------- *)

(* The harness appends one JSON line per run; once two entries exist,
   summarise first -> last.  Machine-dependent numbers, so everything goes
   to stderr (cram drops it).  A missing or short file is not an error. *)
let trend_summary () =
  match open_in !history_path with
  | exception Sys_error _ -> ()
  | ic ->
      let entries = ref [] in
      (try
         while true do
           let line = input_line ic in
           if String.trim line <> "" then
             match Json_min.of_string line with
             | v -> entries := v :: !entries
             | exception Json_min.Parse_error _ -> ()
         done
       with End_of_file -> ());
      close_in ic;
      let entries = List.rev !entries in
      let n = List.length entries in
      if n >= 2 then begin
        let first = List.hd entries and last = List.nth entries (n - 1) in
        let num doc key =
          match Json_min.member key doc with
          | Some (Json_min.Num f) -> Some f
          | _ -> None
        in
        Printf.eprintf "history: %d runs in %s\n" n !history_path;
        (* the log is append-only across harness versions; when entries
           span a schema bump the wall-clock trend crosses a change in how
           much work a run does (the /5 bump added the domains sweep), so
           flag it rather than letting the numbers mislead *)
        let schemas =
          List.sort_uniq compare
            (List.filter_map
               (fun e ->
                 Option.bind (Json_min.member "schema" e)
                   Json_min.to_string_opt)
               entries)
        in
        (match schemas with
        | _ :: _ :: _ ->
            Printf.eprintf
              "  note: entries span schemas %s; wall_s is not comparable \
               across a schema bump (each version times a different amount \
               of work)\n"
              (String.concat " -> " schemas)
        | _ -> ());
        List.iter
          (fun (label, key) ->
            match (num first key, num last key) with
            | Some a, Some b ->
                Printf.eprintf "  %s: %.2f -> %.2f (first -> last)\n" label a b
            | _ -> ())
          [
            ("wall_s", "wall_s");
            ("mean_reduction_k4_pct", "mean_reduction_k4_pct");
            ("mean_net_savings_k4_pct", "mean_net_savings_k4_pct");
          ]
      end

(* ---- trend gate -------------------------------------------------------- *)

(* Opt-in (--trend): the full analyzer from trend.ml over the same
   history file.  Regression names go to stdout without numbers (stable
   for cram); details and warnings to stderr.  Trend regressions count
   toward the exit-1 total like any other. *)
let trend_gate () =
  if !run_trend then begin
    match Trend.load_history !history_path with
    | Error msg -> Printf.eprintf "trend: no history (%s); gate skipped\n" msg
    | Ok (entries, skipped) ->
        let r = Trend.analyze entries skipped in
        List.iter
          (fun (leaf, detail) ->
            incr regressions;
            Printf.printf "trend regression: %s\n" leaf;
            Printf.eprintf "  trend %s: %s\n" leaf detail)
          r.Trend.regressions;
        List.iter
          (fun (leaf, detail) ->
            Printf.eprintf "trend warning: %s (%s)\n" leaf detail)
          r.Trend.warnings;
        Printf.eprintf "trend: %d leaves over %d same-schema prior run(s)\n"
          (List.length r.Trend.rows) r.Trend.window
  end

(* ---- preconditions ---------------------------------------------------- *)

let get_str doc key =
  Option.bind (Json_min.member key doc) Json_min.to_string_opt

let setting doc key =
  Option.bind
    (Option.bind (Json_min.member "settings" doc) (Json_min.member key))
    (fun v ->
      match v with
      | Json_min.Bool b -> Some (string_of_bool b)
      | Json_min.Num f -> Some (Printf.sprintf "%g" f)
      | Json_min.Str s -> Some s
      | _ -> None)

let require_same what a b =
  if a <> b then
    die_incomparable
      (Printf.sprintf "%s: %s vs %s" what
         (Option.value a ~default:"<absent>")
         (Option.value b ~default:"<absent>"))

let () =
  Arg.parse args
    (fun anon -> raise (Arg.Bad ("unexpected argument " ^ anon)))
    usage;
  let base = load !baseline_path in
  let cur = load !current_path in
  require_same "schema" (get_str base "schema") (get_str cur "schema");
  require_same "mode" (get_str base "mode") (get_str cur "mode");
  require_same "settings.powercode_fast"
    (setting base "powercode_fast")
    (setting cur "powercode_fast");
  require_same "settings.powercode_seq"
    (setting base "powercode_seq")
    (setting cur "powercode_seq");
  (if setting base "domains" <> setting cur "domains" then
     Printf.eprintf
       "note: domain count differs (%s vs %s); results are \
        order-independent, continuing\n"
       (Option.value (setting base "domains") ~default:"<absent>")
       (Option.value (setting cur "domains") ~default:"<absent>"));
  check_sections base cur;
  walk [] base cur;
  check_speedup_floors cur;
  trend_summary ();
  trend_gate ();
  if !regressions > 0 then begin
    Printf.printf "bench compare: %d regression(s)\n" !regressions;
    exit 1
  end
  else begin
    Printf.printf "bench compare: OK (exact=%d banded=%d, time band +/-%.0f%%)\n"
      !exact_checked !band_checked !time_band;
    exit 0
  end
