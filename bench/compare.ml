(* Regression gate: diff a fresh BENCH_encoding.json against the committed
   bench/baseline.json.

     dune exec bench/compare.exe -- [--baseline FILE] [--current FILE]

   Comparison policy (the whole point of the tool):
     - every leaf outside [settings], [speedups] and [telemetry] must match
       EXACTLY: transition counts, coverage, TT usage, attribution, ledgers,
       scheme selection, plan-cache hit/miss counts, allocation counts and
       event-log tallies are all machine-independent, so any drift is a
       behaviour change.
     - [settings] are preconditions, checked up front.
     - [speedups] holds three self-relative ratios, read from the current run
       alone against fixed floors (below).
     - [telemetry] is ignored: its gauges and runtime counters depend on
       the host and on scheduling.
   How fast the code runs is measured by bench/perf (sh bench/perf/run.sh),
   not here.

   Exit codes: 0 = within policy, 1 = regression, 2 = incomparable
   (missing/bad file, different schema/mode/settings, or a whole top-level
   section absent on either side — every absent section is named first).
   Regression lines go to stdout without numeric values (stable for cram);
   the numbers go to stderr. *)

let baseline_path = ref "bench/baseline.json"
let current_path = ref "BENCH_encoding.json"

let args =
  [
    ("--baseline", Arg.Set_string baseline_path, "FILE committed baseline json");
    ("--current", Arg.Set_string current_path, "FILE freshly generated json");
  ]

let usage = "compare [--baseline FILE] [--current FILE]"

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

(* ---- comparison ------------------------------------------------------- *)

let skipped_sections = [ "settings"; "speedups"; "telemetry" ]
let exact_checked = ref 0
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
  match (rpath, b, c) with
  | [ section ], _, _ when List.mem section skipped_sections -> ()
  | _, Json_min.Obj bf, Json_min.Obj cf ->
      List.iter
        (fun (key, bv) ->
          match List.assoc_opt key cf with
          | Some cv -> walk (key :: rpath) bv cv
          | None -> fail ~kind:"structure" (key :: rpath) "missing in current")
        bf;
      List.iter
        (fun (key, _) ->
          if List.assoc_opt key bf = None then
            fail ~kind:"structure" (key :: rpath)
              "new field not in baseline (regenerate bench/baseline.json)")
        cf
  | _, Json_min.Arr bl, Json_min.Arr cl ->
      if List.length bl <> List.length cl then
        fail ~kind:"structure" rpath
          (Printf.sprintf "length %d -> %d (regenerate bench/baseline.json)"
             (List.length bl) (List.length cl))
      else
        List.iteri
          (fun i (bv, cv) -> walk (element_label i bv :: rpath) bv cv)
          (List.combine bl cl)
  | _, Json_min.Num x, Json_min.Num y ->
      incr exact_checked;
      if not (feq x y) then
        fail ~kind:"exact" rpath (Printf.sprintf "%.4f -> %.4f" x y)
  | _, Json_min.Str x, Json_min.Str y ->
      incr exact_checked;
      if x <> y then fail ~kind:"exact" rpath (Printf.sprintf "%S -> %S" x y)
  | _, Json_min.Bool x, Json_min.Bool y ->
      incr exact_checked;
      if x <> y then fail ~kind:"exact" rpath (Printf.sprintf "%b -> %b" x y)
  | _, Json_min.Null, Json_min.Null -> ()
  | _ -> fail ~kind:"structure" rpath "value kind changed"

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

let num_member key doc =
  match Option.bind doc (Json_min.member key) with
  | Some (Json_min.Num f) -> Some f
  | _ -> None

(* Hard floors on the current run's [speedups], each a self-relative ratio
   (so the baseline's machine doesn't matter), as (leaf, floor, min cores):

     - a plan-cache-warm prepare must be >= 1.3x faster than cold.  The
       cache serves the recorded run and the planning work from a lookup,
       so this holds on any core count.
     - a warm full evaluate must be >= 10x faster than a cold one: it
       replays the cached recording over the pc pairs instead of running
       the program, so what is left is decode-system builds and work
       linear in the static program.
     - the widest-domains campaign leg must run >= 2x the injections/s of
       the domains=1 leg.  The campaign's parallel fraction caps an
       exactly-2-core machine right at 2x, so this floor is only enforced
       when the run recorded >= 4 cores; below that it is skipped with a
       note on stderr. *)
let floors =
  [
    ("prepare_warm_speedup", 1.3, 0.0);
    ("evaluate_warm_speedup", 10.0, 0.0);
    ("campaign_speedup", 2.0, 4.0);
  ]

let check_speedup_floors cur =
  let cores =
    Option.value ~default:0.0
      (num_member "cores" (Json_min.member "settings" cur))
  in
  let speedups = Json_min.member "speedups" cur in
  List.iter
    (fun (leaf, floor, min_cores) ->
      if cores < min_cores then
        Printf.eprintf "note: %s floor skipped (recorded cores < %.0f)\n" leaf
          min_cores
      else
        match num_member leaf speedups with
        | Some s when s >= floor ->
            Printf.eprintf "floor: %s %.2fx (>= %.1fx)\n" leaf s floor
        | Some s ->
            fail ~kind:"floor" [ leaf; "speedups" ]
              (Printf.sprintf "%.2fx < required %.1fx" s floor)
        | None -> fail ~kind:"floor" [ leaf; "speedups" ] "missing")
    floors

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
  if !regressions > 0 then begin
    Printf.printf "bench compare: %d regression(s)\n" !regressions;
    exit 1
  end
  else begin
    Printf.printf "bench compare: OK (exact=%d)\n" !exact_checked;
    exit 0
  end
