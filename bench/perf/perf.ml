(* The performance benchmark: end-to-end metrics of four fixed workloads
   (timed run) and per-layer metrics of the same workloads (traced run).
   README.md documents the metrics, the workloads and how to read them.

     perf.exe --workload NAME|all [--seed N] [--seconds S] [--ops N]
              [--trace 0|1] [--out DIR] [--golden DIR]
     perf.exe --write-golden [--golden DIR]
     perf.exe --check-baseline bench/baseline.json [--golden DIR]
     perf.exe --agree A.json B.json

   Run from the repository root.  One workload runs in one process; [all]
   runs each in a child process, one after another, and merges their
   records into DIR/results.json (DIR/layers.json when tracing).  The last
   line of stdout is the run's result as one JSON object. *)

module E = Pipeline.Evaluate

let now = Unix.gettimeofday

(* ---- the metric table -------------------------------------------------- *)

type metric = {
  name : string;
  unit : string;
  better : string;
  bound : float option;  (** end-to-end: allowed worsening, share of median *)
}

let m ?bound name unit better = { name; unit; better; bound }

let end_to_end =
  [
    m "setup_s" "s" "lower" ~bound:0.25;
    m "fetches_per_s" "1/s" "higher" ~bound:0.2;
    m "op_ms.p50" "ms" "lower" ~bound:0.2;
    m "peak_heap_mb" "MB" "lower" ~bound:0.2;
  ]

let per_layer =
  let l = "lower" and h = "higher" in
  [
    m "machine.cpu_run.ns_per_fetch" "ns" l;
    m "machine.create_state.us" "us" l;
    m "machine.on_fetch_hook.ns_per_fetch" "ns" l;
    m "machine.fetch_word.ns_per_fetch" "ns" l;
    m "cfg.profile.ns_per_fetch" "ns" l;
    m "powercode.plan.us_per_static_insn" "us" l;
    m "hardware.reprogram_build.us" "us" l;
    m "hardware.fetch_decoder.ns_per_fetch" "ns" l;
    m "buspower.businvert.ns_per_word" "ns" l;
    m "buspower.backends.ns_per_word" "ns" l;
    m "pipeline.evaluate_warm.ns_per_fetch" "ns" l;
    m "pipeline.evaluate_cold.ns_per_fetch" "ns" l;
    m "pipeline.count.ns_per_fetch_per_image" "ns" l;
    m "pipeline.prepare_cold.ms" "ms" l;
    m "pipeline.prepare_warm.us" "us" l;
    m "pipeline.observer.attribution.ns_per_fetch" "ns" l;
    m "pipeline.observer.ledger.ns_per_fetch" "ns" l;
    m "pipeline.observer.auto.ns_per_fetch" "ns" l;
    m "pipeline.plan_cache.hits" "count" h;
    m "pipeline.plan_cache.misses" "count" l;
    m "pipeline.layer_sum_ratio" "ratio" l;
    m "trace.attribution.record.ns_per_call" "ns" l;
    m "ledger.meter.record.ns_per_call" "ns" l;
    m "fault.campaign.ms_per_injection.d1" "ms" l;
    m "fault.campaign.width_speedup" "ratio" h;
    m "parpool.utilization_pct" "%" h;
    m "alloc.evaluate_warm.minor_words_per_fetch" "words" l;
    m "alloc.evaluate_observed.minor_words_per_fetch" "words" l;
    m "alloc.evaluate_cold.minor_words_per_op" "words" l;
    m "alloc.campaign.minor_words_per_injection" "words" l;
    m "gc.top_heap_mb" "MB" l;
    m "obs.metrics.tax_ratio" "ratio" l;
    m "obs.log.tax_ratio" "ratio" l;
    m "obs.trace.tax_ratio" "ratio" l;
    m "obs.sampler.tax_ratio" "ratio" l;
    m "minic.compile.ms" "ms" l;
    m "bench.trace_overhead_pct" "%" l;
    m "bench.calibration_ms" "ms" l;
  ]

(* ---- small helpers ----------------------------------------------------- *)

let fail fmt = Printf.ksprintf (fun s -> prerr_endline ("perf: " ^ s); exit 2) fmt

let quantile p xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else
    let x = p *. float_of_int (n - 1) in
    let i = int_of_float x in
    if i + 1 >= n then a.(n - 1)
    else a.(i) +. ((x -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median = quantile 0.5

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Sys.mkdir dir 0o755
  end

let cores = Domain.recommended_domain_count ()

(* Every run uses one domain per core, never more, and records it. *)
let domains = min cores (Powercode.Parpool.max_workers + 1)

let pin_domains () =
  Unix.putenv "POWERCODE_DOMAINS" (string_of_int domains);
  Unix.putenv "POWERCODE_SEQ" "0"

(* ---- host speed -------------------------------------------------------- *)

(* A fixed loop owned by the benchmark: a small register machine that
   dispatches on an instruction array and loads and stores into a 32 KiB
   memory, the kind of work the simulator does.  A shared host's speed
   drifts by several percent from one half-minute to the next, and by up
   to 2x under a busy neighbour; the loop slows with it.  So every
   end-to-end time is taken between two runs of the loop and scaled by
   their mean to [reference_s], the loop's time on the 2-core reference
   host.  There, over 15 s windows, an evaluate's time moved by 10 % and
   its scaled time by 1.6 %.  A plain integer loop tracked it less well:
   the ratio of evaluate to such a loop shifted by 15 % between two busy
   spells. *)
type insn =
  | Addi of int * int * int
  | Add of int * int * int
  | Xor of int * int * int
  | Shl of int * int * int
  | Andi of int * int * int
  | Load of int * int
  | Store of int * int
  | Bne of int * int * int
  | Halt

let calibration_program =
  [|
    Addi (1, 0, 0);
    Addi (2, 0, 50_000);
    Addi (3, 0, 12_345);
    Shl (4, 3, 5) (* loop: *);
    Xor (3, 3, 4);
    Andi (5, 3, 4095);
    Load (6, 5);
    Add (6, 6, 1);
    Store (6, 5);
    Addi (1, 1, 1);
    Bne (1, 2, 3);
    Halt;
  |]

let calibration_loop () =
  let r = Array.make 8 0 and m = Array.make 4096 0 and pc = ref 0 in
  let next () = incr pc in
  while
    match calibration_program.(!pc) with
    | Addi (d, a, k) -> r.(d) <- r.(a) + k; next (); true
    | Add (d, a, b) -> r.(d) <- r.(a) + r.(b); next (); true
    | Xor (d, a, b) -> r.(d) <- r.(a) lxor r.(b); next (); true
    | Shl (d, a, k) -> r.(d) <- (r.(a) lsl k) land 0xffffffff; next (); true
    | Andi (d, a, k) -> r.(d) <- r.(a) land k; next (); true
    | Load (d, a) -> r.(d) <- m.(r.(a)); next (); true
    | Store (s, a) -> m.(r.(a)) <- r.(s); next (); true
    | Bne (a, b, t) -> if r.(a) <> r.(b) then pc := t else next (); true
    | Halt -> false
  do
    ()
  done;
  ignore (Sys.opaque_identity m)

let reference_s = 1.2e-3

(* How many domains run the loop at once: a workload that fans out over
   the pool waits for its slowest domain, so its loop runs on every one. *)
let calibration_width = ref 1

let calibrate () =
  let t0 = now () in
  ignore
    (Powercode.Parpool.parallel_init !calibration_width (fun _ ->
         calibration_loop ()));
  now () -. t0

(* Every calibration of this run, newest first. *)
let calibrations = ref []

let start_calibration ~width =
  calibration_width := width;
  calibrations := [ calibrate () ]

(* [scaled f] runs [f] right after the latest calibration, calibrates
   again, and returns f's result, its wall time, and that time scaled to
   the reference host speed. *)
let scaled f =
  let t0 = now () in
  let r = f () in
  let dt = now () -. t0 in
  let before = List.hd !calibrations and after = calibrate () in
  calibrations := after :: !calibrations;
  (r, dt, dt *. reference_s *. 2.0 /. (before +. after))

(* ---- one workload ------------------------------------------------------ *)

type setup = {
  programs : Workload.program list;
  golden : (string, string) Hashtbl.t;
  seq : int -> Workload.op;
  campaign_fetches : int;
  compile_s : float;
}

(* Compile, load the golden lines, and run one warm-up op, from an empty
   plan cache.  The warm-up op is the same for every seed: campaign ops
   alone differ in cost by up to 4x. *)
let setup (w : Workload.t) ~seed ~golden () =
  E.Plan_cache.clear ();
  let t0 = now () in
  let programs = Workload.compile w in
  let compile_s = now () -. t0 in
  let golden = Golden.load golden w in
  let campaign_fetches =
    if w.kind = Campaign then Workload.campaign_fetches programs else 0
  in
  let seq = Workload.sequence w ~seed programs in
  ignore
    (Workload.run w ~programs ~campaign_fetches
       (Workload.sequence w ~seed:0 programs 0));
  { programs; golden; seq; campaign_fetches; compile_s }

(* Runs one op and checks it: (matched its golden lines, plan-cache
   (hits, misses), fetches). *)
let exec (w : Workload.t) s op =
  match
    Workload.run w ~programs:s.programs ~campaign_fetches:s.campaign_fetches op
  with
  | o ->
      let bad = Golden.mismatches s.golden o in
      List.iter (fun k -> prerr_endline ("perf: result differs from golden: " ^ k)) bad;
      (bad = [], o.cache, o.fetches)
  | exception e ->
      prerr_endline ("perf: op raised " ^ Printexc.to_string e);
      (false, (0, 0), 0)

let setup_reps = 5

let json_number v =
  if Float.is_finite v then Printf.sprintf "%.17g" v
  else fail "metric value %f is not a number" v

let report ~(w : Workload.t) ~seed ~seconds ~trace ~out ~attempted ~failed
    table values =
  let value (mt : metric) =
    match List.assoc_opt mt.name values with
    | Some v -> v
    | None -> fail "metric %s was not measured" mt.name
  in
  List.iter
    (fun mt ->
      Printf.printf "metric %s %s %s %s%s\n" mt.name (json_number (value mt))
        mt.unit mt.better
        (match mt.bound with Some b -> Printf.sprintf " %g" b | None -> ""))
    table;
  let metrics =
    String.concat ", "
      (List.map
         (fun mt ->
           Printf.sprintf {|"%s": {"value": %s, "unit": "%s"}|} mt.name
             (json_number (value mt)) mt.unit)
         table)
  in
  let result =
    Printf.sprintf
      {|{"correct": %b, "attempted": %d, "failed": %d, "metrics": {%s}}|}
      (failed = 0) attempted failed metrics
  in
  mkdir_p out;
  Out_channel.with_open_text (Filename.concat out (w.name ^ ".json")) (fun oc ->
      Printf.fprintf oc
        {|{"workload": "%s", "seed": %d, "seconds": %g, "trace": %d, "domains": %d, "cores": %d, "result": %s}|}
        w.name seed seconds trace domains cores result;
      output_char oc '\n');
  print_endline result;
  if failed > 0 then exit 1

let run_workload (w : Workload.t) ~seed ~seconds ~ops ~trace ~out ~golden =
  pin_domains ();
  Printf.printf "perf: workload %s, seed %d, %s, domains %d, cores %d%s\n%!"
    w.name seed
    (match ops with Some n -> Printf.sprintf "%d ops" n | None -> Printf.sprintf "%gs" seconds)
    domains cores
    (if trace = 1 then ", traced" else "");
  start_calibration ~width:(if w.kind = Campaign then domains else 1);
  let reps = List.init setup_reps (fun _ -> scaled (setup w ~seed ~golden)) in
  let s, _, _ = List.nth reps (setup_reps - 1) in
  let setup_s = median (List.map (fun (_, _, t) -> t) reps) in
  let compile_ms =
    median (List.map (fun (s, _, _) -> s.compile_s) reps)
    *. 1e3 /. float_of_int (List.length s.programs)
  in
  if trace = 1 then begin
    let r =
      Layers.run w ~programs:s.programs ~seq:s.seq
        ~exec:(fun op ->
          let ok, cache, _ = exec w s op in
          (ok, cache))
        ~domains ~budget:seconds ~ops
    in
    mkdir_p out;
    let file = Filename.concat out ("trace-" ^ w.name ^ ".json") in
    Layers.write_trace file ~workload:w.name ~seed;
    Printf.printf "perf: %d spans written to %s; self time per span:\n"
      !Layers.next_id file;
    Format.printf "%a%!" Layers.pp_self_times ();
    let ratio = List.assoc "pipeline.layer_sum_ratio" r.values in
    if ratio < 0.8 || ratio > 1.25 then
      Printf.printf
        "perf: warning: layer sum / evaluate = %.3f, outside [0.8, 1.25]: \
         the layers do not account for the evaluate\n"
        ratio;
    report ~w ~seed ~seconds ~trace ~out ~attempted:r.attempted ~failed:r.failed
      per_layer
      (("minic.compile.ms", compile_ms)
      :: ("bench.calibration_ms", median !calibrations *. 1e3)
      :: r.values)
  end
  else begin
    let t_end = now () +. seconds in
    let raw = ref [] and times = ref [] and rates = ref [] in
    let failed = ref 0 and i = ref 0 in
    while match ops with Some n -> !i < n | None -> now () < t_end do
      let (ok, _, fetches), dt, t = scaled (fun () -> exec w s (s.seq !i)) in
      if not ok then incr failed;
      raw := (dt *. 1e3) :: !raw;
      times := (t *. 1e3) :: !times;
      rates := (float_of_int fetches /. t) :: !rates;
      incr i
    done;
    let n = !i and p90 = quantile 0.9 !times in
    Printf.printf
      "perf: %d ops, %d failed; op_ms p90 %.3f with %d ops above it; \
       unscaled op_ms p50 %.3f; calibration loop %.3f ms against %.3f ms on \
       the reference host\n"
      n !failed p90
      (List.length (List.filter (fun t -> t > p90) !times))
      (median !raw)
      (median !calibrations *. 1e3)
      (reference_s *. 1e3);
    report ~w ~seed ~seconds ~trace ~out ~attempted:n ~failed:!failed end_to_end
      [
        ("setup_s", setup_s);
        ("fetches_per_s", median !rates);
        ("op_ms.p50", median !times);
        ("peak_heap_mb", Layers.peak_heap_mb ());
      ]
  end

(* ---- all workloads, one child process each ------------------------------ *)

let run_all ~seed ~seconds ~ops ~trace ~out ~golden =
  let record (w : Workload.t) = Filename.concat out (w.name ^ ".json") in
  List.iter
    (fun w -> if Sys.file_exists (record w) then Sys.remove (record w))
    Workload.all;
  let ok =
    List.for_all
      (fun (w : Workload.t) ->
        let args =
          [ "--workload"; w.name; "--seed"; string_of_int seed; "--seconds";
            Printf.sprintf "%g" seconds; "--trace"; string_of_int trace;
            "--out"; out; "--golden"; golden ]
          @ (match ops with Some n -> [ "--ops"; string_of_int n ] | None -> [])
        in
        let exe = Sys.executable_name in
        let ic = Unix.open_process_args_in exe (Array.of_list (exe :: args)) in
        (try
           while true do
             print_endline (input_line ic)
           done
         with End_of_file -> ());
        Unix.close_process_in ic = Unix.WEXITED 0)
      Workload.all
  in
  let records =
    List.filter_map
      (fun (w : Workload.t) ->
        let f = record w in
        if Sys.file_exists f then
          Some
            (Printf.sprintf {|"%s": %s|} w.name
               (String.trim (In_channel.with_open_text f In_channel.input_all)))
        else None)
      Workload.all
  in
  let file = Filename.concat out (if trace = 1 then "layers.json" else "results.json") in
  Out_channel.with_open_text file (fun oc ->
      Printf.fprintf oc
        "{\"schema\": \"powercode-perf/1\", \"seed\": %d, \"seconds\": %g, \
         \"trace\": %d, \"domains\": %d, \"cores\": %d, \"workloads\": {\n  %s\n}}\n"
        seed seconds trace domains cores (String.concat ",\n  " records));
  Printf.printf "perf: wrote %s\n" file;
  if not ok then exit 1

(* ---- agreement between two result sets ----------------------------------- *)

let agree a_file b_file =
  let load f =
    try Json_min.of_string (In_channel.with_open_text f In_channel.input_all)
    with Sys_error e | Json_min.Parse_error e -> fail "%s: %s" f e
  in
  let a = load a_file and b = load b_file in
  let path keys o = List.fold_left (fun o k -> Golden.field k o) o keys in
  let num keys o =
    match path keys o with Json_min.Num v -> v | _ -> nan
  in
  List.iter
    (fun k ->
      if num [ k ] a <> num [ k ] b then begin
        Printf.printf
          "perf: refusing to compare: %s differs (%g vs %g); results from \
           different widths or core counts are not comparable\n"
          k (num [ k ] a) (num [ k ] b);
        exit 2
      end)
    [ "domains"; "cores" ];
  Printf.printf "%-10s %-14s %14s %14s %8s %7s\n" "workload" "metric" "A" "B"
    "diff" "bound";
  let all_ok = ref true in
  List.iter
    (fun (w : Workload.t) ->
      let r x = path [ "workloads"; w.name; "result" ] x in
      List.iter
        (fun mt ->
          let va = num [ "metrics"; mt.name; "value" ] (r a)
          and vb = num [ "metrics"; mt.name; "value" ] (r b) in
          let bound = Option.get mt.bound in
          let diff = Float.abs (vb -. va) /. va in
          let ok = diff <= bound in
          if not ok then all_ok := false;
          Printf.printf "%-10s %-14s %14.6g %14.6g %7.2f%% %6.0f%% %s\n" w.name
            mt.name va vb (100.0 *. diff) (100.0 *. bound)
            (if ok then "ok" else "EXCEEDS"))
        end_to_end;
      List.iter
        (fun x ->
          if num [ "failed" ] (r x) <> 0.0 then begin
            Printf.printf "%-10s failed ops in one set\n" w.name;
            all_ok := false
          end)
        [ a; b ])
    Workload.all;
  exit (if !all_ok then 0 else 1)

(* ---- golden maintenance --------------------------------------------------- *)

let write_golden ~golden =
  pin_domains ();
  mkdir_p golden;
  List.iter
    (fun (w : Workload.t) ->
      E.Plan_cache.clear ();
      let programs = Workload.compile w in
      let campaign_fetches =
        if w.kind = Campaign then Workload.campaign_fetches programs else 0
      in
      let lines = Workload.golden_lines w ~programs ~campaign_fetches in
      Golden.write golden w lines;
      Printf.printf "perf: %d lines -> %s\n%!" (List.length lines)
        (Golden.file golden w))
    Workload.all

let check_baseline ~golden baseline =
  let compared, bad = Golden.check_baseline ~dir:golden baseline in
  List.iter (fun p -> Printf.printf "perf: differs from %s: %s\n" baseline p) bad;
  Printf.printf "perf: %d reproduce leaves compared with %s, %d differ\n"
    compared baseline (List.length bad);
  if bad <> [] || compared = 0 then exit 1

(* ---- command line ----------------------------------------------------------- *)

let () =
  let workload = ref "all" and seed = ref 1 and seconds = ref 25.0
  and ops = ref None and trace = ref 0 and out = ref "bench/perf/out"
  and golden = ref "bench/perf/golden" and action = ref `Run in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run, or all (default)");
      ("--seed", Arg.Set_int seed, "N seed of the op order (default 1)");
      ("--seconds", Arg.Set_float seconds, "S length of the timed loop (default 25)");
      ("--ops", Arg.Int (fun n -> ops := Some n), "N run exactly N ops instead");
      ("--trace", Arg.Set_int trace, "0|1 per-layer run instead of the timed run");
      ("--out", Arg.Set_string out, "DIR result and trace files (default bench/perf/out)");
      ("--golden", Arg.Set_string golden, "DIR golden lines (default bench/perf/golden)");
      ("--write-golden", Arg.Unit (fun () -> action := `Write_golden),
       " regenerate the golden lines");
      ("--check-baseline", Arg.String (fun f -> action := `Check_baseline f),
       "FILE compare the reproduce golden lines with bench/baseline.json");
      ( "--agree",
        (let a = ref "" in
         Arg.Tuple
           [ Arg.Set_string a; Arg.String (fun b -> action := `Agree (!a, b)) ]),
        "A.json B.json compare two result sets against the bounds" );
    ]
  in
  Arg.parse spec
    (fun a -> fail "unexpected argument %s" a)
    "perf.exe: end-to-end and per-layer benchmark (see bench/perf/README.md)";
  if !trace <> 0 && !trace <> 1 then fail "--trace takes 0 or 1";
  try
    match !action with
    | `Write_golden -> write_golden ~golden:!golden
    | `Check_baseline f -> check_baseline ~golden:!golden f
    | `Agree (a, b) -> agree a b
    | `Run -> (
        let seed = !seed and seconds = !seconds and ops = !ops
        and trace = !trace and out = !out and golden = !golden in
        match (!workload, Workload.find !workload) with
        | "all", _ -> run_all ~seed ~seconds ~ops ~trace ~out ~golden
        | _, Some w -> run_workload w ~seed ~seconds ~ops ~trace ~out ~golden
        | name, None -> fail "unknown workload %s" name)
  with Sys_error e -> fail "%s" e
