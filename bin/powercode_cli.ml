(* powercode: command-line front door to the library.

   Subcommands:
     tables    - regenerate the paper's code tables (Figs 2/4) and totals (Fig 3)
     subset    - minimal transformation-set analysis (paper section 5.2)
     encode    - assemble a .s file, encode its hot blocks, report savings
     simulate  - assemble and run a .s file, print its output
     evaluate  - full Figure 6 style evaluation of named benchmarks
     trace     - record a fetch-path trace (VCD / Perfetto) + attribution
     profile   - run one benchmark, emit a speedscope flamegraph + self-times
     report    - itemized energy-ledger dashboard (Markdown or HTML)
     fault     - seeded fault-injection campaign over the hardened fetch path
     stats     - metric schema dump, OpenMetrics serve/refresh, validator
     cost      - hardware overhead sheet (paper section 7.2)                   *)

open Cmdliner

let subset_conv =
  let parse = function
    | "all" -> Ok Powercode.Boolfun.full_mask
    | "eight" -> Ok Powercode.Subset.paper_eight_mask
    | "minimal" -> Ok (Powercode.Subset.canonical_mask ())
    | s -> Error (`Msg ("unknown subset " ^ s ^ " (use all|eight|minimal)"))
  in
  Arg.conv (parse, fun fmt _ -> Format.pp_print_string fmt "<subset>")

let k_arg =
  Arg.(value & opt int 5 & info [ "k" ] ~docv:"K" ~doc:"Code block size (2..16).")

let stats_arg =
  Arg.(
    value & flag
    & info [ "stats" ]
        ~doc:
          "Collect telemetry (counters, histograms, timing spans) for the \
           run and print the report to stderr.  Metric names are documented \
           in the Telemetry.Registry module.")

(* Enables collection for the wrapped command and reports on the way out
   (stderr, so machine-readable stdout such as --csv stays clean). *)
let with_stats stats f =
  if not stats then f ()
  else begin
    Telemetry.Metrics.set_enabled true;
    Fun.protect
      ~finally:(fun () ->
        Format.eprintf "%a@?" Telemetry.Report.pp_human
          (Telemetry.Metrics.freeze ()))
      f
  end

let subset_arg =
  Arg.(
    value
    & opt subset_conv Powercode.Subset.paper_eight_mask
    & info [ "subset" ] ~docv:"SET"
        ~doc:"Transformation set: all, eight (paper), or minimal (six).")

(* ---- energy model helpers -------------------------------------------------- *)

let set_arg =
  Arg.(
    value & opt_all string []
    & info [ "set" ] ~docv:"FIELD=VALUE"
        ~doc:
          "Override one energy-model parameter (repeatable).  Fields: \
           capacitance_per_line_f, vdd_v, tt_read_j, bbit_probe_j, \
           gate_toggle_j, table_write_j.")

(* Preset name + --set overrides -> the priced model the ledger charges. *)
let resolve_model name sets =
  match Ledger.Model.by_name name with
  | None -> Error ("unknown energy model " ^ name ^ " (use on-chip|off-chip)")
  | Some model ->
      List.fold_left
        (fun acc spec ->
          Result.bind acc (fun m ->
              match String.index_opt spec '=' with
              | None -> Error ("--set expects FIELD=VALUE, got " ^ spec)
              | Some i ->
                  let field = String.sub spec 0 i in
                  let v =
                    String.sub spec (i + 1) (String.length spec - i - 1)
                  in
                  (match float_of_string_opt v with
                  | None -> Error ("--set " ^ field ^ ": not a number: " ^ v)
                  | Some v -> Ledger.Model.override m field v)))
        (Ok model) sets

(* ---- tracing helpers ------------------------------------------------------- *)

let write_text_file path contents =
  let oc = open_out_bin path in
  output_string oc contents;
  close_out oc

(* Metrics collection on for [f]'s window, then back to what it was.
   Spans only reach the trace collector and log lines only carry span
   paths while collection is on. *)
let with_metrics f =
  let had_stats = Telemetry.Metrics.enabled () in
  Telemetry.Metrics.set_enabled true;
  Fun.protect f ~finally:(fun () ->
      if not had_stats then Telemetry.Metrics.set_enabled false)

(* One collector session: record [f]'s window, hand the events to [export]
   (even when [f] raises), warn if the ring wrapped, and clear.  Progress
   goes to stderr so stdout stays machine-readable. *)
let with_collector ?(capacity = Trace.Collector.default_capacity) ~export f =
  Trace.Collector.start ~capacity ();
  Fun.protect
    ~finally:(fun () ->
      Trace.Collector.stop ();
      export (Trace.Collector.events ());
      let dropped = Trace.Collector.dropped () in
      if dropped > 0 then
        Format.eprintf
          "trace: ring wrapped, %d oldest events dropped; the VCD keeps the \
           last %d events (trace --capacity raises it)@."
          dropped capacity;
      Trace.Collector.clear ())
    (fun () -> with_metrics f)

(* Record [f]'s window and export it to [trace_out] by suffix: .vcd -> VCD,
   anything else -> Chrome trace-event JSON. *)
let with_trace trace_out ~encoded_names f =
  match trace_out with
  | None -> f ()
  | Some path ->
      let export events =
        write_text_file path
          (if Filename.check_suffix path ".vcd" then
             Trace.Vcd.to_string ~encoded_names events
           else Trace.Perfetto.to_string ~encoded_names events);
        Format.eprintf "trace: wrote %s@." path
      in
      with_collector ~export f

let trace_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace-out" ] ~docv:"FILE"
        ~doc:
          "Record the fetch-path event trace and write it to $(docv) — a \
           VCD waveform dump if the name ends in .vcd (GTKWave/Surfer), \
           otherwise Chrome trace-event JSON (ui.perfetto.dev).")

let default_encoded_names = [ "k4"; "k5"; "k6"; "k7" ]

(* ---- live metrics helpers --------------------------------------------------- *)

let metrics_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics-out" ] ~docv:"FILE"
        ~doc:
          "Write the final telemetry snapshot to $(docv) in \
           OpenMetrics/Prometheus text format (implies telemetry \
           collection for the run; check with $(b,powercode stats \
           validate)).")

let series_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "series" ] ~docv:"FILE"
        ~doc:
          "Sample every registered metric periodically while the run is in \
           flight and append one JSON line per sample to $(docv) (implies \
           telemetry collection; see --series-interval-ms).")

let series_interval_arg =
  Arg.(
    value & opt int 50
    & info [ "series-interval-ms" ] ~docv:"MS"
        ~doc:"Sampling interval for --series, in milliseconds (default 50).")

(* Append-sink sampler over [f]'s window.  The sink runs on the sampler
   domain, so writes are serialized through a mutex and flushed per line —
   a tail -f on the series file sees whole JSON objects. *)
let with_series series ~interval_ms f =
  match series with
  | None -> f ()
  | Some path ->
      let oc = open_out_gen [ Open_append; Open_creat ] 0o644 path in
      let mutex = Mutex.create () in
      let sink line =
        Mutex.lock mutex;
        output_string oc line;
        output_char oc '\n';
        flush oc;
        Mutex.unlock mutex
      in
      let sampler =
        Telemetry.Sampler.start
          ~interval_s:(float_of_int (max 1 interval_ms) /. 1000.)
          ~sink ()
      in
      Fun.protect
        ~finally:(fun () ->
          Telemetry.Sampler.stop sampler;
          close_out oc;
          Format.eprintf "metrics: series appended to %s@." path)
        f

let log_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "log-out" ] ~docv:"FILE"
        ~doc:
          "Enable the structured event log for the run and write every \
           event to $(docv), one JSON line each (tail or filter with \
           $(b,powercode logs)).  Each line carries the run's run_id and, \
           for events emitted inside a telemetry span, the span path.")

(* The log starts cleared so the file covers exactly this invocation's
   window; events drain on the way out in t_ns order.  Metrics collection
   comes on with it for the span paths. *)
let with_event_log ~log_out f =
  match log_out with
  | None -> f ()
  | Some path ->
      let had_log = Telemetry.Log.enabled () in
      Telemetry.Log.clear ();
      Telemetry.Log.set_enabled true;
      Fun.protect
        ~finally:(fun () ->
          if not had_log then Telemetry.Log.set_enabled false;
          let events = Telemetry.Log.events () in
          let oc = open_out path in
          List.iter
            (fun e ->
              output_string oc (Telemetry.Log.to_json e);
              output_char oc '\n')
            events;
          close_out oc;
          Format.eprintf "log: wrote %s (%d events, run %s)@." path
            (List.length events) (Telemetry.Log.run_id ()))
        (fun () -> with_metrics f)

(* Enable collection whenever a live-metrics sink asks for it; on the way
   out, land the final OpenMetrics snapshot. *)
let with_live_metrics ~metrics_out ~series ~interval_ms f =
  if metrics_out = None && series = None then f ()
  else
    with_metrics @@ fun () ->
    Fun.protect
      ~finally:(fun () ->
        match metrics_out with
        | None -> ()
        | Some path ->
            write_text_file path
              (Telemetry.Openmetrics.to_string (Telemetry.Metrics.freeze ()));
            Format.eprintf "metrics: wrote %s@." path)
      (fun () -> with_series series ~interval_ms f)

let man_observability =
  [
    `S "OBSERVABILITY";
    `P
      "$(b,--stats) collects telemetry (counters, gauges, histograms, \
       timing spans) and prints the report to stderr.  $(b,--trace-out) \
       $(i,FILE) records the structured fetch-path event trace and exports \
       it as a VCD waveform dump ($(i,.vcd) suffix) or Chrome trace-event \
       JSON (any other suffix).  The $(b,trace) subcommand adds the \
       per-bitline transition attribution tables.";
    `P
      "Live metrics: $(b,--metrics-out) $(i,FILE) writes the final \
       snapshot in OpenMetrics/Prometheus text format ($(b,powercode \
       stats validate) checks it); $(b,--series) $(i,FILE) appends a JSONL \
       time-series sampled every $(b,--series-interval-ms) while the run \
       is in flight.  $(b,powercode stats serve) evaluates benchmarks \
       while refreshing an OpenMetrics snapshot each round; $(b,powercode \
       stats schema) dumps every registered metric with kind, stability \
       and doc.  $(b,powercode profile) $(i,BENCH) runs one benchmark and \
       writes a speedscope flamegraph (speedscope.app) plus a span \
       self-time table on stdout.  See EXPERIMENTS.md, 'Reading the \
       traces' and 'Reading the pool utilization and flamegraph'.";
  ]

(* ---- tables ---------------------------------------------------------------- *)

let tables k subset_mask stats =
  with_stats stats @@ fun () ->
  if k < 2 || k > 10 then `Error (false, "K must be in 2..10")
  else begin
    Format.printf "Optimal power code, k = %d:@." k;
    Array.iter
      (fun e -> Format.printf "  %a@." (Powercode.Solver.pp_entry ~k) e)
      (Powercode.Solver.table ~subset_mask ~k ());
    Format.printf "%a@." Powercode.Solver.pp_totals
      (Powercode.Solver.totals ~subset_mask ~k ());
    `Ok ()
  end

let tables_cmd =
  Cmd.v
    (Cmd.info "tables" ~doc:"Regenerate the paper's code tables")
    Term.(ret (const tables $ k_arg $ subset_arg $ stats_arg))

(* ---- subset ---------------------------------------------------------------- *)

let subset_analysis () =
  Format.printf "Minimal transformation subsets preserving optimality, k <= 7:@.";
  List.iter
    (fun mask ->
      Format.printf "  {";
      List.iter
        (fun f -> Format.printf " %s" (Powercode.Boolfun.name f))
        (Powercode.Boolfun.list_of_mask mask);
      Format.printf " }@.")
    (Powercode.Subset.all_minimal ~kmax:7);
  Format.printf "The paper's eight:@.  {";
  List.iter
    (fun f -> Format.printf " %s" (Powercode.Boolfun.name f))
    Powercode.Subset.paper_eight;
  Format.printf " }@.";
  List.iter
    (fun k ->
      Format.printf "  k=%d: paper eight optimal: %b, minimal six optimal: %b@."
        k
        (Powercode.Subset.achieves_per_word_optimal
           ~subset_mask:Powercode.Subset.paper_eight_mask ~k)
        (Powercode.Subset.achieves_per_word_optimal
           ~subset_mask:(Powercode.Subset.canonical_mask ()) ~k))
    [ 2; 3; 4; 5; 6; 7 ]

let subset_cmd =
  Cmd.v
    (Cmd.info "subset" ~doc:"Minimal transformation-set analysis (section 5.2)")
    Term.(const subset_analysis $ const ())

(* ---- file helpers ------------------------------------------------------------ *)

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

(* Bad input of either language is an [Error] with a readable message. *)
let load_program path =
  match
    let source = read_file path in
    if Filename.check_suffix path ".mc" then
      (Minic.Compile.compile source).Minic.Compile.program
    else Isa.Asm.assemble source
  with
  | program -> Ok program
  | exception e ->
      let described =
        match Minic.Compile.describe_error e with
        | Some msg -> Some msg
        | None -> Isa.Asm.describe_error e
      in
      Error (Option.value described ~default:(Printexc.to_string e))

let file_arg =
  Arg.(
    required
    & pos 0 (some file) None
    & info [] ~docv:"FILE" ~doc:"Assembly (.s) or Minic (.mc) source file.")

(* A user's program that traps, faults or runs past its budget is an
   error naming the cause, not an uncaught exception. *)
let run_errors f =
  try f () with
  | Machine.Cpu.Trap msg -> `Error (false, msg)
  | Machine.Fault.Fault c -> `Error (false, Machine.Fault.to_string c)
  | Machine.Memory.Fault { address; message } ->
      `Error (false, Printf.sprintf "%s at 0x%08x" message address)

(* ---- encode ------------------------------------------------------------------- *)

let encode path k subset_mask firmware_out stats =
  with_stats stats @@ fun () ->
  run_errors @@ fun () ->
  match load_program path with
  | Error msg -> `Error (false, msg)
  | Ok program ->
      let report =
        Pipeline.Evaluate.evaluate ~ks:[ k ] ~subset_mask ~verify:true
          ~name:(Filename.basename path) program
      in
      Format.printf "%a@." Pipeline.Evaluate.pp_report report;
      (match firmware_out with
      | None -> ()
      | Some out ->
          (* the evaluate above left this plan in the plan cache *)
          let prepared =
            List.hd (Pipeline.Evaluate.prepare ~ks:[ k ] ~subset_mask program)
          in
          let oc = open_out out in
          output_string oc
            (Hardware.Firmware.to_string (prepared.Pipeline.Evaluate.rebuild ()));
          close_out oc;
          Format.printf "firmware bundle written to %s@." out);
      `Ok ()

let encode_cmd =
  let firmware_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "firmware" ] ~docv:"FILE"
          ~doc:"Also write a flashable firmware bundle (encoded image + tables).")
  in
  Cmd.v
    (Cmd.info "encode"
       ~doc:"Encode a program's hot blocks and report transition savings")
    Term.(
      ret (const encode $ file_arg $ k_arg $ subset_arg $ firmware_arg
           $ stats_arg))

(* ---- restore --------------------------------------------------------------- *)

let restore path run =
  match Hardware.Firmware.of_string (read_file path) with
  | exception Hardware.Firmware.Parse_error msg -> `Error (false, msg)
  | system -> (
      run_errors @@ fun () ->
      try
        let program = Hardware.Firmware.restore_program system in
        if run then begin
          let state = Machine.Cpu.create_state () in
          let result = Machine.Cpu.run program state in
          print_string (Machine.Cpu.output state);
          Format.printf "@.[%d instructions, exit %d]@."
            result.Machine.Cpu.instructions result.Machine.Cpu.exit_code
        end
        else print_string (Isa.Disasm.to_source program);
        `Ok ()
      with Isa.Word.Unknown_instruction w ->
        `Error (false, Printf.sprintf "restored word %08x is no instruction" w))

let restore_cmd =
  let run_arg =
    Arg.(
      value & flag
      & info [ "run" ] ~doc:"Execute the restored program instead of printing it.")
  in
  Cmd.v
    (Cmd.info "restore"
       ~doc:"Decode a firmware bundle back to a program (print or --run)")
    Term.(ret (const restore $ file_arg $ run_arg))

(* ---- simulate ------------------------------------------------------------------ *)

let simulate path max_instructions trace_out stats =
  with_stats stats @@ fun () ->
  run_errors @@ fun () ->
  match load_program path with
  | Error msg -> `Error (false, msg)
  | Ok program ->
      (* A plain simulation has no encoded images: the trace carries the
         baseline bus waveform, one tick per fetch. *)
      with_trace trace_out ~encoded_names:[] @@ fun () ->
      let words = Isa.Program.words program in
      let on_fetch =
        Option.map
          (fun _ ~pc -> Trace.Collector.fetch ~pc ~word:words.(pc))
          trace_out
      in
      let state = Machine.Cpu.create_state () in
      let result = Machine.Cpu.run ~max_instructions ?on_fetch program state in
      print_string (Machine.Cpu.output state);
      Format.printf "@.[%d instructions, exit %d]@."
        result.Machine.Cpu.instructions result.Machine.Cpu.exit_code;
      `Ok ()

let simulate_cmd =
  let max_arg =
    Arg.(
      value
      & opt int Machine.Cpu.default_max_instructions
      & info [ "max-instructions" ] ~docv:"N" ~doc:"Instruction budget.")
  in
  Cmd.v
    (Cmd.info "simulate" ~doc:"Assemble/compile and run a program"
       ~man:man_observability)
    Term.(ret (const simulate $ file_arg $ max_arg $ trace_out_arg $ stats_arg))

(* ---- evaluate ------------------------------------------------------------------- *)

let workload_set scaled =
  (if scaled then Workloads.scaled else Workloads.paper_sized)
  @ Workloads.extended

let resolve_benchmarks set names =
  let missing =
    List.filter (fun n -> match Workloads.by_name set n with
      | _ -> false
      | exception Not_found -> true) names
  in
  match missing with
  | n :: _ ->
      Error
        ("unknown benchmark " ^ n ^ " (mmul, sor, ej, fft, tri, lu, fir, iir, dct)")
  | [] -> Ok (List.map (Workloads.by_name set) names)

let evaluate names scaled verify trace_out csv energy sets stats scheme_name
    metrics_out series series_interval log_out =
  with_stats stats @@ fun () ->
  with_live_metrics ~metrics_out ~series ~interval_ms:series_interval
  @@ fun () ->
  with_event_log ~log_out @@ fun () ->
  (* --energy asks for the ledger explicitly; --stats implies the on-chip
     preset so the telemetry view comes with its energy account. *)
  let ledger_model =
    match energy with
    | Some name -> Result.map Option.some (resolve_model name sets)
    | None ->
        if stats then Result.map Option.some (resolve_model "on-chip" sets)
        else Ok None
  in
  match (ledger_model, Pipeline.Scheme.of_string scheme_name) with
  | Error msg, _ | _, Error msg -> `Error (false, msg)
  | Ok ledger, Ok scheme -> (
      match resolve_benchmarks (workload_set scaled) names with
      | Error msg -> `Error (false, msg)
      | Ok ws ->
          with_trace trace_out ~encoded_names:default_encoded_names
          @@ fun () ->
          if csv then
            print_endline
              "bench,k,baseline_transitions,transitions,reduction_pct,coverage_pct";
          (* With --stats over several benchmarks, print the per-workload
             telemetry window (snapshot delta) after each one. *)
          let deltas = stats && List.length ws > 1 in
          List.iter
            (fun w ->
              let before =
                if deltas then Some (Telemetry.Metrics.freeze ()) else None
              in
              let report =
                Pipeline.Evaluate.evaluate_workload ~verify ~scheme ?ledger w
              in
              (match before with
              | Some b ->
                  Format.eprintf "--- %s ---@." w.Workloads.name;
                  Format.eprintf "%a@?" Telemetry.Report.pp_human
                    (Telemetry.Metrics.diff ~before:b
                       ~after:(Telemetry.Metrics.freeze ()))
              | None -> ());
              if csv then
                List.iter
                  (fun (run : Pipeline.Evaluate.encoded_run) ->
                    Printf.printf "%s,%d,%d,%d,%.2f,%.2f\n"
                      report.Pipeline.Evaluate.name run.Pipeline.Evaluate.k
                      report.Pipeline.Evaluate.baseline_transitions
                      run.Pipeline.Evaluate.transitions
                      run.Pipeline.Evaluate.reduction_pct
                      report.Pipeline.Evaluate.coverage_pct)
                  report.Pipeline.Evaluate.runs
              else Format.printf "%a@." Pipeline.Evaluate.pp_report report)
            ws;
          `Ok ())

let scaled_arg =
  Arg.(value & flag & info [ "scaled" ] ~doc:"Use the small test sizes.")

let verify_arg =
  Arg.(
    value & flag
    & info [ "verify" ] ~doc:"Push every fetch through the decoder model.")

let evaluate_cmd =
  let names_arg =
    Arg.(
      non_empty & pos_all string []
      & info [] ~docv:"BENCH"
          ~doc:
            "Benchmark names (one or more): mmul sor ej fft tri lu fir iir \
             dct.  With --stats and several benchmarks, a per-benchmark \
             telemetry delta is printed after each.")
  in
  let csv_arg =
    Arg.(value & flag & info [ "csv" ] ~doc:"Emit machine-readable CSV rows.")
  in
  let energy_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "energy" ] ~docv:"MODEL"
          ~doc:
            "Attach an itemized energy ledger priced under $(docv): on-chip \
             or off-chip.  --stats implies on-chip unless overridden.")
  in
  let scheme_arg =
    Arg.(
      value & opt string "tt"
      & info [ "scheme" ] ~docv:"SCHEME"
          ~doc:
            "Encoding scheme per region: tt (default, the paper's \
             transformation tables), auto (score every registered backend \
             through the energy model and pick the cheapest per region, \
             never worse than tt), or a fixed backend name forced onto \
             every region (identity, businvert, t0, gray, lowweight).")
  in
  Cmd.v
    (Cmd.info "evaluate" ~doc:"Figure 6 style evaluation of benchmarks"
       ~man:man_observability)
    Term.(
      ret (const evaluate $ names_arg $ scaled_arg $ verify_arg
           $ trace_out_arg $ csv_arg $ energy_arg $ set_arg $ stats_arg
           $ scheme_arg $ metrics_out_arg $ series_arg
           $ series_interval_arg $ log_out_arg))

(* ---- report -------------------------------------------------------------------- *)

let paper_bench_names = [ "mmul"; "sor"; "ej"; "fft"; "tri"; "lu" ]

let report names scaled format out energy sets stats scheme_name =
  with_stats stats @@ fun () ->
  let names = if names = [] then paper_bench_names else names in
  match
    (resolve_model energy sets, Pipeline.Scheme.of_string scheme_name)
  with
  | Error msg, _ | _, Error msg -> `Error (false, msg)
  | Ok model, Ok scheme -> (
      match resolve_benchmarks (workload_set scaled) names with
      | Error msg -> `Error (false, msg)
      | Ok ws ->
          let reports =
            List.map
              (fun w ->
                Pipeline.Evaluate.evaluate_workload ~scheme ~ledger:model w)
              ws
          in
          let sheets =
            List.filter_map (fun r -> r.Pipeline.Evaluate.ledger) reports
          in
          (* under the default tt scheme this is empty and the dashboard is
             byte-identical to previous versions *)
          let schemes =
            List.concat_map
              (fun (r : Pipeline.Evaluate.report) ->
                List.map
                  (fun (s : Pipeline.Evaluate.scheme_run) ->
                    {
                      Ledger.Render.bench = r.Pipeline.Evaluate.name;
                      k = s.Pipeline.Scheme.srun_k;
                      counts = s.Pipeline.Scheme.scheme_counts;
                      energy_j = s.Pipeline.Scheme.auto_energy_j;
                      tt_energy_j = s.Pipeline.Scheme.tt_energy_j;
                      reverted = s.Pipeline.Scheme.reverted;
                    })
                  r.Pipeline.Evaluate.schemes)
              reports
          in
          let doc =
            match format with
            | `Md -> Ledger.Render.markdown ~schemes sheets
            | `Html -> Ledger.Render.html ~schemes sheets
          in
          (match out with
          | None -> print_string doc
          | Some path ->
              write_text_file path doc;
              Format.eprintf "report: wrote %s@." path);
          `Ok ())

let report_cmd =
  let names_arg =
    Arg.(
      value & pos_all string []
      & info [] ~docv:"BENCH"
          ~doc:
            "Benchmark names; defaults to the paper's six (mmul sor ej fft \
             tri lu).  Extended kernels fir iir dct may be added.")
  in
  let format_arg =
    Arg.(
      value
      & opt (enum [ ("md", `Md); ("html", `Html) ]) `Md
      & info [ "format" ] ~docv:"FMT"
          ~doc:"Output format: md (GitHub-flavoured Markdown) or html \
                (single self-contained page).")
  in
  let out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE"
          ~doc:"Write the dashboard to $(docv) instead of stdout.")
  in
  let energy_arg =
    Arg.(
      value & opt string "on-chip"
      & info [ "energy" ] ~docv:"MODEL"
          ~doc:"Energy model preset: on-chip or off-chip.")
  in
  let scheme_arg =
    Arg.(
      value & opt string "tt"
      & info [ "scheme" ] ~docv:"SCHEME"
          ~doc:
            "Encoding scheme per region: tt (default), auto, or a fixed \
             fetch-path backend name (identity, businvert, t0, gray, \
             lowweight); auto and fixed append the backend-selection table \
             to the dashboard.")
  in
  Cmd.v
    (Cmd.info "report"
       ~doc:
         "Itemized energy-ledger dashboard: overview, per-component tables \
          and break-even analysis"
       ~man:
         [
           `S Manpage.s_description;
           `P
             "Evaluates each benchmark with the energy ledger attached and \
              renders one self-contained dashboard: a Figure-6/7-style \
              overview (bus-transition reduction and net energy savings), an \
              itemized per-benchmark component table (TT reads, BBIT probes, \
              gate toggles, reprogramming), and the break-even analysis — \
              how many fetches amortize one reprogramming of the tables.  \
              See EXPERIMENTS.md, 'Reading the energy ledger'.";
         ])
    Term.(
      ret (const report $ names_arg $ scaled_arg $ format_arg $ out_arg
           $ energy_arg $ set_arg $ stats_arg $ scheme_arg))

(* ---- trace --------------------------------------------------------------------- *)

let trace name scaled verify vcd_out perfetto_out capacity stats =
  with_stats stats @@ fun () ->
  match resolve_benchmarks (workload_set scaled) [ name ] with
  | Error msg -> `Error (false, msg)
  | Ok [ w ] | Ok (w :: _) ->
      let export evs =
        let write render path =
          write_text_file path (render evs);
          Format.eprintf "trace: wrote %s@." path
        in
        let encoded_names = default_encoded_names in
        Option.iter (write (Trace.Vcd.to_string ~encoded_names)) vcd_out;
        Option.iter (write (Trace.Perfetto.to_string ~encoded_names))
          perfetto_out
      in
      with_collector ~capacity ~export @@ fun () ->
      let report =
        Pipeline.Evaluate.evaluate_workload ~verify ~attribution:true w
      in
      Format.printf "%a@." Pipeline.Evaluate.pp_report report;
      (match report.Pipeline.Evaluate.attribution with
      | Some summary ->
          Format.printf "%a@." (Trace.Attribution.pp_text ?max_blocks:None)
            summary
      | None -> ());
      `Ok ()
  | Ok [] -> assert false

let trace_cmd =
  let name_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"BENCH" ~doc:"Benchmark name: mmul sor ej fft tri lu.")
  in
  let vcd_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "vcd" ] ~docv:"FILE"
          ~doc:"Write the bus waveforms as a VCD dump (GTKWave/Surfer).")
  in
  let perfetto_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "perfetto" ] ~docv:"FILE"
          ~doc:"Write spans + transition counters as Chrome trace-event JSON.")
  in
  let capacity_arg =
    Arg.(
      value
      & opt int Trace.Collector.default_capacity
      & info [ "capacity" ] ~docv:"N"
          ~doc:
            "Event ring capacity; a long run keeps its last $(docv) events \
             (exports are the suffix window; attribution is always exact).")
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Evaluate one benchmark with fetch-path tracing and per-bitline \
          attribution"
       ~man:man_observability)
    Term.(
      ret (const trace $ name_arg $ scaled_arg $ verify_arg $ vcd_arg
           $ perfetto_arg $ capacity_arg $ stats_arg))

(* ---- profile ------------------------------------------------------------------- *)

let profile name scaled out =
  match resolve_benchmarks (workload_set scaled) [ name ] with
  | Error msg -> `Error (false, msg)
  | Ok [] -> assert false
  | Ok (w :: _) ->
      let export events =
        write_text_file out
          (Trace.Speedscope.to_string ~name:w.Workloads.name events);
        Format.eprintf "profile: wrote %s@." out
      in
      let window =
        with_collector ~export @@ fun () ->
        let before = Telemetry.Metrics.freeze () in
        ignore (Pipeline.Evaluate.evaluate_workload w);
        Telemetry.Metrics.diff ~before ~after:(Telemetry.Metrics.freeze ())
      in
      Format.printf
        "span self-times — path, calls, total, self (heaviest self first)@.";
      List.iter
        (fun (path, calls, total, self) ->
          Format.printf "  %-44s %6d %12s %12s@." path calls
            (Telemetry.Report.human_ns total)
            (Telemetry.Report.human_ns self))
        (Telemetry.Report.self_times window);
      `Ok ()

let profile_cmd =
  let name_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"BENCH"
          ~doc:"Benchmark name: mmul sor ej fft tri lu fir iir dct.")
  in
  let out_arg =
    Arg.(
      value
      & opt string "profile.speedscope.json"
      & info [ "o"; "output" ] ~docv:"FILE"
          ~doc:"Flamegraph output path (speedscope JSON).")
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:
         "Run one benchmark and emit a speedscope flamegraph plus a span \
          self-time table"
       ~man:man_observability)
    Term.(ret (const profile $ name_arg $ scaled_arg $ out_arg))

(* ---- stats --------------------------------------------------------------------- *)

let stats_schema () =
  List.iter
    (fun (name, kind, st, doc) ->
      Printf.printf "%-28s %-9s %-7s %s\n" name
        (Telemetry.Metrics.kind_name kind)
        (Telemetry.Metrics.stability_name st)
        doc)
    (Telemetry.Metrics.registered ());
  `Ok ()

let stats_schema_cmd =
  Cmd.v
    (Cmd.info "schema"
       ~doc:
         "Dump every registered metric (name, kind, stability, doc), \
          sorted by name")
    Term.(ret (const stats_schema $ const ()))

let stats_serve names scaled watch interval_ms out series series_interval =
  if watch < 1 then `Error (false, "--watch must be at least 1")
  else begin
    let names = if names = [] then paper_bench_names else names in
    match resolve_benchmarks (workload_set scaled) names with
    | Error msg -> `Error (false, msg)
    | Ok ws ->
        with_metrics @@ fun () ->
        with_series series ~interval_ms:series_interval @@ fun () ->
        for round = 1 to watch do
          List.iter
            (fun w -> ignore (Pipeline.Evaluate.evaluate_workload w))
            ws;
          let text =
            Telemetry.Openmetrics.to_string (Telemetry.Metrics.freeze ())
          in
          (match out with
          | None -> print_string text
          | Some path ->
              write_text_file path text;
              Format.eprintf "stats: refreshed %s (round %d/%d)@." path round
                watch);
          if round < watch then
            Unix.sleepf (float_of_int (max 0 interval_ms) /. 1000.)
        done;
        `Ok ()
  end

let stats_serve_cmd =
  let names_arg =
    Arg.(
      value & pos_all string []
      & info [] ~docv:"BENCH"
          ~doc:
            "Benchmark names to evaluate each round; defaults to the \
             paper's six.")
  in
  let watch_arg =
    Arg.(
      value & opt int 1
      & info [ "watch" ] ~docv:"N"
          ~doc:
            "Rounds to run: 1 (default) is a one-shot snapshot; larger \
             values re-evaluate and refresh the snapshot $(docv) times — \
             point a scraper or a watch(1) at the output file.")
  in
  let interval_arg =
    Arg.(
      value & opt int 0
      & info [ "interval-ms" ] ~docv:"MS"
          ~doc:"Pause between watch rounds, in milliseconds.")
  in
  let out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE"
          ~doc:
            "Write each round's OpenMetrics snapshot to $(docv) (atomically \
             rewritten per round) instead of stdout.")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Evaluate benchmarks while exporting OpenMetrics snapshots \
          (one-shot or watch mode)"
       ~man:man_observability)
    Term.(
      ret (const stats_serve $ names_arg $ scaled_arg $ watch_arg
           $ interval_arg $ out_arg $ series_arg $ series_interval_arg))

let stats_validate path =
  match Telemetry.Openmetrics.validate (read_file path) with
  | Ok () ->
      Format.printf "%s: valid OpenMetrics exposition@." path;
      `Ok ()
  | Error msg -> `Error (false, Printf.sprintf "%s: %s" path msg)

let stats_validate_cmd =
  let file_arg =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"FILE" ~doc:"OpenMetrics text exposition to check.")
  in
  Cmd.v
    (Cmd.info "validate"
       ~doc:
         "Check a file against the OpenMetrics text format (exit non-zero \
          on the first violation)")
    Term.(ret (const stats_validate $ file_arg))

let stats_cmd =
  Cmd.group
    (Cmd.info "stats"
       ~doc:
         "Metric schema dump, OpenMetrics export (one-shot/watch) and \
          format validation"
       ~man:man_observability)
    [ stats_schema_cmd; stats_serve_cmd; stats_validate_cmd ]

(* ---- fault --------------------------------------------------------------------- *)

let all_bench_names = paper_bench_names @ [ "fir"; "iir"; "dct" ]

let fault seed injections ks names format out stats =
  with_stats stats @@ fun () ->
  if injections < 0 then `Error (false, "--injections must be non-negative")
  else if List.exists (fun k -> k < 2 || k > 10) ks then
    `Error (false, "--ks values must be in 2..10")
  else begin
    let names = if names = [] then all_bench_names else names in
    (* Campaigns always use the scaled sizes: hundreds of injected runs. *)
    match resolve_benchmarks (Workloads.scaled @ Workloads.extended) names with
    | Error msg -> `Error (false, msg)
    | Ok ws ->
        let report =
          Fault.Campaign.run { Fault.Campaign.seed; injections; ks; benches = ws }
        in
        let doc =
          match format with
          | `Md -> Fault.Campaign.to_markdown report
          | `Json -> Fault.Campaign.to_json report
        in
        (match out with
        | None -> print_string doc
        | Some path ->
            write_text_file path doc;
            Format.eprintf "fault: wrote %s@." path);
        `Ok ()
  end

let fault_cmd =
  let seed_arg =
    Arg.(
      value & opt int 42
      & info [ "seed" ] ~docv:"SEED"
          ~doc:"Campaign RNG seed; the report is a pure function of it.")
  in
  let injections_arg =
    Arg.(
      value & opt int 200
      & info [ "injections" ] ~docv:"N"
          ~doc:
            "Total single-upset experiments, spread round-robin over every \
             (benchmark, k) pair.")
  in
  let ks_arg =
    Arg.(
      value
      & opt (list int) [ 4; 5; 6; 7 ]
      & info [ "ks" ] ~docv:"K,K,..." ~doc:"Code block sizes to campaign over.")
  in
  let names_arg =
    Arg.(
      value & pos_all string []
      & info [] ~docv:"BENCH"
          ~doc:"Benchmark names; defaults to all nine (mmul sor ej fft tri \
                lu fir iir dct).")
  in
  let format_arg =
    Arg.(
      value
      & opt (enum [ ("md", `Md); ("json", `Json) ]) `Md
      & info [ "format" ] ~docv:"FMT"
          ~doc:"Report format: md (Markdown) or json (stable machine schema).")
  in
  let out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE"
          ~doc:"Write the report to $(docv) instead of stdout.")
  in
  Cmd.v
    (Cmd.info "fault"
       ~doc:
         "Seeded fault-injection campaign through the hardened fetch path"
       ~man:
         [
           `S Manpage.s_description;
           `P
             "Injects single-event upsets — stored image bit flips, \
              transient bus glitches, Transformation Table field flips \
              (tau / E / CT), BBIT tag and base flips — into freshly built \
              decode systems and runs each benchmark through the hardened \
              fetch path under a cycle cap.  Every injection is classified \
              into exactly one outcome: masked, corrupted (decoded-image \
              damage with Hamming-distance and propagation-extent stats), \
              recovered (parity detection plus identity-decode fallback \
              with baseline-identical output), sdc, trap, or hang.  The \
              whole campaign is bit-reproducible from the seed.  See \
              EXPERIMENTS.md, 'Fault campaigns'.";
         ])
    Term.(
      ret (const fault $ seed_arg $ injections_arg $ ks_arg $ names_arg
           $ format_arg $ out_arg $ stats_arg))

(* ---- logs --------------------------------------------------------------------- *)

(* Filter/tail a JSONL event-log file ([evaluate --log-out], bench runs).
   Matching lines are reprinted verbatim — the output is itself a valid
   event log, so filters compose through pipes or repeated invocation. *)
let logs path min_level event_prefix span_prefix tail =
  let min_rank =
    match Telemetry.Log.level_of_name min_level with
    | Some l -> Ok (Telemetry.Log.level_rank l)
    | None ->
        Error
          (Printf.sprintf "unknown level %s (debug|info|warn|error)" min_level)
  in
  match min_rank with
  | Error msg -> `Error (false, msg)
  | Ok min_rank ->
      let starts_with ~prefix s =
        String.length s >= String.length prefix
        && String.sub s 0 (String.length prefix) = prefix
      in
      let ic = open_in path in
      let keep = ref [] and bad = ref 0 and total = ref 0 in
      (try
         while true do
           let line = input_line ic in
           if String.trim line <> "" then begin
             incr total;
             match Telemetry.Log.of_json line with
             | Error _ -> incr bad
             | Ok (_, e) ->
                 let matches =
                   Telemetry.Log.level_rank e.Telemetry.Log.level >= min_rank
                   && (match event_prefix with
                      | None -> true
                      | Some p -> starts_with ~prefix:p e.Telemetry.Log.event)
                   &&
                   match span_prefix with
                   | None -> true
                   | Some p -> (
                       match e.Telemetry.Log.span with
                       | Some s -> starts_with ~prefix:p s
                       | None -> false)
                 in
                 if matches then keep := line :: !keep
           end
         done
       with End_of_file -> ());
      close_in ic;
      let kept = List.rev !keep in
      let kept =
        match tail with
        | None -> kept
        | Some n ->
            let len = List.length kept in
            if len <= n then kept
            else List.filteri (fun i _ -> i >= len - n) kept
      in
      List.iter print_endline kept;
      if !bad > 0 then
        Format.eprintf "logs: %d of %d line(s) failed to parse (skipped)@."
          !bad !total;
      `Ok ()

let logs_cmd =
  let file_arg =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"FILE"
          ~doc:"Event-log JSONL file (from $(b,evaluate --log-out)).")
  in
  let level_arg =
    Arg.(
      value & opt string "debug"
      & info [ "level" ] ~docv:"LEVEL"
          ~doc:"Minimum level to keep: debug (default), info, warn, error.")
  in
  let event_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "event" ] ~docv:"PREFIX"
          ~doc:
            "Keep only events whose slug starts with $(docv) (e.g. \
             $(b,plan.) or $(b,scheme.region)).")
  in
  let span_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "span" ] ~docv:"PREFIX"
          ~doc:
            "Keep only events emitted inside a span whose path starts \
             with $(docv) (e.g. $(b,pipeline.evaluate/)); events outside \
             any span never match.")
  in
  let tail_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "tail" ] ~docv:"N" ~doc:"Print only the last $(docv) matches.")
  in
  Cmd.v
    (Cmd.info "logs"
       ~doc:"Tail/filter a structured event-log JSONL file"
       ~man:
         [
           `S Manpage.s_description;
           `P
             "Reads a JSONL event log written by $(b,evaluate --log-out) \
              (or the bench harness), filters by minimum level, event-slug \
              prefix and span-path prefix, and reprints the matching lines \
              verbatim — every line keeps its run_id, so records from \
              different runs stay distinguishable after any amount of \
              filtering.  See EXPERIMENTS.md, 'Reading the event log'.";
         ])
    Term.(
      ret (const logs $ file_arg $ level_arg $ event_arg $ span_arg $ tail_arg))

(* ---- disasm ------------------------------------------------------------------- *)

let disasm path =
  match load_program path with
  | Error msg -> `Error (false, msg)
  | Ok program ->
      print_string (Isa.Disasm.to_source program);
      `Ok ()

let disasm_cmd =
  Cmd.v
    (Cmd.info "disasm"
       ~doc:"Disassemble a program (Minic sources show the generated code)")
    Term.(ret (const disasm $ file_arg))

(* ---- cost ------------------------------------------------------------------------ *)

let cost k entries fns =
  let r = Hardware.Cost.report ~k ~tt_entries:entries ~fn_count:fns () in
  Format.printf "%a@." Hardware.Cost.pp r;
  `Ok ()

let cost_cmd =
  let entries_arg =
    Arg.(value & opt int 16 & info [ "entries" ] ~docv:"N" ~doc:"TT entries.")
  in
  let fns_arg =
    Arg.(value & opt int 8 & info [ "functions" ] ~docv:"N" ~doc:"Decode gates.")
  in
  Cmd.v
    (Cmd.info "cost" ~doc:"Hardware overhead sheet (section 7.2)")
    Term.(ret (const cost $ k_arg $ entries_arg $ fns_arg))

(* ---- main ------------------------------------------------------------------------- *)

let () =
  let info =
    Cmd.info "powercode" ~version:"1.0.0"
      ~doc:
        "Application-specific instruction memory transformations (DATE 2003 \
         reproduction)"
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            tables_cmd; subset_cmd; encode_cmd; restore_cmd; simulate_cmd;
            evaluate_cmd; report_cmd; trace_cmd; profile_cmd; stats_cmd;
            fault_cmd; logs_cmd; disasm_cmd; cost_cmd;
          ]))
