(* The energy ledger's books must balance.  The heart of this file is the
   conservation suite: for every built-in benchmark and every block size
   k = 4..7, the ledger's integer event counts must equal the independent
   Trace.Attribution accumulators bit-exactly, and every derived joule
   figure must reconstruct from the counts with plain float arithmetic —
   no tolerance anywhere.  The rest unit-tests the streaming meter on a
   hand-computed synthetic stream, the model override parser, the
   break-even arithmetic, and the dashboard renderers. *)

module Sheet = Ledger.Sheet
module Model = Ledger.Model
module Meter = Ledger.Meter
module Energy = Buspower.Energy

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* bit-exact float equality: the invariants hold to the last ulp *)
let check_float name a b = Alcotest.(check (float 0.0)) name a b

(* ---- conservation on every built-in benchmark ------------------------------ *)

let all_benchmarks () = Workloads.scaled @ Workloads.extended

let conservation_of_benchmark (w : Workloads.t) () =
  let model = Model.on_chip in
  let r =
    Pipeline.Evaluate.evaluate_workload ~attribution:true ~ledger:model w
  in
  let sheet =
    match r.Pipeline.Evaluate.ledger with
    | Some s -> s
    | None -> Alcotest.fail "no ledger in report"
  in
  let attr =
    match r.Pipeline.Evaluate.attribution with
    | Some a -> a
    | None -> Alcotest.fail "no attribution in report"
  in
  let per_transition = Energy.per_transition model.Model.bus in
  check_int "fetches = dynamic instructions" r.Pipeline.Evaluate.instructions
    sheet.Sheet.fetches;
  (* baseline bus: count equals both independent accumulators, and the
     priced energy is exactly count * unit *)
  check_int "baseline count = evaluate total"
    r.Pipeline.Evaluate.baseline_transitions sheet.Sheet.baseline_bus.Sheet.count;
  check_int "baseline count = attribution total"
    attr.Trace.Attribution.total_baseline sheet.Sheet.baseline_bus.Sheet.count;
  check_float "baseline joules = attribution total * e"
    (Energy.of_transitions model.Model.bus attr.Trace.Attribution.total_baseline)
    (Sheet.energy sheet.Sheet.baseline_bus);
  check_int "one entry per k" 4 (List.length sheet.Sheet.entries);
  List.iteri
    (fun i (e : Sheet.entry) ->
      let run = List.nth r.Pipeline.Evaluate.runs i in
      check_int
        (Printf.sprintf "k order (%d)" i)
        run.Pipeline.Evaluate.k e.Sheet.k;
      check_int
        (Printf.sprintf "k=%d encoded count = evaluate" e.Sheet.k)
        run.Pipeline.Evaluate.transitions e.Sheet.encoded_bus.Sheet.count;
      check_int
        (Printf.sprintf "k=%d encoded count = attribution" e.Sheet.k)
        attr.Trace.Attribution.total_encoded.(i)
        e.Sheet.encoded_bus.Sheet.count;
      check_float
        (Printf.sprintf "k=%d encoded joules = attribution * e" e.Sheet.k)
        (Energy.of_transitions model.Model.bus
           attr.Trace.Attribution.total_encoded.(i))
        (Sheet.energy e.Sheet.encoded_bus);
      (* itemized unit energies come straight from the model *)
      check_float "bus unit" per_transition e.Sheet.encoded_bus.Sheet.unit_j;
      check_float "tt unit" model.Model.tt_read_j e.Sheet.tt_reads.Sheet.unit_j;
      check_float "bbit unit" model.Model.bbit_probe_j
        e.Sheet.bbit_probes.Sheet.unit_j;
      check_float "gate unit" model.Model.gate_toggle_j
        e.Sheet.gate_toggles.Sheet.unit_j;
      check_float "write unit" model.Model.table_write_j
        e.Sheet.reprogram_writes.Sheet.unit_j;
      (* overhead identities, recomputed independently of Sheet *)
      let item_e (it : Sheet.item) =
        float_of_int it.Sheet.count *. it.Sheet.unit_j
      in
      check_float
        (Printf.sprintf "k=%d overhead = sum of parts" e.Sheet.k)
        (item_e e.Sheet.tt_reads +. item_e e.Sheet.bbit_probes
        +. item_e e.Sheet.gate_toggles
        +. item_e e.Sheet.reprogram_writes)
        (Sheet.overhead_j e);
      check_float
        (Printf.sprintf "k=%d overhead = recurring + reprogram" e.Sheet.k)
        (Sheet.recurring_overhead_j e +. item_e e.Sheet.reprogram_writes)
        (Sheet.overhead_j e);
      check_float
        (Printf.sprintf "k=%d net identity" e.Sheet.k)
        (item_e sheet.Sheet.baseline_bus
        -. item_e e.Sheet.encoded_bus -. Sheet.overhead_j e)
        (Sheet.net_savings_j sheet e);
      (* event-count sanity against the fetch stream *)
      check_bool "tt reads <= fetches" true
        (e.Sheet.tt_reads.Sheet.count <= sheet.Sheet.fetches);
      check_bool "bbit probes <= fetches" true
        (e.Sheet.bbit_probes.Sheet.count <= sheet.Sheet.fetches);
      check_bool "bbit probes >= 1" true (e.Sheet.bbit_probes.Sheet.count >= 1);
      check_bool "gate toggles <= baseline transitions" true
        (e.Sheet.gate_toggles.Sheet.count
        <= sheet.Sheet.baseline_bus.Sheet.count))
    sheet.Sheet.entries

(* ---- the streaming meter on a hand-computed synthetic stream ---------------- *)

let test_meter_synthetic () =
  let model =
    { Model.on_chip with Model.tt_read_j = 2.0; bbit_probe_j = 3.0;
      gate_toggle_j = 5.0; table_write_j = 7.0 }
  in
  let m =
    Meter.create ~name:"synthetic" ~model ~ks:[| 5 |]
      ~encoded_region:(fun ~image:_ ~pc -> pc >= 2 && pc <= 3)
  in
  (* (pc, baseline, encoded): first fetch primes and counts as a branch *)
  List.iter
    (fun (pc, b, e) -> Meter.record m ~pc ~baseline:b ~encoded:[| e |])
    [
      (0, 0b0000, 0b0000);
      (* sequential, base flips 2, enc 1, outside region *)
      (1, 0b0011, 0b0001);
      (* sequential, base flips 1, enc 1, inside: tt 1, gates += 1 *)
      (2, 0b0111, 0b0011);
      (* branch (5 <> 3), base flips 3, enc 2, outside *)
      (5, 0b0000, 0b0000);
      (* branch, base flips 3, enc 2, inside: tt 2, gates += 3 *)
      (2, 0b0111, 0b0011);
    ];
  check_int "fetches" 5 (Meter.fetches m);
  check_int "baseline transitions" 9 (Meter.baseline_transitions m);
  check_int "encoded transitions" 6 (Meter.encoded_transitions m 0);
  let sheet = Meter.finalize m ~reprogram_writes:[| 11 |] in
  let e = List.hd sheet.Sheet.entries in
  check_int "tt reads" 2 e.Sheet.tt_reads.Sheet.count;
  check_int "bbit probes = branches" 3 e.Sheet.bbit_probes.Sheet.count;
  check_int "gate toggles" 4 e.Sheet.gate_toggles.Sheet.count;
  check_int "reprogram writes" 11 e.Sheet.reprogram_writes.Sheet.count;
  check_float "tt joules" 4.0 (Sheet.energy e.Sheet.tt_reads);
  check_float "bbit joules" 9.0 (Sheet.energy e.Sheet.bbit_probes);
  check_float "gate joules" 20.0 (Sheet.energy e.Sheet.gate_toggles);
  check_float "write joules" 77.0 (Sheet.energy e.Sheet.reprogram_writes);
  check_float "overhead" 110.0 (Sheet.overhead_j e)

(* The synthetic stream's pcs, each driving one fixed word, with the loop
   2 -> 5 -> 2 taken twice: booked fetch by fetch and from its pair
   profile, every counter must agree. *)
let test_meter_pairs_equal_stream () =
  let create () =
    Meter.create ~name:"pairs" ~model:Model.on_chip ~ks:[| 5 |]
      ~encoded_region:(fun ~image:_ ~pc -> pc >= 2 && pc <= 3)
  in
  let baseline = [| 0b0000; 0b0011; 0b0111; 0; 0; 0b0000 |] in
  let encoded = [| [| 0b0000; 0b0001; 0b0011; 0; 0; 0b0000 |] |] in
  let stream = create () in
  List.iter
    (fun pc ->
      Meter.record stream ~pc ~baseline:baseline.(pc)
        ~encoded:[| encoded.(0).(pc) |])
    [ 0; 1; 2; 5; 2; 5; 2 ];
  let replayed = create () in
  Meter.record_pairs replayed ~first_pc:0
    ~pairs:(fun f ->
      List.iter
        (fun (src, dst, count) -> f ~src ~dst ~count)
        [ (0, 1, 1); (1, 2, 1); (2, 5, 2); (5, 2, 2) ])
    ~baseline ~encoded;
  check_bool "same counters" true (Meter.same_counts stream replayed);
  check_int "fetches" 7 (Meter.fetches replayed);
  check_int "baseline transitions" 15 (Meter.baseline_transitions replayed);
  Alcotest.check_raises "a fed meter refuses a replay"
    (Invalid_argument "Ledger.Meter.record_pairs: meter already fed")
    (fun () ->
      Meter.record_pairs replayed ~first_pc:0 ~pairs:(fun _ -> ()) ~baseline
        ~encoded)

let test_meter_rejects_arity_mismatch () =
  let m =
    Meter.create ~name:"arity" ~model:Model.on_chip ~ks:[| 4; 5 |]
      ~encoded_region:(fun ~image:_ ~pc:_ -> false)
  in
  Alcotest.check_raises "wrong encoded arity"
    (Invalid_argument "Ledger.Meter.record: encoded word count <> ks")
    (fun () -> Meter.record m ~pc:0 ~baseline:0 ~encoded:[| 0 |])

(* ---- model presets and overrides -------------------------------------------- *)

let test_model_by_name () =
  check_bool "on-chip" true (Model.by_name "on-chip" = Some Model.on_chip);
  check_bool "on_chip alias" true
    (Model.by_name "on_chip" = Some Model.on_chip);
  check_bool "off-chip" true (Model.by_name "off-chip" = Some Model.off_chip);
  check_bool "unknown" true (Model.by_name "lunar" = None);
  check_bool "off-chip bus dearer" true
    (Energy.per_transition Model.off_chip.Model.bus
    > Energy.per_transition Model.on_chip.Model.bus)

let test_model_override () =
  let m = Model.on_chip in
  (match Model.override m "tt_read_j" 9.0 with
  | Ok m' ->
      check_float "tt_read_j set" 9.0 m'.Model.tt_read_j;
      check_float "others untouched" m.Model.bbit_probe_j
        m'.Model.bbit_probe_j
  | Error e -> Alcotest.fail e);
  (match Model.override m "vdd_v" 3.3 with
  | Ok m' ->
      check_float "vdd moves the per-transition energy"
        (0.5 *. m.Model.bus.Energy.capacitance_per_line_f *. 3.3 *. 3.3)
        (Energy.per_transition m'.Model.bus)
  | Error e -> Alcotest.fail e);
  (match Model.override m "capacitance_per_line_f" 1e-12 with
  | Ok m' ->
      check_float "capacitance set" 1e-12
        m'.Model.bus.Energy.capacitance_per_line_f
  | Error e -> Alcotest.fail e);
  match Model.override m "flux_capacitor_j" 1.0 with
  | Ok _ -> Alcotest.fail "unknown field accepted"
  | Error msg ->
      check_bool "error names the field" true
        (String.length msg > 0
        && String.sub msg 0 (String.length "unknown") = "unknown")

(* ---- break-even arithmetic --------------------------------------------------- *)

let sheet_with ~fetches ~baseline ~encoded ~recurring ~reprogram_j =
  let item count unit_j = { Sheet.count; unit_j } in
  let entry =
    {
      Sheet.k = 5;
      encoded_bus = item encoded 1.0;
      tt_reads = item recurring 1.0;
      bbit_probes = item 0 1.0;
      gate_toggles = item 0 1.0;
      reprogram_writes = item 1 reprogram_j;
    }
  in
  ( {
      Sheet.name = "artificial";
      model = Model.on_chip;
      fetches;
      baseline_bus = item baseline 1.0;
      entries = [ entry ];
    },
    entry )

let test_break_even () =
  (* gain per fetch = (100 - 50 - 20) / 10 = 3 J; reprogram 6 J -> 2 *)
  let t, e =
    sheet_with ~fetches:10 ~baseline:100 ~encoded:50 ~recurring:20
      ~reprogram_j:6.0
  in
  check_bool "amortizes in 2" true (Sheet.break_even_fetches t e = Some 2);
  check_float "net savings" 24.0 (Sheet.net_savings_j t e);
  check_float "net pct" 24.0 (Sheet.net_savings_pct t e);
  (* free reprogramming amortizes immediately *)
  let t, e =
    sheet_with ~fetches:10 ~baseline:100 ~encoded:50 ~recurring:20
      ~reprogram_j:0.0
  in
  check_bool "free tables" true (Sheet.break_even_fetches t e = Some 0);
  (* non-positive per-fetch gain never pays off *)
  let t, e =
    sheet_with ~fetches:10 ~baseline:100 ~encoded:100 ~recurring:20
      ~reprogram_j:6.0
  in
  check_bool "never pays off" true (Sheet.break_even_fetches t e = None);
  (* exact division still rounds up to cover the whole cost *)
  let t, e =
    sheet_with ~fetches:10 ~baseline:100 ~encoded:50 ~recurring:20
      ~reprogram_j:7.0
  in
  check_bool "ceil of 7/3" true (Sheet.break_even_fetches t e = Some 3)

(* ---- renderers ---------------------------------------------------------------- *)

let rendered_sheets () =
  let w = Workloads.by_name Workloads.scaled "mmul" in
  let r = Pipeline.Evaluate.evaluate_workload ~ledger:Model.on_chip w in
  match r.Pipeline.Evaluate.ledger with
  | Some s -> [ s ]
  | None -> Alcotest.fail "no ledger"

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let count_occurrences ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i acc =
    if i + nl > hl then acc
    else if String.sub hay i nl = needle then go (i + nl) (acc + 1)
    else go (i + 1) acc
  in
  go 0 0

let test_render_markdown () =
  let md = Ledger.Render.markdown (rendered_sheets ()) in
  check_bool "has title" true
    (contains ~needle:"# powercode energy ledger" md);
  check_bool "names the benchmark" true (contains ~needle:"mmul" md);
  check_bool "overview table" true
    (contains ~needle:"Bus-transition reduction" md);
  check_bool "net savings table" true
    (contains ~needle:"Net energy savings" md);
  check_bool "break-even table" true (contains ~needle:"Break-even" md);
  check_bool "per-k rows" true (contains ~needle:"k=4" md)

let test_render_html () =
  let html = Ledger.Render.html (rendered_sheets ()) in
  check_bool "doctype" true (contains ~needle:"<!DOCTYPE html>" html);
  check_bool "closes html" true (contains ~needle:"</html>" html);
  check_int "tables balanced"
    (count_occurrences ~needle:"<table>" html)
    (count_occurrences ~needle:"</table>" html);
  check_int "rows balanced"
    (count_occurrences ~needle:"<tr>" html)
    (count_occurrences ~needle:"</tr>" html);
  check_bool "no external assets" true
    (not (contains ~needle:"http://" html)
    && not (contains ~needle:"https://" html))

let () =
  Alcotest.run "ledger"
    [
      ( "conservation",
        List.map
          (fun (w : Workloads.t) ->
            Alcotest.test_case
              (Printf.sprintf "%s k=4..7" w.Workloads.name)
              `Quick
              (conservation_of_benchmark w))
          (all_benchmarks ()) );
      ( "meter",
        [
          Alcotest.test_case "synthetic stream" `Quick test_meter_synthetic;
          Alcotest.test_case "pairs equal the stream" `Quick
            test_meter_pairs_equal_stream;
          Alcotest.test_case "arity mismatch" `Quick
            test_meter_rejects_arity_mismatch;
        ] );
      ( "model",
        [
          Alcotest.test_case "presets by name" `Quick test_model_by_name;
          Alcotest.test_case "overrides" `Quick test_model_override;
        ] );
      ( "sheet",
        [ Alcotest.test_case "break-even arithmetic" `Quick test_break_even ] );
      ( "render",
        [
          Alcotest.test_case "markdown" `Quick test_render_markdown;
          Alcotest.test_case "html" `Quick test_render_html;
        ] );
    ]
