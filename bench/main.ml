(* Reproduction harness: one section per table/figure of the paper, each
   printing the regenerated rows next to the paper's published values, plus
   ablations the paper only gestures at.  It writes BENCH_encoding.json,
   which bench/compare.exe diffs against bench/baseline.json; how fast the
   code runs is bench/perf's job.

   Run with:  dune exec bench/main.exe
   Fast mode: POWERCODE_FAST=1 dune exec bench/main.exe   (scaled workloads)

   Absolute transition counts depend on our Minic compiler's instruction
   selection, so they differ from the paper's SimpleScalar/gcc numbers; the
   shapes (who wins, how savings decay with block size, which benchmark
   lags) are the reproduction targets.  EXPERIMENTS.md records both sides. *)

let section title =
  Format.printf "@.=====================================================@.";
  Format.printf "== %s@." title;
  Format.printf "=====================================================@."

(* ---- Figure 2: optimal code table for k = 3 -------------------------------- *)

let fig2 () =
  section "Figure 2: power-efficient transformations for 3-bit blocks";
  Format.printf "   X -> X~   tau     Tx Tx~@.";
  Array.iter
    (fun e -> Format.printf "  %a@." (Powercode.Solver.pp_entry ~k:3) e)
    (Powercode.Solver.table ~k:3 ());
  Format.printf
    "Paper: identical table (verified verbatim in test/test_solver.ml).@."

(* ---- Figure 3: TTN/RTN/improvement for k = 2..7 ------------------------------ *)

let fig3 () =
  section "Figure 3: transition improvements for block sizes 2..7";
  let paper =
    [ (2, 2, 0, 100.0); (3, 8, 2, 75.0); (4, 24, 10, 58.3); (5, 64, 32, 50.0);
      (6, 320, 180, 43.8); (7, 384, 234, 39.1) ]
  in
  Format.printf "%4s %18s %18s %12s %10s@." "k" "TTN (ours/paper)"
    "RTN (ours/paper)" "impr ours" "paper";
  List.iter
    (fun (k, pttn, prtn, ppct) ->
      let t = Powercode.Solver.totals ~k () in
      Format.printf "%4d %10d/%-7d %10d/%-7d %11.1f%% %9.1f%%@." k
        t.Powercode.Solver.ttn pttn t.Powercode.Solver.rtn prtn
        t.Powercode.Solver.improvement_pct ppct)
    paper;
  Format.printf
    "Notes: the paper's k=6 row is printed doubled (TTN over all 64 words is \
     provably (k-1)*2^(k-1) = 160); its percentage matches ours.  For k=7 \
     our exhaustive optimum is RTN=236 (38.5%%), 2 transitions above the \
     paper's printed 234.@."

(* ---- Figure 4: k = 5 table under the 8-transformation restriction ------------- *)

let fig4 () =
  section "Figure 4: transformations for 5-bit blocks (8-function set)";
  Format.printf "      X -> X~      tau     Tx Tx~@.";
  let table =
    Powercode.Solver.table ~subset_mask:Powercode.Subset.paper_eight_mask ~k:5 ()
  in
  Array.iteri
    (fun w e ->
      if w < 16 then Format.printf "  %a@." (Powercode.Solver.pp_entry ~k:5) e)
    table;
  Format.printf
    "(first half shown, as in the paper; the second half is the bitwise \
     complement under the XOR<->XNOR / NOR<->NAND duality).@.";
  let full = Powercode.Solver.totals ~k:5 () in
  let sub =
    Powercode.Solver.totals ~subset_mask:Powercode.Subset.paper_eight_mask ~k:5 ()
  in
  Format.printf
    "Restriction to 8 functions costs nothing: RTN %d (restricted) = %d \
     (all 16), as the paper claims.  Optimal codes are not unique, so a few \
     equal-cost rows differ from the printed table; the Tx~ column matches \
     verbatim (test/test_solver.ml).@."
    sub.Powercode.Solver.rtn full.Powercode.Solver.rtn

(* ---- Section 5.2: the minimal transformation subset ---------------------------- *)

let sec52 () =
  section "Section 5.2: how few transformations suffice?";
  let mins = Powercode.Subset.all_minimal ~kmax:7 in
  Format.printf "Paper claim: a unique 8-function subset achieves optimality \
                 for all k <= 7.@.";
  Format.printf "Our exhaustive hitting-set search: minimum size %d, %d \
                 such set(s):@."
    (List.length (Powercode.Boolfun.list_of_mask (List.hd mins)))
    (List.length mins);
  List.iter
    (fun m ->
      Format.printf "  {";
      List.iter
        (fun f -> Format.printf " %s" (Powercode.Boolfun.name f))
        (Powercode.Boolfun.list_of_mask m);
      Format.printf " }@.")
    mins;
  List.iter
    (fun k ->
      Format.printf "  k=%d: paper-eight optimal: %b; minimal-six optimal: %b@."
        k
        (Powercode.Subset.achieves_per_word_optimal
           ~subset_mask:Powercode.Subset.paper_eight_mask ~k)
        (Powercode.Subset.achieves_per_word_optimal
           ~subset_mask:(Powercode.Subset.canonical_mask ()) ~k))
    [ 2; 3; 4; 5; 6; 7 ];
  Format.printf
    "=> the paper's eight are sufficient (confirmed) but six already \
     suffice; 3-bit TT indices remain the right hardware choice either way.@."

(* ---- Section 6: chained random streams ------------------------------------------ *)

let seeded_stream seed n =
  let state = ref seed in
  Bitutil.Bitvec.init n (fun _ ->
      state := !state lxor (!state lsl 13);
      state := !state lxor (!state lsr 7);
      state := !state lxor (!state lsl 17);
      !state land 1 = 1)

let sec6 () =
  section "Section 6: chained encoding of random 1000-bit streams (k = 5)";
  let trials = 50 in
  let sum_g = ref 0.0 and sum_o = ref 0.0 and worst = ref 100.0 in
  for seed = 1 to trials do
    let s = seeded_stream (seed * 7919) 1000 in
    let t0 = float_of_int (Bitutil.Bitvec.transitions s) in
    let g = Powercode.Chain.encode_greedy ~k:5 s in
    let o = Powercode.Chain.encode_optimal ~k:5 s in
    let rg = 100.0 *. (1.0 -. (float_of_int (Bitutil.Bitvec.transitions g.Powercode.Chain.code) /. t0)) in
    let ro = 100.0 *. (1.0 -. (float_of_int (Bitutil.Bitvec.transitions o.Powercode.Chain.code) /. t0)) in
    sum_g := !sum_g +. rg;
    sum_o := !sum_o +. ro;
    if rg < !worst then worst := rg
  done;
  Format.printf
    "paper: within 1%% of the expected 50%% on all cases@.";
  Format.printf
    "ours over %d streams: greedy avg %.2f%%, exact-DP avg %.2f%%, worst \
     single stream %.2f%%@."
    trials (!sum_g /. float_of_int trials) (!sum_o /. float_of_int trials) !worst;
  Format.printf
    "=> the paper's 'iterative approach leads in practice to optimal \
     results' holds: greedy and the exact chain DP coincide to the decimal.@."

(* ---- Figure 6 / Figure 7: the benchmark evaluation -------------------------------- *)

let paper_fig6 =
  [
    ("mmul", 14.0, [ 44.0; 39.2; 26.7; 28.5 ]);
    ("sor", 3.3, [ 44.3; 30.5; 35.3; 20.1 ]);
    ("ej", 113.4, [ 45.5; 38.8; 38.7; 23.1 ]);
    ("fft", 0.2, [ 20.6; 17.5; 13.4; 0.0 ]);
    ("tri", 8.1, [ 51.6; 37.8; 31.1; 24.4 ]);
    ("lu", 63.8, [ 32.7; 23.6; 19.1; 9.4 ]);
  ]

let fig6_reports = ref []

let fig6 () =
  let fast = Sys.getenv_opt "POWERCODE_FAST" = Some "1" in
  let set = if fast then Workloads.scaled else Workloads.paper_sized in
  section
    (if fast then
       "Figure 6: transition reductions (FAST mode: scaled workloads)"
     else "Figure 6: transition reductions (paper-sized workloads)");
  Format.printf "%-5s %10s %8s | %!" "bench" "#TR(M)" "paper#TR";
  List.iter (fun k -> Format.printf " k=%d ours/paper |" k) [ 4; 5; 6; 7 ];
  Format.printf "@.";
  List.iter
    (fun w ->
      let name = w.Workloads.name in
      (* attribution feeds the per-bitline section of BENCH_encoding.json;
         the ledger feeds its energy section and the ledger printout below;
         [`Auto] additionally scores every region against the registered
         encoder backends and feeds the schemes section *)
      let r =
        Pipeline.Evaluate.evaluate_workload ~attribution:true ~scheme:`Auto
          ~ledger:Ledger.Model.on_chip w
      in
      fig6_reports := (name, r) :: !fig6_reports;
      let _, ptr, ppcts = List.find (fun (n, _, _) -> n = name) paper_fig6 in
      Format.printf "%-5s %10.2f %8.1f |" name
        (float_of_int r.Pipeline.Evaluate.baseline_transitions /. 1e6)
        ptr;
      List.iter2
        (fun (run : Pipeline.Evaluate.encoded_run) ppct ->
          Format.printf "  %4.1f/%4.1f  |" run.Pipeline.Evaluate.reduction_pct ppct)
        r.Pipeline.Evaluate.runs ppcts;
      Format.printf "  (coverage %.0f%%)@.%!" r.Pipeline.Evaluate.coverage_pct)
    set;
  Format.printf
    "Shapes to check against the paper: reductions shrink as k grows on \
     fully covered kernels; fft is the weakest (many very short blocks in \
     its hot loops); bus-invert (below) is ineffective by contrast.@."

let fig7 () =
  section "Figure 7: percentage reduction comparison (bar view of Figure 6)";
  let reports = List.rev !fig6_reports in
  List.iter
    (fun (name, (r : Pipeline.Evaluate.report)) ->
      Format.printf "%-5s@." name;
      List.iter
        (fun (run : Pipeline.Evaluate.encoded_run) ->
          let bar =
            String.make
              (max 0 (int_of_float (run.Pipeline.Evaluate.reduction_pct /. 2.0)))
              '#'
          in
          Format.printf "  k=%d %-26s %.1f%%@." run.Pipeline.Evaluate.k bar
            run.Pipeline.Evaluate.reduction_pct)
        r.Pipeline.Evaluate.runs)
    reports

let businvert_baseline () =
  section "Baseline: bus-invert coding on the same fetch streams";
  Format.printf "%-5s %14s %14s %10s@." "bench" "baseline" "bus-invert" "saved";
  List.iter
    (fun (name, (r : Pipeline.Evaluate.report)) ->
      Format.printf "%-5s %14d %14d %9.2f%%@." name
        r.Pipeline.Evaluate.baseline_transitions
        r.Pipeline.Evaluate.businvert_transitions
        (100.0
        *. (1.0
           -. float_of_int r.Pipeline.Evaluate.businvert_transitions
              /. float_of_int r.Pipeline.Evaluate.baseline_transitions)))
    (List.rev !fig6_reports);
  Format.printf
    "=> the general-purpose encoder saves well under 1%% on instruction \
     streams, the contrast the related-work section draws.@."

(* ---- Section 7.2: hardware cost ---------------------------------------------------- *)

let hw_cost () =
  section "Section 7.2: hardware overhead";
  List.iter
    (fun k ->
      let r = Hardware.Cost.report ~k ~tt_entries:16 ~fn_count:8 () in
      Format.printf "  %a@." Hardware.Cost.pp r)
    [ 4; 5; 6; 7 ];
  Format.printf
    "Paper: a 16-entry TT at k=7 'handles 7*16 = 112 instructions'; the \
     exact one-bit-overlap coverage is 7 + 15*6 = 97.@."

(* ---- Ablations ----------------------------------------------------------------------- *)

let ablation_chain () =
  section "Ablation: greedy vs exact-DP chain encoding (random streams)";
  Format.printf "%4s %14s %14s %10s@." "k" "greedy avg%" "optimal avg%" "gap";
  List.iter
    (fun k ->
      let trials = 30 in
      let sg = ref 0.0 and so = ref 0.0 in
      for seed = 1 to trials do
        let s = seeded_stream ((seed * 131) + k) 600 in
        let t0 = float_of_int (Bitutil.Bitvec.transitions s) in
        let g = Powercode.Chain.encode_greedy ~k s in
        let o = Powercode.Chain.encode_optimal ~k s in
        sg := !sg +. (100.0 *. (1.0 -. (float_of_int (Bitutil.Bitvec.transitions g.Powercode.Chain.code) /. t0)));
        so := !so +. (100.0 *. (1.0 -. (float_of_int (Bitutil.Bitvec.transitions o.Powercode.Chain.code) /. t0)))
      done;
      let ag = !sg /. float_of_int trials and ao = !so /. float_of_int trials in
      Format.printf "%4d %13.2f%% %13.2f%% %9.3f@." k ag ao (ao -. ag))
    [ 2; 3; 4; 5; 6; 7 ]

let ablation_subset () =
  section "Ablation: transformation universe (16 vs paper-8 vs minimal-6)";
  let w = Workloads.by_name Workloads.scaled "mmul" in
  let c = Workloads.compile w in
  let program = c.Minic.Compile.program in
  Format.printf "%10s %14s %12s@." "universe" "transitions" "reduction";
  List.iter
    (fun (label, mask) ->
      let r =
        Pipeline.Evaluate.evaluate ~ks:[ 5 ] ~subset_mask:mask ~name:label
          program
      in
      match r.Pipeline.Evaluate.runs with
      | [ run ] ->
          Format.printf "%10s %14d %11.2f%%@." label
            run.Pipeline.Evaluate.transitions
            run.Pipeline.Evaluate.reduction_pct
      | _ -> assert false)
    [
      ("all-16", Powercode.Boolfun.full_mask);
      ("paper-8", Powercode.Subset.paper_eight_mask);
      ("minimal-6", Powercode.Subset.canonical_mask ());
      ( "identity",
        Powercode.Boolfun.mask_of_list [ Powercode.Boolfun.identity ] );
    ];
  Format.printf
    "=> the restricted sets lose essentially nothing on real code, the \
     design point the hardware's 3-bit indices rely on.@."

let ablation_tt_capacity () =
  section "Ablation: Transformation Table capacity (design-space sweep)";
  let w = Workloads.by_name Workloads.scaled "sor" in
  let c = Workloads.compile w in
  Format.printf "%8s %14s %12s@." "entries" "transitions" "reduction";
  List.iter
    (fun tt ->
      let r =
        Pipeline.Evaluate.evaluate ~ks:[ 5 ] ~tt_capacity:tt
          ~name:(string_of_int tt) c.Minic.Compile.program
      in
      match r.Pipeline.Evaluate.runs with
      | [ run ] ->
          Format.printf "%8d %14d %11.2f%%@." tt run.Pipeline.Evaluate.transitions
            run.Pipeline.Evaluate.reduction_pct
      | _ -> assert false)
    [ 2; 4; 8; 16; 32; 64 ];
  Format.printf
    "=> savings saturate once the table covers the hot loop bodies; the \
     paper's 16 entries sit near the knee for compiler-typical block sizes.@."

(* ---- Analysis: where on the word do the savings come from? ------------------ *)

let per_line_analysis () =
  section "Analysis: per-bit-line transitions (MIPS field structure)";
  let r =
    Pipeline.Evaluate.evaluate_workload ~ks:[ 5 ] ~attribution:true
      (Workloads.by_name Workloads.scaled "mmul")
  in
  let a = Option.get r.Pipeline.Evaluate.attribution in
  let pb = a.Trace.Attribution.line_baseline in
  let pe = a.Trace.Attribution.line_encoded.(0) in
  let field line =
    (* MIPS I-type fields, which dominate compiled code *)
    if line >= 26 then "opcode"
    else if line >= 21 then "rs"
    else if line >= 16 then "rt"
    else "imm/rd/funct"
  in
  Format.printf "%4s %-12s %12s %12s %8s@." "line" "field" "baseline"
    "encoded" "saved";
  for line = 31 downto 0 do
    Format.printf "%4d %-12s %12d %12d %7.1f%%@." line (field line) pb.(line)
      pe.(line)
      (if pb.(line) = 0 then 0.0
       else 100.0 *. (1.0 -. (float_of_int pe.(line) /. float_of_int pb.(line))))
  done;
  Format.printf
    "=> the register and immediate fields toggle most (operands vary \
     instruction to instruction) and also yield the bulk of the savings; \
     opcode lines are quieter, matching the vertical-stream intuition of \
     Figure 1.@."

(* ---- Ablation: what do basic-block boundaries cost? ------------------------ *)

let ablation_bb_boundaries () =
  section "Ablation: cost of basic-block boundaries (static upper bound)";
  Format.printf
    "Encoding cannot cross branch targets (the decoder would desynchronise); \
     this compares real per-block encoding against an idealised single chain \
     over the whole image, statically.@.";
  Format.printf "%-5s %10s %14s %16s@." "bench" "static TR" "per-block saved"
    "one-chain bound";
  List.iter
    (fun w ->
      let c = Workloads.compile w in
      let program = c.Minic.Compile.program in
      let words = Isa.Program.words program in
      let m = Bitutil.Bitmat.of_words ~width:32 words in
      let static = Bitutil.Bitmat.transitions m in
      (* idealised: one chain per line over the whole image *)
      let ideal =
        Array.init 32 (fun line ->
            let col = Bitutil.Bitmat.column m line in
            let e =
              Powercode.Chain.encode_greedy
                ~subset_mask:Powercode.Subset.paper_eight_mask ~k:5 col
            in
            Bitutil.Bitvec.transitions e.Powercode.Chain.code)
        |> Array.fold_left ( + ) 0
      in
      (* real: per basic block, every block encoded (no TT limit), counted
         over the whole stored image including inter-block seams *)
      let blocks = Cfg.Block.partition (Isa.Program.insns program) in
      let config =
        {
          (Powercode.Program_encoder.default_config ()) with
          Powercode.Program_encoder.tt_capacity = max_int / 2;
        }
      in
      let image = Array.copy words in
      Array.iter
        (fun (b : Cfg.Block.t) ->
          if b.Cfg.Block.len >= 2 then begin
            let body =
              Bitutil.Bitmat.of_words ~width:32
                (Array.sub words b.Cfg.Block.start b.Cfg.Block.len)
            in
            let enc = Powercode.Program_encoder.encode_block config body in
            Array.blit
              (Bitutil.Bitmat.words enc.Powercode.Program_encoder.encoded)
              0 image b.Cfg.Block.start b.Cfg.Block.len
          end)
        blocks;
      let per_block =
        Bitutil.Bitmat.transitions (Bitutil.Bitmat.of_words ~width:32 image)
      in
      let pct x = 100.0 *. (1.0 -. (float_of_int x /. float_of_int static)) in
      Format.printf "%-5s %10d %13.1f%% %15.1f%%@." w.Workloads.name static
        (pct per_block) (pct ideal))
    Workloads.scaled;
  Format.printf
    "(the gap combines seam losses between blocks, pass-through head \
     instructions, and blocks too short to encode -- the structural price \
     of branchability the paper accepts.)@."

(* ---- Extension: longer histories (the paper's unexplored h > 1) ---------- *)

let multihistory () =
  section "Extension: history length sweep (the paper stops at h = 1)";
  Format.printf
    "%4s | %-24s | %-24s | %-24s@." "k" "h=1 RTN (impr)" "h=2 RTN (impr)"
    "h=3 RTN (impr)";
  List.iter
    (fun k ->
      Format.printf "%4d |" k;
      List.iter
        (fun h ->
          let t = Powercode.Multihistory.totals ~h ~k in
          Format.printf " %6d (%5.1f%%)         |" t.Powercode.Multihistory.rtn
            t.Powercode.Multihistory.improvement_pct)
        [ 1; 2; 3 ];
      Format.printf "@.")
    [ 2; 3; 4; 5; 6; 7 ];
  Format.printf
    "=> longer histories are surprisingly potent at large block sizes (k=7: \
     38.5%% -> 59.4%% -> 73.4%%), because more equations become satisfiable \
     per block -- but the function space squares each step (16 -> 256 -> \
     65536) and with it the per-line index bits (3 -> 8 -> 16), eroding the \
     TT frugality that motivates the paper's h = 1 choice.@."

(* ---- Extension: storage-type invariance (paper section 8 claim) --------- *)

let storage_invariance () =
  section
    "Extension: 'the type of storage bears no impact' (I-cache experiment)";
  let w = Workloads.by_name Workloads.scaled "mmul" in
  let c = Workloads.compile w in
  let program = c.Minic.Compile.program in
  let words = Isa.Program.words program in
  let system =
    (List.hd (Pipeline.Evaluate.prepare ~ks:[ 5 ] program))
      .Pipeline.Evaluate.rebuild ()
  in
  let cache_cfg = { Machine.Icache.lines = 8; words_per_line = 4 } in
  let cache_base = Machine.Icache.create cache_cfg ~image:words in
  let cache_enc =
    Machine.Icache.create cache_cfg ~image:system.Hardware.Reprogram.image
  in
  let proc_base = Buspower.Buscount.create () in
  let proc_enc = Buspower.Buscount.create () in
  let state = Machine.Cpu.create_state () in
  let on_fetch ~pc =
    let wb, _ = Machine.Icache.access cache_base ~pc in
    let we, _ = Machine.Icache.access cache_enc ~pc in
    Buspower.Buscount.observe proc_base wb;
    Buspower.Buscount.observe proc_enc we
  in
  let result = Machine.Cpu.run ~on_fetch program state in
  let sb = Machine.Icache.stats cache_base in
  let se = Machine.Icache.stats cache_enc in
  let pb = Buspower.Buscount.total proc_base in
  let pe = Buspower.Buscount.total proc_enc in
  Format.printf
    "mmul (scaled), %d fetches, 8x4-word direct-mapped I-cache, miss rate \
     %.2f%%@."
    result.Machine.Cpu.instructions
    (100.0 *. float_of_int sb.Machine.Icache.misses
    /. float_of_int sb.Machine.Icache.accesses);
  Format.printf
    "  processor-side bus:  baseline %d, encoded %d (%.1f%% saved) -- \
     identical savings with or without a cache@."
    pb pe
    (100.0 *. (1.0 -. (float_of_int pe /. float_of_int pb)));
  Format.printf
    "  memory-side refills: baseline %d transitions / %d words, encoded %d \
     (%.1f%% saved through the static layout)@."
    sb.Machine.Icache.memory_transitions sb.Machine.Icache.memory_words
    se.Machine.Icache.memory_transitions
    (100.0
    *. (1.0
       -. float_of_int se.Machine.Icache.memory_transitions
          /. float_of_int sb.Machine.Icache.memory_transitions))

(* ---- Extension: the address bus under T0 ---------------------------------- *)

let address_bus () =
  section "Extension: address bus alongside (T0 / Gray on the PC trace)";
  Format.printf "%-5s %14s %12s %12s@." "bench" "raw addr bus" "T0 (saved)"
    "Gray (saved)";
  List.iter
    (fun w ->
      let c = Workloads.compile w in
      let t0 = Buspower.T0.create ~width:16 () in
      let raw = Buspower.Buscount.create ~width:16 () in
      let gray = Buspower.Buscount.create ~width:16 () in
      let state = Machine.Cpu.create_state () in
      let on_fetch ~pc =
        Buspower.T0.observe t0 pc;
        Buspower.Buscount.observe raw pc;
        Buspower.Buscount.observe gray (Buspower.Gray.encode pc)
      in
      let _ = Machine.Cpu.run ~on_fetch c.Minic.Compile.program state in
      let r = Buspower.Buscount.total raw
      and t = Buspower.T0.transitions t0
      and g = Buspower.Buscount.total gray in
      let pct x = 100.0 *. (1.0 -. (float_of_int x /. float_of_int r)) in
      Format.printf "%-5s %14d %5.1f%% %5.1f%%@." w.Workloads.name r (pct t)
        (pct g))
    Workloads.scaled;
  Format.printf
    "=> the sequentiality the T0 paper exploits is real: combining address \
     and data-bus encodings attacks the whole instruction path.@."

let ablation_compiler () =
  section "Ablation: compiler quality (O0 naive vs O1 folding+regalloc)";
  Format.printf
    "The paper compiled with a production toolchain; ours is simpler.  This \
     sweep shows how code quality moves the encoding's efficacy (shorter \
     loop bodies fit the TT at smaller k, restoring the paper's decay \
     shape).@.";
  Format.printf "%-5s %6s | %18s | %18s@." "bench" "level" "dynamic insns"
    "reduction k=4/5/6/7";
  List.iter
    (fun w ->
      List.iter
        (fun (label, opt) ->
          let c = Minic.Compile.compile ~opt w.Workloads.source in
          let r =
            Pipeline.Evaluate.evaluate ~name:w.Workloads.name
              c.Minic.Compile.program
          in
          Format.printf "%-5s %6s | %18d |" w.Workloads.name label
            r.Pipeline.Evaluate.instructions;
          List.iter
            (fun (run : Pipeline.Evaluate.encoded_run) ->
              Format.printf " %5.1f" run.Pipeline.Evaluate.reduction_pct)
            r.Pipeline.Evaluate.runs;
          Format.printf "@.")
        [ ("O0", Minic.Compile.O0); ("O1", Minic.Compile.O1) ])
    [ Workloads.by_name Workloads.scaled "sor";
      Workloads.by_name Workloads.scaled "mmul" ]

(* ---- Extension: workloads beyond the paper's six ---------------------------- *)

let extended_reports = ref []

let extended_workloads () =
  section "Extension: additional DSP kernels (FIR / IIR / DCT)";
  Format.printf "%-5s %10s | %s@." "bench" "#TR" "reduction k=4/5/6/7";
  List.iter
    (fun w ->
      let r =
        Pipeline.Evaluate.evaluate_workload ~attribution:true ~scheme:`Auto
          ~ledger:Ledger.Model.on_chip w
      in
      extended_reports := (w.Workloads.name, r) :: !extended_reports;
      Format.printf "%-5s %10d |" w.Workloads.name
        r.Pipeline.Evaluate.baseline_transitions;
      List.iter
        (fun (run : Pipeline.Evaluate.encoded_run) ->
          Format.printf " %5.1f" run.Pipeline.Evaluate.reduction_pct)
        r.Pipeline.Evaluate.runs;
      Format.printf "  (coverage %.0f%%)@." r.Pipeline.Evaluate.coverage_pct)
    Workloads.extended;
  Format.printf
    "=> the technique generalises beyond the paper's suite to the DSP \
     kernels its introduction motivates.@."

(* ---- Energy ledger: net savings after charging the overheads ---------------- *)

let energy_ledger () =
  section "Energy ledger: net savings after overheads (on-chip model)";
  let reports = List.rev !fig6_reports @ List.rev !extended_reports in
  List.iter
    (fun (_, (r : Pipeline.Evaluate.report)) ->
      match r.Pipeline.Evaluate.ledger with
      | Some sheet -> Format.printf "%a@." Ledger.Sheet.pp sheet
      | None -> ())
    reports;
  Format.printf
    "=> the bus savings survive the support hardware on the small block \
     sizes; `powercode report` renders the full dashboard, and the ledger \
     section of BENCH_encoding.json carries the itemized counts.@."

(* ---- Scheme selection: which encoder backend wins each region? --------------- *)

let scheme_table () =
  section "Scheme selection: auto-chosen encoder backends (per benchmark, per k)";
  let reports = List.rev !fig6_reports @ List.rev !extended_reports in
  Format.printf "%-5s %3s | %12s %12s %9s | %s@." "bench" "k" "auto energy"
    "tt energy" "reverted" "regions by scheme";
  List.iter
    (fun (name, (r : Pipeline.Evaluate.report)) ->
      List.iter
        (fun (s : Pipeline.Evaluate.scheme_run) ->
          Format.printf "%-5s %3d | %12.4e %12.4e %9b |" name
            s.Pipeline.Evaluate.srun_k s.Pipeline.Evaluate.auto_energy_j
            s.Pipeline.Evaluate.tt_energy_j s.Pipeline.Evaluate.reverted;
          List.iter
            (fun (scheme, n) -> Format.printf " %s=%d" scheme n)
            s.Pipeline.Evaluate.scheme_counts;
          Format.printf "@.")
        r.Pipeline.Evaluate.schemes)
    reports;
  Format.printf
    "=> the selector charges each alternative its redundant-line seams and \
     side-table reads; on these kernels the application-specific TT scheme \
     wins every region, and the commit rule guarantees auto never reports \
     more energy than all-TT.  `--scheme <name>` on the CLI forces a \
     backend for comparison.@."

(* ---- Raw-speed campaign: domains sweep, plan cache, allocation counts ------ *)

(* The sweep repins POWERCODE_DOMAINS per leg; both Parpool env variables
   are consulted on every call, so the pool re-sizes (lazily, grow-only)
   without restarting the process.  Restoring to "" behaves like unset:
   the parser rejects the empty string and falls back to the default. *)
let with_domains n f =
  let saved = Sys.getenv_opt "POWERCODE_DOMAINS" in
  Unix.putenv "POWERCODE_DOMAINS" (string_of_int n);
  Fun.protect
    ~finally:(fun () ->
      Unix.putenv "POWERCODE_DOMAINS" (Option.value saved ~default:""))
    f

(* The self-relative speed ratios the gate floors (bench/compare.ml), in
   the order the sweeps below record them; written as the JSON's
   [speedups] object, which the exact diff skips. *)
let speedups = ref []
let record_speedup name ratio = speedups := !speedups @ [ (name, ratio) ]

type throughput_leg = {
  requested_domains : int;
  leg_domains : int;  (** worker_count () + 1 as the leg actually ran *)
  campaign_injections : int;
  campaign_s : float;
}

let throughput_legs = ref []

let throughput_sweep () =
  section "Throughput sweep: fault campaign vs domain count";
  let fast = Sys.getenv_opt "POWERCODE_FAST" = Some "1" in
  let benches =
    List.map
      (Workloads.by_name Workloads.scaled)
      [ "sor"; "fft"; "tri" ]
  in
  let injections = if fast then 150 else 400 in
  let campaign_config =
    { Fault.Campaign.seed = 7; injections; ks = [ 4; 5 ]; benches }
  in
  let reference_totals = ref None in
  let leg requested =
    with_domains requested (fun () ->
        let leg_domains = Powercode.Parpool.worker_count () + 1 in
        let t0 = Unix.gettimeofday () in
        let report = Fault.Campaign.run campaign_config in
        let campaign_s = Unix.gettimeofday () -. t0 in
        (* classification must not depend on the domain count; the gate for
           this is test/test_fault.ml, but the bench double-checks for free *)
        (match !reference_totals with
        | None -> reference_totals := Some report.Fault.Campaign.totals
        | Some t -> assert (t = report.Fault.Campaign.totals));
        {
          requested_domains = requested;
          leg_domains;
          campaign_injections = injections;
          campaign_s;
        })
  in
  (* in this order: the pool only grows, so a wider leg first would leave
     idle domains behind in the narrower ones *)
  let d1 = leg 1 in
  let d2 = leg 2 in
  let dmax = leg Powercode.Parpool.max_workers in
  throughput_legs := [ d1; d2; dmax ];
  record_speedup "campaign_speedup" (d1.campaign_s /. dmax.campaign_s);
  Format.printf "%9s %8s | %12s %14s@." "requested" "domains" "campaign (s)"
    "injections/s";
  List.iter
    (fun l ->
      Format.printf "%9d %8d | %12.2f %14.0f@." l.requested_domains
        l.leg_domains l.campaign_s
        (float_of_int l.campaign_injections /. l.campaign_s))
    !throughput_legs;
  Format.printf
    "(cores here: %d; classification totals verified identical on every \
     leg — the parallel campaign is a pure function of the seed.)@."
    (Domain.recommended_domain_count ())

(* ---- Plan cache: repeated evaluate, cold vs warm ---------------------------- *)

let plan_cache_counts = ref None

let plan_cache_sweep () =
  section "Plan cache: repeated prepare and evaluate, cold vs warm";
  let w = Workloads.by_name Workloads.scaled "mmul" in
  let program = (Workloads.compile w).Minic.Compile.program in
  let time f =
    let t0 = Unix.gettimeofday () in
    f ();
    Unix.gettimeofday () -. t0
  in
  (* [prepare] is the phase the cache fronts (the recorded run + block
     selection + one plan per k).  Cold samples each clear the cache
     first; the final clear is the baseline for the hit/miss counters,
     leaving the exact one-miss-three-hits pattern the gate diffs. *)
  let run () = ignore (Pipeline.Evaluate.prepare program) in
  run ();
  (* warm-up: process-global memo caches (codetables) out of the picture *)
  let cold_reps = 3 in
  let cold_total = ref 0.0 in
  for _ = 1 to cold_reps do
    Pipeline.Evaluate.Plan_cache.clear ();
    cold_total := !cold_total +. time run
  done;
  let cold_s = !cold_total /. float_of_int cold_reps in
  let warm_runs = 3 in
  let warm_total = time (fun () -> for _ = 1 to warm_runs do run () done) in
  let warm_s = warm_total /. float_of_int warm_runs in
  (* counted since the last clear in the cold loop: one miss (the final
     cold prepare) then three hits — a function of the call sequence
     alone, so the regression gate diffs these two exactly *)
  let hits, misses = Pipeline.Evaluate.Plan_cache.stats () in
  (* Whole evaluates, timed after the counters are read so the exact pair
     above stays a function of the prepare sequence alone.  A warm
     evaluate replays the cached recording instead of running the
     program, so the gate floors it against a cold one.  A warm one takes
     a fraction of a millisecond, which one preemption would double, so
     both sides are the fastest of their samples. *)
  let evaluate () =
    ignore (Pipeline.Evaluate.evaluate ~name:w.Workloads.name program)
  in
  let fastest reps ~before =
    let best = ref infinity in
    for _ = 1 to reps do
      before ();
      best := Float.min !best (time evaluate)
    done;
    !best
  in
  let evaluate_cold_s =
    fastest cold_reps ~before:Pipeline.Evaluate.Plan_cache.clear
  in
  let evaluate_warm_s = fastest 10 ~before:ignore in
  plan_cache_counts := Some (hits, misses);
  record_speedup "prepare_warm_speedup" (cold_s /. warm_s);
  record_speedup "evaluate_warm_speedup" (evaluate_cold_s /. evaluate_warm_s);
  Format.printf
    "  prepare: cold %.1f ms x%d (recorded run + plans), warm %.1f ms x%d \
     (cache hit): %.2fx@."
    (cold_s *. 1e3) cold_reps (warm_s *. 1e3) warm_runs (cold_s /. warm_s);
  Format.printf
    "  evaluate: cold %.1f ms, warm %.2f ms (fastest; replayed, no program \
     run): %.2fx@."
    (evaluate_cold_s *. 1e3) (evaluate_warm_s *. 1e3)
    (evaluate_cold_s /. evaluate_warm_s);
  Format.printf "  plan-cache hits %d, misses %d (exact, gated)@." hits misses

(* ---- Allocation accounting: before/after the zero-alloc encode core --------- *)

let alloc_rows = 24
let alloc_measurement = ref None

let alloc_accounting () =
  section "Allocation: minor words per block encode (before/after)";
  (* 24 x 32 = 768 bits sits under the parallel fan-out threshold, so both
     paths run entirely on this domain and Gc.minor_words sees every word
     they allocate *)
  let block_words =
    let st = ref 991 in
    Array.init alloc_rows (fun _ ->
        st := !st lxor (!st lsl 13);
        st := !st lxor (!st lsr 7);
        st := !st lxor (!st lsl 17);
        !st land 0xffffffff)
  in
  let matrix = Bitutil.Bitmat.of_words ~width:32 block_words in
  let config = Powercode.Program_encoder.default_config () in
  (* the pre-arena shape of encode_block: one Bitvec per column, each chain
     encoded separately, reassembled with of_columns *)
  let legacy () =
    let cols =
      Array.init 32 (fun b ->
          let col = Bitutil.Bitmat.column matrix b in
          let e =
            Powercode.Chain.encode_greedy
              ~subset_mask:config.Powercode.Program_encoder.subset_mask
              ~k:config.Powercode.Program_encoder.k col
          in
          e.Powercode.Chain.code)
    in
    ignore (Bitutil.Bitmat.of_columns cols)
  in
  let arena () =
    ignore (Powercode.Program_encoder.encode_block config matrix)
  in
  let minor_words_per f =
    f ();
    (* warm-up: code tables and scratch build once, outside the count *)
    let reps = 64 in
    let w0 = Gc.minor_words () in
    for _ = 1 to reps do
      f ()
    done;
    (Gc.minor_words () -. w0) /. float_of_int reps
  in
  let before = minor_words_per legacy in
  let after = minor_words_per arena in
  alloc_measurement := Some (before, after);
  Format.printf "  before (column Bitvecs): %10.0f minor words/block@." before;
  Format.printf "  after  (scratch arena):  %10.0f minor words/block@." after;
  Format.printf
    "  %.1fx fewer; what remains is the result matrix and TT entries — the \
     chain inner loop itself no longer allocates.@."
    (before /. Float.max 1.0 after)

(* ---- Observability: sampler exercise, pool utilization, exposition -------- *)

(* One more evaluate feeds the metrics, then the live sampler runs over a
   fixed wall window and the OpenMetrics exposition of everything recorded
   so far is validated.  The pool and GC counters themselves are printed by
   the telemetry section and embedded in the JSON's [telemetry] object. *)

let sampler_interval_ms = 10
let sampler_window_s = 0.15
let openmetrics_valid = ref None

let observability_sweep () =
  section "Observability: live sampler, pool utilization, exposition";
  let w = Workloads.by_name Workloads.scaled "tri" in
  let program = (Workloads.compile w).Minic.Compile.program in
  ignore (Pipeline.Evaluate.evaluate ~ks:[ 5 ] ~name:w.Workloads.name program);
  let lines = ref 0 in
  let sampler =
    Telemetry.Sampler.start
      ~interval_s:(float_of_int sampler_interval_ms /. 1e3)
      ~sink:(fun _line -> incr lines)
      ()
  in
  Unix.sleepf sampler_window_s;
  Telemetry.Sampler.stop sampler;
  (* the sink runs on the sampler domain; stop joins it, so the count is
     settled and must agree with the sampler's own *)
  assert (!lines = Telemetry.Sampler.samples sampler);
  Format.printf "  sampler: %d samples at %d ms over a %.0f ms window@."
    !lines sampler_interval_ms (sampler_window_s *. 1e3);
  let c = Telemetry.Metrics.counter_total in
  let busy = c Telemetry.Registry.parpool_busy_ns in
  let idle = c Telemetry.Registry.parpool_idle_ns in
  Format.printf "  pool: width %d, utilization %.1f%%@."
    (Telemetry.Metrics.gauge_value Telemetry.Registry.parpool_width 0)
    (if busy + idle = 0 then 0.0
     else 100.0 *. float_of_int busy /. float_of_int (busy + idle));
  let exposition =
    Telemetry.Openmetrics.to_string (Telemetry.Metrics.freeze ())
  in
  let verdict = Telemetry.Openmetrics.validate exposition in
  openmetrics_valid := Some (Result.is_ok verdict);
  match verdict with
  | Ok () ->
      Format.printf "  openmetrics exposition: %d bytes, valid@."
        (String.length exposition)
  | Error e -> Format.printf "  openmetrics exposition: INVALID (%s)@." e

(* ---- Event log: pinned-window structured events ----------------------------- *)

(* The gate diffs Stable event counts exactly, so the window must be a
   pure function of the workload: clear the log and the plan cache, then
   run a fixed sequence — two [`Auto] evaluates (the second served
   entirely from the cache) and a small seeded campaign.  Everything the
   window emits is Stable by construction; Runtime events (worker
   lifecycle) fire at pool spawn and process exit, outside any window. *)

type eventlog_measurement = {
  ev_stable : int;
  ev_dropped : int;
  ev_run_id_present : bool;
  ev_levels : (string * int) list;
  ev_slugs : (string * int) list;
}

let eventlog_result = ref None

let eventlog_sweep () =
  section "Event log: pinned-window structured events";
  let w = Workloads.by_name Workloads.scaled "tri" in
  let program = (Workloads.compile w).Minic.Compile.program in
  Telemetry.Log.clear ();
  Pipeline.Evaluate.Plan_cache.clear ();
  ignore
    (Pipeline.Evaluate.evaluate ~ks:[ 4; 5 ] ~scheme:`Auto
       ~name:w.Workloads.name program);
  ignore
    (Pipeline.Evaluate.evaluate ~ks:[ 4; 5 ] ~scheme:`Auto
       ~name:w.Workloads.name program);
  let benches = [ Workloads.by_name Workloads.scaled "sor" ] in
  ignore
    (Fault.Campaign.run
       { Fault.Campaign.seed = 11; injections = 24; ks = [ 5 ]; benches });
  let events = Telemetry.Log.events () in
  let m =
    {
      ev_stable =
        List.length
          (List.filter
             (fun e -> e.Telemetry.Log.stability = Telemetry.Metrics.Stable)
             events);
      ev_dropped = Telemetry.Log.dropped ();
      (* serialize every line; the parse-back proves each carries the run
         id (codec round-trip) *)
      ev_run_id_present =
        List.for_all
          (fun e ->
            match Telemetry.Log.of_json (Telemetry.Log.to_json e) with
            | Ok (id, _) -> id <> ""
            | Error _ -> false)
          events;
      ev_levels = Telemetry.Log.by_level ();
      ev_slugs = Telemetry.Log.by_event ();
    }
  in
  eventlog_result := Some m;
  Format.printf "  window: %d events (%d stable), %d dropped, run_id on all: %b@."
    (List.length events) m.ev_stable m.ev_dropped m.ev_run_id_present;
  List.iter
    (fun (slug, n) -> Format.printf "  %9d  %s@." n slug)
    m.ev_slugs

(* ---- Workload sizes: BENCH_encoding.json ------------------------------------ *)

(* Static instructions in the executed blocks the encoder can take (two or
   more instructions) and dynamic instructions fetched, per workload. *)

type workload_size = { wname : string; static_insns : int; dynamic_insns : int }

let measure_workload w =
  let program = (Workloads.compile w).Minic.Compile.program in
  let blocks = Cfg.Block.partition (Isa.Program.insns program) in
  let profile, result = Cfg.Profile.collect program in
  {
    wname = w.Workloads.name;
    static_insns =
      Array.fold_left
        (fun s (b : Cfg.Block.t) ->
          if Cfg.Profile.block_weight profile b > 0 && b.Cfg.Block.len >= 2
          then s + b.Cfg.Block.len
          else s)
        0 blocks;
    dynamic_insns = result.Machine.Cpu.instructions;
  }

(* ---- Telemetry: where the encode pipeline spends its work ------------------ *)

let telemetry_report () =
  section "Telemetry: encode-pipeline counters and spans";
  Format.printf "%a" Telemetry.Report.pp_human (Telemetry.Metrics.freeze ());
  Format.printf
    "(schema in the Telemetry.Registry module; stable counters are \
     order-independent across POWERCODE_SEQ settings — asserted by \
     test/test_differential.ml.)@."

let bench_encoding_json () =
  let fast = Sys.getenv_opt "POWERCODE_FAST" = Some "1" in
  let set = if fast then Workloads.scaled else Workloads.paper_sized in
  section "Workload sizes (writes BENCH_encoding.json)";
  Format.printf "%-5s %10s %10s@." "bench" "static" "dynamic";
  let sizes = List.map measure_workload set in
  List.iter
    (fun t ->
      Format.printf "%-5s %10d %10d@." t.wname t.static_insns t.dynamic_insns)
    sizes;
  let oc = open_out "BENCH_encoding.json" in
  let p fmt = Printf.fprintf oc fmt in
  p "{\n";
  p "  \"schema\": \"powercode-bench-encoding/9\",\n";
  p "  \"mode\": \"%s\",\n" (if fast then "fast" else "full");
  (* run conditions, so a regression gate can refuse apples-to-oranges
     diffs (bench/compare.ml); cores lets the gate skip parallel speedup
     floors that are physically unattainable on single-core runners *)
  p "  \"settings\": {\"powercode_fast\": %b, \"powercode_seq\": %b, \"domains\": %d, \"cores\": %d},\n"
    fast
    (Powercode.Parpool.sequential_mode ())
    (Powercode.Parpool.worker_count () + 1)
    (Domain.recommended_domain_count ());
  p "  \"block_size_k\": 5,\n";
  (* deterministic evaluation results (Figure 6 + extended workloads):
     transition counts are machine-independent *)
  let evaluations = List.rev !fig6_reports @ List.rev !extended_reports in
  p "  \"evaluations\": [\n";
  let nev = List.length evaluations in
  List.iteri
    (fun i (name, (r : Pipeline.Evaluate.report)) ->
      p "    {\"name\": \"%s\", \"instructions\": %d, " name
        r.Pipeline.Evaluate.instructions;
      p "\"baseline_transitions\": %d, \"businvert_transitions\": %d, "
        r.Pipeline.Evaluate.baseline_transitions
        r.Pipeline.Evaluate.businvert_transitions;
      p "\"coverage_pct\": %.4f, \"runs\": [" r.Pipeline.Evaluate.coverage_pct;
      List.iteri
        (fun j (run : Pipeline.Evaluate.encoded_run) ->
          p "%s{\"k\": %d, \"transitions\": %d, \"reduction_pct\": %.4f, \"tt_used\": %d, \"blocks_encoded\": %d}"
            (if j > 0 then ", " else "")
            run.Pipeline.Evaluate.k run.Pipeline.Evaluate.transitions
            run.Pipeline.Evaluate.reduction_pct run.Pipeline.Evaluate.tt_used
            run.Pipeline.Evaluate.blocks_encoded)
        r.Pipeline.Evaluate.runs;
      p "]}%s\n" (if i = nev - 1 then "" else ","))
    evaluations;
  p "  ],\n";
  (* per-bitline / per-block attribution, exact by construction (sums are
     pinned to the aggregate transition counts by test/test_trace.ml) *)
  let attributions =
    List.filter_map
      (fun (name, (r : Pipeline.Evaluate.report)) ->
        Option.map
          (fun s -> Trace.Attribution.to_json ~name s)
          r.Pipeline.Evaluate.attribution)
      evaluations
  in
  p "  \"attribution\": [\n";
  let natt = List.length attributions in
  List.iteri
    (fun i json -> p "    %s%s\n" json (if i = natt - 1 then "" else ","))
    attributions;
  p "  ],\n";
  (* itemized energy ledgers (schema /4): integer event counts priced under
     the on-chip model; conservation against the evaluations section is
     machine-checked by Pipeline.Evaluate and test/test_ledger.ml *)
  let ledgers =
    List.filter_map
      (fun (_, (r : Pipeline.Evaluate.report)) ->
        Option.map Ledger.Sheet.to_json r.Pipeline.Evaluate.ledger)
      evaluations
  in
  p "  \"ledger\": [\n";
  let nled = List.length ledgers in
  List.iteri
    (fun i json -> p "    %s%s\n" json (if i = nled - 1 then "" else ","))
    ledgers;
  p "  ],\n";
  (* schema /6: per-region encoder-backend selection under [`Auto] — a
     pure function of the program and the energy model, so every leaf is
     diffed exactly by the gate *)
  p "  \"schemes\": [\n";
  List.iteri
    (fun i (name, (r : Pipeline.Evaluate.report)) ->
      p "    {\"name\": \"%s\", \"runs\": [" name;
      List.iteri
        (fun j (s : Pipeline.Evaluate.scheme_run) ->
          p "%s{\"k\": %d, \"transitions\": %d, \"reduction_pct\": %.4f, "
            (if j > 0 then ", " else "")
            s.Pipeline.Evaluate.srun_k s.Pipeline.Evaluate.auto_transitions
            s.Pipeline.Evaluate.auto_reduction_pct;
          p "\"energy_j\": %.6e, \"tt_energy_j\": %.6e, \"reverted\": %b, \
             \"regions\": {"
            s.Pipeline.Evaluate.auto_energy_j s.Pipeline.Evaluate.tt_energy_j
            s.Pipeline.Evaluate.reverted;
          List.iteri
            (fun m (scheme, n) ->
              p "%s\"%s\": %d" (if m > 0 then ", " else "") scheme n)
            s.Pipeline.Evaluate.scheme_counts;
          p "}}")
        r.Pipeline.Evaluate.schemes;
      p "]}%s\n" (if i = nev - 1 then "" else ","))
    evaluations;
  p "  ],\n";
  (* domains sweep: requested/actual widths are exact (the clamp depends
     only on the pool cap); the campaign's speed is in [speedups] *)
  p "  \"throughput\": [\n";
  let nlegs = List.length !throughput_legs in
  List.iteri
    (fun i l ->
      p "    {\"requested_domains\": %d, \"domains\": %d, \"campaign_injections\": %d}%s\n"
        l.requested_domains l.leg_domains l.campaign_injections
        (if i = nlegs - 1 then "" else ","))
    !throughput_legs;
  p "  ],\n";
  (* plan cache: hit/miss counts are a pure function of the call sequence *)
  (match !plan_cache_counts with
  | Some (hits, misses) ->
      p "  \"plan_cache\": {\"hits\": %d, \"misses\": %d},\n" hits misses
  | None -> ());
  (* minor words per block encode on one domain: exact counts *)
  (match !alloc_measurement with
  | Some (before, after) ->
      p "  \"alloc\": {\n";
      p "    \"block_rows\": %d,\n" alloc_rows;
      p "    \"before_minor_words_per_block\": %.1f,\n" before;
      p "    \"after_minor_words_per_block\": %.1f,\n" after;
      p "    \"reduction_factor\": %.2f\n" (before /. Float.max 1.0 after);
      p "  },\n"
  | None -> ());
  (* schema /7: the observability section's structural constants and the
     exposition validator's verdict; the pool and GC figures themselves
     live in [telemetry] *)
  (match !openmetrics_valid with
  | Some valid ->
      p "  \"observability\": {\n";
      p "    \"sampler\": {\"interval_ms\": %d},\n" sampler_interval_ms;
      p "    \"openmetrics\": {\"valid\": %b},\n" valid;
      p "    \"pool\": {\"slots\": %d}\n" Telemetry.Registry.pool_slots;
      p "  },\n"
  | None -> ());
  (* schema /8: pinned-window event-log counts.  Stable counts, the level
     and per-slug tallies and the run_id verdict are pure functions of the
     window's workload *)
  (match !eventlog_result with
  | Some e ->
      p "  \"eventlog\": {\n";
      p "    \"run_id_present\": %b,\n" e.ev_run_id_present;
      p "    \"stable_events\": %d,\n" e.ev_stable;
      p "    \"dropped\": %d,\n" e.ev_dropped;
      p "    \"levels\": {";
      List.iteri
        (fun i (name, n) ->
          p "%s\"%s\": %d" (if i > 0 then ", " else "") name n)
        e.ev_levels;
      p "},\n";
      p "    \"events\": {";
      List.iteri
        (fun i (slug, n) ->
          p "%s\"%s\": %d" (if i > 0 then ", " else "") slug n)
        e.ev_slugs;
      p "}\n";
      p "  },\n"
  | None -> ());
  p "  \"workloads\": [\n";
  List.iteri
    (fun i t ->
      p "    {\"name\": \"%s\", \"static_insns\": %d, \"dynamic_insns\": %d}%s\n"
        t.wname t.static_insns t.dynamic_insns
        (if i = List.length sizes - 1 then "" else ","))
    sizes;
  p "  ],\n";
  (* schema /9: the self-relative ratios bench/compare.ml floors; the exact
     diff skips this section *)
  p "  \"speedups\": {%s},\n"
    (String.concat ", "
       (List.map (fun (name, r) -> Printf.sprintf "\"%s\": %.2f" name r)
          !speedups));
  (* the whole run's metrics: counters, tau/block-size histograms, pool and
     GC gauges, span tree — annotated with per-metric doc and stability so
     the file is self-describing (schema: Telemetry.Registry; documented in
     EXPERIMENTS.md).  The gate ignores this section wholesale. *)
  p "  \"telemetry\": %s\n"
    (Telemetry.Report.to_json_annotated (Telemetry.Metrics.freeze ()));
  p "}\n";
  close_out oc;
  Format.printf "Wrote %s@." (Filename.concat (Sys.getcwd ()) "BENCH_encoding.json")

(* ---- main ------------------------------------------------------------------------------ *)

let () =
  Format.printf
    "Power Efficiency through Application-Specific Instruction Memory \
     Transformations@.(DATE 2003) -- reproduction harness@.";
  Telemetry.Metrics.set_enabled true;
  Telemetry.Log.set_enabled true;
  fig2 ();
  fig3 ();
  fig4 ();
  sec52 ();
  sec6 ();
  fig6 ();
  fig7 ();
  businvert_baseline ();
  hw_cost ();
  ablation_chain ();
  ablation_subset ();
  ablation_tt_capacity ();
  ablation_compiler ();
  ablation_bb_boundaries ();
  per_line_analysis ();
  multihistory ();
  storage_invariance ();
  address_bus ();
  extended_workloads ();
  energy_ledger ();
  scheme_table ();
  (* before the domains sweep grows the pool past the core count, whose
     idle domains slow every stop-the-world minor collection after it *)
  plan_cache_sweep ();
  throughput_sweep ();
  alloc_accounting ();
  observability_sweep ();
  eventlog_sweep ();
  telemetry_report ();
  bench_encoding_json ();
  Format.printf "@.Done.@."
