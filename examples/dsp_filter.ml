(* A realistic embedded-DSP scenario: an FIR filter written in Minic, taken
   through the paper's full flow — compile, profile, pick the hot loops,
   plan the encoding, program the TT/BBIT hardware, and run through the
   fetch-side decoder with a live equivalence check.

   Run with: dune exec examples/dsp_filter.exe *)

let fir_source =
  {|
    // 16-tap FIR filter over a 512-sample buffer
    float x[512];
    float h[16];
    float y[512];

    int main() {
      int i; int j; float acc;
      for (i = 0; i < 512; i = i + 1) {
        x[i] = itof(i % 17) / 8.0 - 1.0;
      }
      for (i = 0; i < 16; i = i + 1) {
        h[i] = 1.0 / itof(i + 2);
      }
      for (i = 15; i < 512; i = i + 1) {
        acc = 0.0;
        for (j = 0; j < 16; j = j + 1) {
          acc = acc + h[j] * x[i - j];
        }
        y[i] = acc;
      }
      print_float(y[511]);
      print_char(10);
      return 0;
    }
  |}

let () =
  Format.printf "== Compiling the FIR kernel ==@.";
  let compiled = Minic.Compile.compile fir_source in
  let program = compiled.Minic.Compile.program in
  Format.printf "%d instructions, %d bytes of global data@."
    (Isa.Program.length program)
    compiled.Minic.Compile.layout.Minic.Codegen.data_size;

  Format.printf "@.== Profiling ==@.";
  let blocks = Cfg.Block.partition (Isa.Program.insns program) in
  let doms = Cfg.Dominator.compute blocks in
  let loops = Cfg.Loop.detect blocks doms in
  let profile, result = Cfg.Profile.collect program in
  Format.printf "%d basic blocks, %d natural loops, %d dynamic instructions@."
    (Array.length blocks) (List.length loops)
    result.Machine.Cpu.instructions;
  let hot = Cfg.Profile.hot_blocks profile blocks in
  List.iteri
    (fun rank b ->
      if rank < 3 then
        Format.printf "  hot block #%d: %a (%d fetches)@." (rank + 1)
          Cfg.Block.pp b
          (Cfg.Profile.block_fetches profile b))
    hot;

  Format.printf "@.== Full evaluation across block sizes ==@.";
  let report =
    Pipeline.Evaluate.evaluate ~ks:[ 4; 5; 6; 7 ] ~verify:true ~name:"fir"
      program
  in
  Format.printf "%a@." Pipeline.Evaluate.pp_report report;
  List.iter
    (fun (run : Pipeline.Evaluate.encoded_run) ->
      assert (run.Pipeline.Evaluate.verified_fetches = report.Pipeline.Evaluate.instructions))
    report.Pipeline.Evaluate.runs;
  Format.printf
    "Every fetch of every configuration went through the hardware decoder \
     model and matched the original instruction.@.";

  Format.printf "@.== Reprogramming traffic ==@.";
  (* how many peripheral writes would the software need before the loop *)
  let system =
    (List.hd (Pipeline.Evaluate.prepare ~ks:[ 5 ] program))
      .Pipeline.Evaluate.rebuild ()
  in
  Format.printf
    "Programming the tables costs %d peripheral writes; the TT stores %d bits.@."
    (Hardware.Reprogram.programming_writes system)
    (Hardware.Tt.storage_bits system.Hardware.Reprogram.tt ~width:32 ~ct_bits:3)
