(* The paper's second deployment mode end to end (§7.1): instead of loading
   the TT/BBIT together with the firmware, a short sequence of ordinary
   store instructions — executed on the simulated CPU against the
   memory-mapped programming port — writes the tables just before the
   application loop runs.

   Run with: dune exec examples/reprogram_loader.exe *)

let hot_loop =
  {|
      li $t0, 64
      li $t1, 0
    loop:
      addu $t1, $t1, $t0
      xor  $t2, $t1, $t0
      ori  $t3, $t2, 4080
      addiu $t0, $t0, -1
      bgtz $t0, loop
      li $v0, 10
      syscall
  |}

let () =
  let program = Isa.Asm.assemble hot_loop in
  let words = Isa.Program.words program in

  (* 1. offline: analyse, plan, encode *)
  (* by hand: prepare orders TT gates by mask, not as Reprogram.build does *)
  let blocks = Cfg.Block.partition (Isa.Program.insns program) in
  let profile, _ = Cfg.Profile.collect program in
  let candidates =
    Array.to_list blocks
    |> List.filter (fun b -> Cfg.Profile.block_weight profile b > 0)
    |> List.map (fun (b : Cfg.Block.t) ->
           {
             Powercode.Program_encoder.start_index = b.Cfg.Block.start;
             body =
               Bitutil.Bitmat.of_words ~width:32
                 (Array.sub words b.Cfg.Block.start b.Cfg.Block.len);
             weight = Cfg.Profile.block_weight profile b;
           })
  in
  let plan =
    Powercode.Program_encoder.plan
      (Powercode.Program_encoder.default_config ~k:4 ())
      candidates
  in
  let golden = Hardware.Reprogram.build program plan in

  (* 2. derive the programming script and the loader code *)
  let script = Hardware.Peripheral.script_of_system golden in
  let loader = Hardware.Peripheral.loader_program script in
  Format.printf
    "Programming script: %d register writes -> %d loader instructions@."
    (List.length script)
    (Isa.Program.length loader);

  (* 3. run the loader on the CPU against FRESH hardware tables *)
  let tt = Hardware.Tt.create () in
  let bbit = Hardware.Bbit.create () in
  let periph = Hardware.Peripheral.create ~tt ~bbit in
  let state = Machine.Cpu.create_state () in
  let result =
    Machine.Cpu.run ~mmio:(Hardware.Peripheral.mmio periph) loader state
  in
  Format.printf "Loader executed %d instructions and exited %d.@."
    result.Machine.Cpu.instructions result.Machine.Cpu.exit_code;

  (* 4. the software-programmed decoder must restore the loop exactly *)
  let dec =
    Hardware.Fetch_decoder.create ~tt ~bbit ~k:4
      ~image:golden.Hardware.Reprogram.image ()
  in
  let baseline = Buspower.Buscount.create () in
  let encoded = Buspower.Buscount.create () in
  let state2 = Machine.Cpu.create_state () in
  let on_fetch ~pc =
    let bus, decoded = Hardware.Fetch_decoder.fetch dec ~pc in
    assert (decoded = words.(pc));
    Buspower.Buscount.observe baseline words.(pc);
    Buspower.Buscount.observe encoded bus
  in
  let run2 = Machine.Cpu.run ~on_fetch program state2 in
  let b = Buspower.Buscount.total baseline in
  let e = Buspower.Buscount.total encoded in
  Format.printf
    "Loop ran %d instructions through the software-programmed decoder: \
     every fetch restored correctly.@."
    run2.Machine.Cpu.instructions;
  Format.printf "Bus transitions: %d -> %d (%.1f%% saved).@." b e
    (100.0 *. (1.0 -. (float_of_int e /. float_of_int b)))
