module Tt = Hardware.Tt
module Bbit = Hardware.Bbit
module Cost = Hardware.Cost
module Fetch_decoder = Hardware.Fetch_decoder
module Reprogram = Hardware.Reprogram
module PE = Powercode.Program_encoder
module Boolfun = Powercode.Boolfun
module Subset = Powercode.Subset

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ---- TT ---------------------------------------------------------------------- *)

let entry taus = { Tt.tau_indices = taus; e_bit = true; ct = 3 }

let test_tt_create_defaults () =
  let tt = Tt.create () in
  check_int "capacity" 16 (Tt.capacity tt);
  check_int "eight gates" 8 (Array.length (Tt.functions tt));
  check_int "3-bit indices" 3 (Tt.fn_index_bits tt)

let test_tt_requires_identity () =
  Alcotest.check_raises "no identity"
    (Invalid_argument "Tt.create: identity gate is mandatory") (fun () ->
      ignore (Tt.create ~functions:[| Boolfun.xor |] ()))

let test_tt_write_read () =
  let tt = Tt.create ~capacity:4 () in
  let e = entry (Array.make 32 0) in
  Tt.write tt ~index:2 e;
  let got = Tt.read tt 2 in
  check_bool "e bit" true got.Tt.e_bit;
  check_int "ct" 3 got.Tt.ct;
  check_int "writes" 1 (Tt.writes_performed tt)

let test_tt_bad_access () =
  let tt = Tt.create ~capacity:4 () in
  Alcotest.check_raises "unprogrammed"
    (Invalid_argument "Tt.read: entry never programmed") (fun () ->
      ignore (Tt.read tt 0));
  Alcotest.check_raises "out of capacity"
    (Invalid_argument "Tt.write: index out of capacity") (fun () ->
      Tt.write tt ~index:4 (entry (Array.make 32 0)));
  Alcotest.check_raises "gate index past the gate set"
    (Invalid_argument "Tt.write: function index out of range") (fun () ->
      Tt.write tt ~index:0 (entry (Array.init 32 (fun l -> l / 3))));
  Alcotest.check_raises "negative gate index"
    (Invalid_argument "Tt.write: function index out of range") (fun () ->
      Tt.write tt ~index:0 (entry (Array.make 32 (-1))));
  check_int "rejected writes are not counted" 0 (Tt.writes_performed tt)

let test_tt_load_rejects_unsupported_gate () =
  let tt = Tt.create ~functions:[| Boolfun.identity |] () in
  let pe_entry =
    { PE.taus = Array.make 32 Boolfun.xor; is_end = true; count = 2 }
  in
  Alcotest.check_raises "xor is not a gate of this table"
    (Invalid_argument
       "Tt.load: transformation x^y is not a supported decode gate")
    (fun () -> Tt.load tt ~base:0 [| pe_entry |]);
  check_int "nothing written" 0 (Tt.writes_performed tt)

(* A gate listed twice decodes through its first slot, as a scan of the
   gate set in order would pick it. *)
let test_tt_load_first_matching_gate () =
  let tt =
    Tt.create ~functions:[| Boolfun.xor; Boolfun.identity; Boolfun.xor |] ()
  in
  Tt.load tt ~base:0
    [| { PE.taus = Array.make 32 Boolfun.xor; is_end = true; count = 1 } |];
  check_int "first xor slot" 0 (Tt.read tt 0).Tt.tau_indices.(31)

let test_tt_storage_bits () =
  let tt = Tt.create () in
  (* 16 entries * (32 lines * 3 bits + 1 E + 3 CT) = 16 * 100 = 1600 *)
  check_int "bits" 1600 (Tt.storage_bits tt ~width:32 ~ct_bits:3)

(* ---- BBIT ----------------------------------------------------------------------- *)

let test_bbit_lookup () =
  let b = Bbit.create ~capacity:4 () in
  Bbit.load b [ { Bbit.pc = 100; tt_base = 0 }; { Bbit.pc = 200; tt_base = 5 } ];
  Alcotest.(check (option int)) "hit" (Some 5) (Bbit.lookup b ~pc:200);
  Alcotest.(check (option int)) "miss" None (Bbit.lookup b ~pc:150);
  check_int "writes" 2 (Bbit.writes_performed b)

let test_bbit_duplicate_pc () =
  let b = Bbit.create ~capacity:4 () in
  Bbit.write b ~slot:0 { Bbit.pc = 1; tt_base = 0 };
  Alcotest.check_raises "duplicate"
    (Invalid_argument "Bbit.write: duplicate block PC") (fun () ->
      Bbit.write b ~slot:1 { Bbit.pc = 1; tt_base = 2 })

(* ---- cost ------------------------------------------------------------------------ *)

let test_cost_report () =
  let r = Cost.report ~k:5 ~tt_entries:16 ~fn_count:8 () in
  check_int "tt bits" 1600 r.Cost.tt_bits;
  check_int "gates" (32 * 8) r.Cost.decode_gate_count;
  (* true one-bit-overlap coverage: 5 + 15*4 = 65 *)
  check_int "coverage" 65 r.Cost.max_instructions_covered

let test_cost_paper_claim_overstated () =
  (* §7.2 claims 7 * 16 = 112 for k = 7; exact arithmetic gives
     7 + 15 * 6 = 97 *)
  let r = Cost.report ~k:7 ~tt_entries:16 ~fn_count:8 () in
  check_int "exact coverage" 97 r.Cost.max_instructions_covered;
  check_bool "paper number overstates" true
    (r.Cost.max_instructions_covered < 112)

(* ---- fetch decoder over a hand-made system ---------------------------------------- *)

(* Build a tiny program whose hot loop gets encoded, then drive the decoder
   through a synthetic fetch sequence and compare with the true words. *)
let tiny_system ?(k = 4) () =
  let src =
    {|
      li $t0, 6
    loop:
      addiu $t0, $t0, -1
      xor $t1, $t0, $t0
      ori $t1, $t1, 21845
      sll $t2, $t1, 1
      srl $t3, $t1, 1
      bgtz $t0, loop
      li $v0, 10
      syscall
    |}
  in
  let program = Isa.Asm.assemble src in
  let words = Isa.Program.words program in
  let blocks = Cfg.Block.partition (Isa.Program.insns program) in
  let profile, _ = Cfg.Profile.collect program in
  let candidates =
    Array.to_list blocks
    |> List.filter (fun b -> Cfg.Profile.block_weight profile b > 0)
    |> List.map (fun (b : Cfg.Block.t) ->
           {
             PE.start_index = b.Cfg.Block.start;
             body =
               Bitutil.Bitmat.of_words ~width:32
                 (Array.sub words b.Cfg.Block.start b.Cfg.Block.len);
             weight = Cfg.Profile.block_weight profile b;
           })
  in
  let config =
    { PE.k; subset_mask = Subset.paper_eight_mask; tt_capacity = 16;
      optimal_chain = false }
  in
  let plan = PE.plan config candidates in
  (program, Reprogram.build program plan)

let test_decoder_restores_whole_run () =
  List.iter
    (fun k ->
      let program, system = tiny_system ~k () in
      let words = Isa.Program.words program in
      let dec = Reprogram.decoder system in
      let state = Machine.Cpu.create_state ~mem_bytes:(64 * 1024) () in
      let checked = ref 0 in
      let on_fetch ~pc =
        let _bus, decoded = Fetch_decoder.fetch dec ~pc in
        if decoded <> words.(pc) then
          Alcotest.failf "k=%d pc=%d: %08x <> %08x" k pc decoded words.(pc);
        incr checked
      in
      let r = Machine.Cpu.run ~on_fetch program state in
      check_int "all fetches checked" r.Machine.Cpu.instructions !checked)
    [ 2; 3; 4; 5; 6; 7 ]

let test_image_actually_differs () =
  let program, system = tiny_system () in
  let words = Isa.Program.words program in
  check_bool "encoding changed the stored image" true
    (system.Reprogram.image <> words)

let test_decoder_bus_carries_stored_word () =
  let program, system = tiny_system () in
  let dec = Reprogram.decoder system in
  let state = Machine.Cpu.create_state ~mem_bytes:(64 * 1024) () in
  let on_fetch ~pc =
    let bus, _ = Fetch_decoder.fetch dec ~pc in
    check_int "bus word is the stored word" system.Reprogram.image.(pc) bus
  in
  ignore (Machine.Cpu.run ~on_fetch program state)

let test_decoder_reset () =
  let _, system = tiny_system () in
  let dec = Reprogram.decoder system in
  check_bool "inactive initially" false (Fetch_decoder.active dec);
  let _ = Fetch_decoder.fetch dec ~pc:1 in
  (* pc 1 is the loop head: activates *)
  check_bool "active in block" true (Fetch_decoder.active dec);
  Fetch_decoder.reset dec;
  check_bool "inactive after reset" false (Fetch_decoder.active dec)

let test_reprogram_does_not_fit () =
  let src = String.concat "\n" (List.init 200 (fun _ -> "nop")) in
  let program = Isa.Asm.assemble (src ^ "\nli $v0, 10\nsyscall") in
  let words = Isa.Program.words program in
  let cand =
    {
      PE.start_index = 0;
      body = Bitutil.Bitmat.of_words ~width:32 (Array.sub words 0 100);
      weight = 1;
    }
  in
  let config =
    { PE.k = 5; subset_mask = Subset.paper_eight_mask; tt_capacity = 32;
      optimal_chain = false }
  in
  let plan = PE.plan config [ cand ] in
  (* the plan wants 1 + ceil(95/4) = 25 entries; hardware has 16 *)
  try
    ignore (Reprogram.build ~tt_capacity:16 program plan);
    Alcotest.fail "expected Does_not_fit"
  with Reprogram.Does_not_fit _ -> ()

(* [stored_image] against [build]: the same image and table-write count,
   or [Does_not_fit] from both with the same message.  Returns whether the
   plan fit. *)
let stored_matches_build ~what ?tt_capacity ?bbit_capacity program plan =
  let outcome f =
    match f () with v -> Ok v | exception Reprogram.Does_not_fit m -> Error m
  in
  match
    ( outcome (fun () ->
          Reprogram.stored_image ?tt_capacity ?bbit_capacity program plan),
      outcome (fun () ->
          Reprogram.build ?tt_capacity ?bbit_capacity program plan) )
  with
  | Ok (image, writes), Ok system ->
      check_bool (what ^ ": image") true (image = system.Reprogram.image);
      check_int (what ^ ": writes")
        (Reprogram.programming_writes system)
        writes;
      true
  | Error a, Error b ->
      Alcotest.(check string) (what ^ ": Does_not_fit") b a;
      false
  | Ok _, Error m -> Alcotest.failf "%s: only build raised (%s)" what m
  | Error m, Ok _ -> Alcotest.failf "%s: only stored_image raised (%s)" what m

(* Each plan at the capacity it was made for, and again with one TT entry
   or one BBIT slot too few, which must not fit. *)
let check_plan_against_build ~what ~tt_capacity program (plan : PE.plan) =
  let fits = stored_matches_build ~what ~tt_capacity program plan in
  let blocks =
    List.length
      (List.filter (fun (p : PE.placement) -> p.encoding <> None)
         plan.placements)
  in
  if plan.tt_used > 0 then
    check_bool (what ^ ": TT one short") false
      (stored_matches_build ~what ~tt_capacity:(plan.tt_used - 1) program plan);
  if blocks > 0 then
    check_bool (what ^ ": BBIT one short") false
      (stored_matches_build ~what ~tt_capacity ~bbit_capacity:(blocks - 1)
         program plan);
  fits

(* Every bench, k = 4..7, four TT sizes and both block selections.  The
   small tables leave block heads partly covered, so the count of such
   placements must be positive for the sweep to mean anything. *)
let test_stored_image_matches_build () =
  let partial = ref 0 and fitted = ref 0 in
  List.iter
    (fun (w : Workloads.t) ->
      let program = (Workloads.compile w).Minic.Compile.program in
      List.iter
        (fun tt_capacity ->
          List.iter
            (fun (selection, sel) ->
              List.iter
                (fun (p : Pipeline.Evaluate.prepared) ->
                  let plan = p.prep_plan in
                  let what =
                    Printf.sprintf "%s k=%d tt=%d %s" w.name p.prep_k
                      tt_capacity sel
                  in
                  if check_plan_against_build ~what ~tt_capacity program plan
                  then incr fitted;
                  List.iter
                    (fun (pl : PE.placement) ->
                      match pl.encoding with
                      | Some enc
                        when Bitutil.Bitmat.rows enc.encoded
                             < Bitutil.Bitmat.rows pl.cand.body ->
                          incr partial
                      | _ -> ())
                    plan.placements)
                (Pipeline.Evaluate.prepare ~tt_capacity ~selection program))
            [ (`Hot_blocks, "blocks"); (`Hot_loops, "loops") ])
        [ 2; 4; 16; 64 ])
    (Workloads.scaled @ Workloads.extended);
  check_bool "some plans fit" true (!fitted > 0);
  check_bool "some block heads partly covered" true (!partial > 0)

let prop_stored_image_random_programs =
  QCheck.Test.make ~name:"random programs: stored_image = build" ~count:20
    (QCheck.make ~print:Fun.id Minic_gen.gen_program) (fun src ->
      let program = (Minic.Compile.compile src).Minic.Compile.program in
      List.iter
        (fun tt_capacity ->
          List.iter
            (fun (p : Pipeline.Evaluate.prepared) ->
              ignore
                (check_plan_against_build
                   ~what:(Printf.sprintf "k=%d tt=%d" p.prep_k tt_capacity)
                   ~tt_capacity program p.prep_plan))
            (Pipeline.Evaluate.prepare ~tt_capacity program))
        [ 2; 16 ];
      true)

let test_programming_writes_counted () =
  let _, system = tiny_system () in
  check_bool "writes happened" true (Reprogram.programming_writes system > 0)

(* ---- the software programming port (§7.1) ----------------------------------- *)

let replay_script_directly script =
  let tt = Tt.create () in
  let bbit = Bbit.create () in
  let periph = Hardware.Peripheral.create ~tt ~bbit in
  let window = Hardware.Peripheral.mmio periph in
  List.iter
    (fun (offset, value) ->
      window.Machine.Cpu.mmio_store ~offset ~value)
    script;
  periph

let tables_equal tt_a tt_b bbit_a bbit_b =
  Tt.programmed tt_a = Tt.programmed tt_b
  && Bbit.entries bbit_a = Bbit.entries bbit_b

let test_peripheral_script_rebuilds_tables () =
  let _, system = tiny_system ~k:5 () in
  let script = Hardware.Peripheral.script_of_system system in
  check_bool "script nonempty" true (List.length script > 0);
  let periph = replay_script_directly script in
  check_bool "tables identical" true
    (tables_equal system.Reprogram.tt
       (Hardware.Peripheral.tt periph)
       system.Reprogram.bbit
       (Hardware.Peripheral.bbit periph))

let test_loader_program_runs_on_cpu () =
  (* the full §7.1 story: a program of sw instructions, executed by the
     simulated CPU against the memory-mapped port, programs the decode
     hardware; the decoder then restores the real loop exactly *)
  let program, system = tiny_system ~k:4 () in
  let script = Hardware.Peripheral.script_of_system system in
  let loader = Hardware.Peripheral.loader_program script in
  let tt = Tt.create () in
  let bbit = Bbit.create () in
  let periph = Hardware.Peripheral.create ~tt ~bbit in
  let state = Machine.Cpu.create_state ~mem_bytes:(64 * 1024) () in
  let result =
    Machine.Cpu.run ~mmio:(Hardware.Peripheral.mmio periph) loader state
  in
  check_int "loader exits cleanly" 0 result.Machine.Cpu.exit_code;
  check_bool "tables programmed by software" true
    (tables_equal system.Reprogram.tt tt system.Reprogram.bbit bbit);
  (* drive the decoder with the software-programmed tables *)
  let dec =
    Fetch_decoder.create ~tt ~bbit ~k:4 ~image:system.Reprogram.image ()
  in
  let words = Isa.Program.words program in
  let state2 = Machine.Cpu.create_state ~mem_bytes:(64 * 1024) () in
  let on_fetch ~pc =
    let _bus, decoded = Fetch_decoder.fetch dec ~pc in
    if decoded <> words.(pc) then Alcotest.failf "pc=%d mismatch" pc
  in
  let _ = Machine.Cpu.run ~on_fetch program state2 in
  ()

let test_peripheral_bad_offset () =
  let periph =
    Hardware.Peripheral.create ~tt:(Tt.create ()) ~bbit:(Bbit.create ())
  in
  let window = Hardware.Peripheral.mmio periph in
  try
    window.Machine.Cpu.mmio_store ~offset:0x99 ~value:0;
    Alcotest.fail "expected rejection"
  with Invalid_argument _ -> ()

let test_peripheral_staged_readback () =
  let periph =
    Hardware.Peripheral.create ~tt:(Tt.create ()) ~bbit:(Bbit.create ())
  in
  let window = Hardware.Peripheral.mmio periph in
  window.Machine.Cpu.mmio_store ~offset:0x00 ~value:7;
  check_int "tt index reads back" 7 (window.Machine.Cpu.mmio_load ~offset:0x00);
  window.Machine.Cpu.mmio_store ~offset:0x1c ~value:1234;
  check_int "bbit pc reads back" 1234 (window.Machine.Cpu.mmio_load ~offset:0x1c)

let test_decoder_rejects_nonsequential_fetch () =
  let _, system = tiny_system ~k:5 () in
  let dec = Reprogram.decoder system in
  (* activate at the loop head (pc 1), then jump somewhere illegal *)
  let _ = Fetch_decoder.fetch dec ~pc:1 in
  let _ = Fetch_decoder.fetch dec ~pc:2 in
  (try
     ignore (Fetch_decoder.fetch dec ~pc:5);
     Alcotest.fail "expected a Decode_sequence fault"
   with Machine.Fault.Fault (Machine.Fault.Decode_sequence _) -> ());
  (* reset recovers *)
  Fetch_decoder.reset dec;
  let _ = Fetch_decoder.fetch dec ~pc:0 in
  ()

let test_decoder_rejects_outside_image () =
  let _, system = tiny_system () in
  let dec = Reprogram.decoder system in
  try
    ignore (Fetch_decoder.fetch dec ~pc:100000);
    Alcotest.fail "expected an Image_out_of_range fault"
  with Machine.Fault.Fault (Machine.Fault.Image_out_of_range _) -> ()

(* ---- firmware bundles -------------------------------------------------------- *)

let test_firmware_roundtrip () =
  let program, system = tiny_system ~k:5 () in
  let text = Hardware.Firmware.to_string system in
  let back = Hardware.Firmware.of_string text in
  Alcotest.(check (array int))
    "image" system.Reprogram.image back.Reprogram.image;
  check_int "k" system.Reprogram.k back.Reprogram.k;
  check_bool "tables" true
    (tables_equal system.Reprogram.tt back.Reprogram.tt system.Reprogram.bbit
       back.Reprogram.bbit);
  (* and the bundle alone reconstructs the executable program *)
  let restored = Hardware.Firmware.restore_program back in
  Alcotest.(check (array int))
    "restored program" (Isa.Program.words program)
    (Isa.Program.words restored)

let test_firmware_restored_program_runs () =
  let program, system = tiny_system ~k:4 () in
  let text = Hardware.Firmware.to_string system in
  let restored = Hardware.Firmware.restore_program (Hardware.Firmware.of_string text) in
  let s1 = Machine.Cpu.create_state ~mem_bytes:(64 * 1024) () in
  let r1 = Machine.Cpu.run program s1 in
  let s2 = Machine.Cpu.create_state ~mem_bytes:(64 * 1024) () in
  let r2 = Machine.Cpu.run restored s2 in
  check_int "same dynamic count" r1.Machine.Cpu.instructions
    r2.Machine.Cpu.instructions;
  Alcotest.(check string)
    "same output" (Machine.Cpu.output s1) (Machine.Cpu.output s2)

(* A bundle from its sections' lines; each count line is given whole, so
   a count can disagree with the lines that follow it. *)
let bundle ?(k = "k 5") ?(functions = [ "functions 1"; "12" ])
    ?(image = [ "image 0" ]) ?(tt = [ "tt 0" ]) ?(bbit = [ "bbit 0" ]) () =
  String.concat "\n"
    ([ "POWERCODE-FIRMWARE v1"; k ] @ functions @ image @ tt @ bbit @ [ "end" ])

(* one TT entry: [index] E=1 CT=1, every line on gate [gate] *)
let tt_row ?(gate = '0') index =
  Printf.sprintf "%d 1 1 %s" index (String.make 32 gate)

let test_firmware_rejects_garbage () =
  let tt1 = [ "tt 1"; tt_row 0 ] in
  List.iter
    (fun (what, text) ->
      match Hardware.Firmware.of_string text with
      | _ -> Alcotest.failf "%s: expected Parse_error" what
      | exception Hardware.Firmware.Parse_error msg ->
          check_bool (what ^ ": on a line") true
            (what = "short" || String.starts_with ~prefix:"line " msg))
    [
      ("short", "");
      ("short", "WRONG MAGIC");
      ("k x", "POWERCODE-FIRMWARE v1\nk x");
      ("gate 99", "POWERCODE-FIRMWARE v1\nk 5\nfunctions 1\n99");
      ("zzzz", "POWERCODE-FIRMWARE v1\nk 5\nfunctions 0\nimage 1\nzzzz");
      ("functions -1", bundle ~functions:[ "functions -1" ] ());
      ("functions 0", bundle ~functions:[ "functions 0" ] ());
      ("no identity gate", bundle ~functions:[ "functions 1"; "3" ] ());
      ("tt index 40", bundle ~tt:[ "tt 1"; tt_row 40 ] ());
      ("gate digit 5", bundle ~tt:[ "tt 1"; tt_row ~gate:'5' 0 ] ());
      ("duplicate bbit pc", bundle ~tt:tt1 ~bbit:[ "bbit 2"; "3 0"; "3 0" ] ());
      ("k 0", bundle ~k:"k 0" ());
      ("unprogrammed base", bundle ~tt:tt1 ~bbit:[ "bbit 1"; "3 7" ] ());
      ("image count past the end", bundle ~image:[ "image 3"; "0" ] ());
      ("tt count past the end", bundle ~tt:[ "tt 9" ] ());
    ];
  (* a word no instruction encodes parses, but does not restore *)
  let system = Hardware.Firmware.of_string (bundle ~image:[ "image 1"; "ffffffff" ] ()) in
  match Hardware.Firmware.restore_program system with
  | _ -> Alcotest.fail "expected Unknown_instruction"
  | exception Isa.Word.Unknown_instruction w -> check_int "word" 0xffffffff w

(* Mutated bundles, built from real [to_string] output (the tiny system
   and two compiled kernels, k = 4..7): lines dropped, duplicated or
   swapped in from another bundle, fragments spliced into them,
   characters cut.  [of_string] must return or raise [Parse_error], and a
   bundle it returns must restore or raise one of [restore_program]'s two
   typed exceptions.  Every spliced count stays small. *)
let bundle_corpus =
  let systems =
    List.map (fun k -> snd (tiny_system ~k ())) [ 4; 5; 6; 7 ]
    @ List.concat_map
        (fun name ->
          let w = Workloads.by_name Workloads.scaled name in
          List.map
            (fun p -> p.Pipeline.Evaluate.rebuild ())
            (Pipeline.Evaluate.prepare
               (Workloads.compile w).Minic.Compile.program))
        [ "tri"; "mmul" ]
  in
  Array.of_list
    (List.map
       (fun s ->
         Array.of_list
           (String.split_on_char '\n' (Hardware.Firmware.to_string s)))
       systems)

let bundle_fragments =
  [| ""; " "; "-1"; "0"; "1"; "2"; "3"; "5"; "7"; "12"; "15"; "16"; "40";
     "ffffffff"; "99999999999999999999"; "zz"; "end"; "k"; "functions";
     "image"; "tt"; "bbit" |]

let mutated_bundle =
  let open QCheck.Gen in
  let corpus = bundle_corpus in
  let* source = int_bound (Array.length corpus - 1) in
  let lines = Array.copy corpus.(source) in
  let n = Array.length lines in
  let mutate =
    let* i = int_bound (n - 1) in
    oneof
      [
        return (fun () -> lines.(i) <- "");
        return (fun () -> lines.(i) <- lines.((i + 1) mod n) ^ "\n" ^ lines.(i));
        map
          (fun k () ->
            let other = corpus.(k mod Array.length corpus) in
            lines.(i) <- other.(i mod Array.length other))
          nat;
        map2
          (fun f at () ->
            let l = lines.(i) in
            let at = at mod (String.length l + 1) in
            lines.(i) <-
              String.sub l 0 at ^ bundle_fragments.(f)
              ^ String.sub l at (String.length l - at))
          (int_bound (Array.length bundle_fragments - 1))
          nat;
        map2
          (fun at len () ->
            let l = lines.(i) in
            let at = at mod (String.length l + 1) in
            let len = min len (String.length l - at) in
            lines.(i) <-
              String.sub l 0 at ^ String.sub l (at + len)
                (String.length l - at - len))
          nat (int_range 1 6);
      ]
  in
  let+ edits = list_size (int_range 1 4) mutate in
  List.iter (fun edit -> edit ()) edits;
  String.concat "\n" (Array.to_list lines)

let prop_firmware_fuzz =
  QCheck.Test.make ~name:"mutated bundles: typed errors only" ~count:500
    (QCheck.make mutated_bundle) (fun text ->
      match Hardware.Firmware.of_string text with
      | exception Hardware.Firmware.Parse_error _ -> true
      | exception e ->
          QCheck.Test.fail_reportf "of_string raised %s" (Printexc.to_string e)
      | system -> (
          match Hardware.Firmware.restore_program system with
          | _ -> true
          | exception (Isa.Word.Unknown_instruction _ | Machine.Fault.Fault _)
            ->
              true
          | exception e ->
              QCheck.Test.fail_reportf "restore_program raised %s"
                (Printexc.to_string e)))

(* ---- property: synthetic programs through the whole hardware path ---------- *)

let synthetic_insn st =
  let open QCheck.Gen in
  let reg = map Isa.Reg.of_int (int_bound 31) in
  let s16 = int_range (-32768) 32767 in
  (oneof
     [
       map3 (fun a b v -> Isa.Insn.Addiu (a, b, v)) reg reg s16;
       map3 (fun a b v -> Isa.Insn.Ori (a, b, v)) reg reg (int_bound 0xffff);
       map3 (fun a b c -> Isa.Insn.Xor (a, b, c)) reg reg reg;
       map3 (fun a v b -> Isa.Insn.Lw (a, v, b)) reg s16 reg;
       map3 (fun a b sa -> Isa.Insn.Sll (a, b, sa)) reg reg (int_bound 31);
       map2 (fun a v -> Isa.Insn.Lui (a, v)) reg (int_bound 0xffff);
     ])
    st

let prop_synthetic_block_through_hardware =
  QCheck.Test.make ~name:"synthetic block: plan -> tables -> decoder" ~count:60
    QCheck.(
      pair (int_range 2 7)
        (make Gen.(list_size (int_range 2 40) synthetic_insn)))
    (fun (k, insns) ->
      let program = Isa.Program.of_insns (Array.of_list insns) in
      let words = Isa.Program.words program in
      let cand =
        {
          PE.start_index = 0;
          body = Bitutil.Bitmat.of_words ~width:32 words;
          weight = 1;
        }
      in
      let config =
        { PE.k; subset_mask = Subset.paper_eight_mask; tt_capacity = 64;
          optimal_chain = false }
      in
      let plan = PE.plan config [ cand ] in
      let system = Reprogram.build ~tt_capacity:64 program plan in
      let dec = Reprogram.decoder system in
      let ok = ref true in
      Array.iteri
        (fun pc w ->
          let _bus, decoded = Fetch_decoder.fetch dec ~pc in
          if decoded <> w then ok := false)
        words;
      !ok)

(* ---- compiled decoder vs a line-by-line reference --------------------------- *)

(* The strict fetch path walked the slow way: every TT read checks the
   entry's parity afresh, and every decode applies each line's gate
   through [Boolfun.apply], line 0 first.  An independent oracle for the
   decoder's compiled entries. *)
type reference = {
  r_tt : Tt.t;
  r_bbit : Bbit.t;
  r_image : int array;
  mutable r_active : bool;
  mutable r_entry : int;
  mutable r_left : int;
  mutable r_first : bool;
  mutable r_expected : int;
  mutable r_prev_stored : int;
  mutable r_prev_decoded : int;
}

let reference ~tt ~bbit ~image =
  {
    r_tt = tt;
    r_bbit = bbit;
    r_image = image;
    r_active = false;
    r_entry = 0;
    r_left = 0;
    r_first = false;
    r_expected = -1;
    r_prev_stored = 0;
    r_prev_decoded = 0;
  }

let ref_fault c = raise (Machine.Fault.Fault c)

let ref_read r index =
  match Tt.read_opt r.r_tt index with
  | None ->
      ref_fault
        (Machine.Fault.Tt_read_invalid
           { index; reason = "entry never programmed or out of capacity" })
  | Some e ->
      if Tt.parity_ok r.r_tt index then e
      else ref_fault (Machine.Fault.Tt_parity { index })

let ref_decode r (e : Tt.entry) stored =
  let gates = Tt.functions r.r_tt in
  let history = if r.r_first then r.r_prev_stored else r.r_prev_decoded in
  let out = ref 0 in
  for line = 0 to 31 do
    (* a short array raises Invalid_argument here *)
    let gi = e.Tt.tau_indices.(line) in
    if gi < 0 || gi >= Array.length gates then
      ref_fault
        (Machine.Fault.Tt_read_invalid
           { index = r.r_entry; reason = "gate index addresses no gate" });
    let bit w = w lsr line land 1 = 1 in
    if Boolfun.apply gates.(gi) (bit stored) (bit history) then
      out := !out lor (1 lsl line)
  done;
  !out

(* the entry's CT count is used up: end the block or move to the next *)
let ref_next_entry r (e : Tt.entry) =
  if e.Tt.e_bit then r.r_active <- false
  else begin
    r.r_entry <- r.r_entry + 1;
    r.r_left <- (ref_read r r.r_entry).Tt.ct;
    r.r_first <- true
  end

let ref_fetch r ~pc =
  let limit = Array.length r.r_image in
  if pc < 0 || pc >= limit then
    ref_fault (Machine.Fault.Image_out_of_range { pc; limit });
  let stored = r.r_image.(pc) in
  match Bbit.lookup_slot r.r_bbit ~pc with
  | Some (slot, b) ->
      if not (Bbit.parity_ok r.r_bbit slot) then
        ref_fault (Machine.Fault.Bbit_parity { slot });
      if r.r_active then
        ref_fault
          (Machine.Fault.Decode_sequence
             { pc; detail = "entered an encoded block while decoding another" });
      let head = ref_read r b.Bbit.tt_base in
      r.r_active <- true;
      r.r_entry <- b.Bbit.tt_base;
      r.r_left <- head.Tt.ct - 1;
      r.r_first <- true;
      r.r_expected <- pc + 1;
      r.r_prev_stored <- stored;
      r.r_prev_decoded <- stored;
      if r.r_left = 0 then ref_next_entry r head;
      (stored, stored)
  | None when not r.r_active -> (stored, stored)
  | None ->
      if pc <> r.r_expected then
        ref_fault
          (Machine.Fault.Decode_sequence
             {
               pc;
               detail =
                 Printf.sprintf
                   "non-sequential fetch inside encoded block (expected %d)"
                   r.r_expected;
             });
      let e = ref_read r r.r_entry in
      let decoded = ref_decode r e stored in
      r.r_expected <- pc + 1;
      r.r_left <- r.r_left - 1;
      if r.r_left = 0 then ref_next_entry r e else r.r_first <- false;
      r.r_prev_stored <- stored;
      r.r_prev_decoded <- decoded;
      (stored, decoded)

type fetched = Words of int * int | Fault of Machine.Fault.cause | Abort

let fetched f =
  match f () with
  | bus, decoded -> Words (bus, decoded)
  | exception Machine.Fault.Fault c -> Fault c
  | exception Invalid_argument _ -> Abort

(* A random table state: a gate set with the identity (often not a power
   of two in size, so a flipped index bit can address no gate), a chain of
   entries (some narrower than the bus), stored upsets of any field, and a
   fetch sequence that mostly runs on but sometimes jumps, also out of the
   image.  Two BBIT slots enter the same chain at pcs 1 and 8. *)
type scenario = {
  gates : Boolfun.t array;
  entries : Tt.entry list;
  upsets : (int * Tt.upset) list;
  image : int array;
  pcs : int list;
}

let image_len = 16

let gen_scenario =
  let open QCheck.Gen in
  let* others = list_size (int_range 0 7) (map Boolfun.of_index (int_bound 15)) in
  let gates =
    Array.of_list
      (Boolfun.identity
      :: List.sort_uniq Boolfun.compare
           (List.filter (fun f -> not (Boolfun.equal f Boolfun.identity)) others))
  in
  let ngates = Array.length gates in
  let index_bits = Tt.fn_index_bits (Tt.create ~functions:gates ()) in
  let* count = int_range 1 3 in
  let* entries =
    flatten_l
      (List.init count (fun j ->
           let* width = frequency [ (9, return 32); (1, int_range 0 31) ] in
           let* taus = array_size (return width) (int_bound (ngates - 1)) in
           let* flip_end = frequency [ (4, return false); (1, return true) ] in
           let+ ct = int_range 0 4 in
           { Tt.tau_indices = taus; e_bit = (j = count - 1) <> flip_end; ct }))
  in
  let upset (e : Tt.entry) =
    let lines = Array.length e.Tt.tau_indices in
    frequency
      ((if lines = 0 then []
        else
          [
            ( 6,
              map2
                (fun line bit -> Tt.Tau { line; bit })
                (int_bound (lines - 1))
                (int_bound (index_bits - 1)) );
          ])
      @ [ (1, return Tt.E); (1, map (fun bit -> Tt.Ct { bit }) (int_bound 3)) ])
  in
  let* upsets =
    list_size (int_range 0 4)
      (let* i = int_bound (count - 1) in
       let+ u = upset (List.nth entries i) in
       (i, u))
  in
  let* image =
    array_size (return image_len)
      (map2 (fun hi lo -> (hi lsl 16) lor lo) (int_bound 0xffff) (int_bound 0xffff))
  in
  let+ steps =
    list_size (int_range 8 40)
      (frequency
         [ (8, return None); (1, map Option.some (int_bound image_len)) ])
  in
  let pcs =
    List.rev
      (snd
         (List.fold_left
            (fun (pc, acc) step ->
              let next =
                match step with Some jump -> jump | None -> (pc + 1) mod image_len
              in
              (next, next :: acc))
            (-1, []) steps))
  in
  { gates; entries; upsets; image; pcs }

let print_scenario s =
  Printf.sprintf "gates=[%s] entries=[%s] upsets=%d pcs=[%s]"
    (String.concat ";" (Array.to_list (Array.map Boolfun.name s.gates)))
    (String.concat "; "
       (List.map
          (fun (e : Tt.entry) ->
            Printf.sprintf "%d lines e=%b ct=%d" (Array.length e.Tt.tau_indices)
              e.Tt.e_bit e.Tt.ct)
          s.entries))
    (List.length s.upsets)
    (String.concat ";" (List.map string_of_int s.pcs))

let build_scenario s =
  let tt = Tt.create ~capacity:4 ~functions:s.gates () in
  List.iteri (fun index e -> Tt.write tt ~index e) s.entries;
  List.iter (fun (index, u) -> Tt.corrupt tt ~index u) s.upsets;
  let bbit = Bbit.create ~capacity:2 () in
  Bbit.load bbit [ { Bbit.pc = 1; tt_base = 0 }; { Bbit.pc = 8; tt_base = 0 } ];
  (tt, bbit)

let prop_compiled_matches_reference =
  QCheck.Test.make ~name:"compiled decoder = line-by-line reference" ~count:500
    (QCheck.make ~print:print_scenario gen_scenario)
    (fun s ->
      let tt, bbit = build_scenario s in
      let dec = Fetch_decoder.create ~tt ~bbit ~k:4 ~image:s.image () in
      let r = reference ~tt ~bbit ~image:s.image in
      (* stop at the first fault: both must raise the same one *)
      let rec go = function
        | [] -> true
        | pc :: rest -> (
            let got = fetched (fun () -> Fetch_decoder.fetch dec ~pc) in
            let want = fetched (fun () -> ref_fetch r ~pc) in
            got = want && match got with Words _ -> go rest | _ -> true)
      in
      go s.pcs)

(* The dynamic pc sequence of the tiny program. *)
let fetch_trace program =
  let pcs = ref [] in
  ignore
    (Machine.Cpu.run
       ~on_fetch:(fun ~pc -> pcs := pc :: !pcs)
       program
       (Machine.Cpu.create_state ~mem_bytes:(64 * 1024) ()));
  List.rev !pcs

(* Every fetch of [pcs], up to and including the first fault. *)
let serve dec pcs =
  let rec go acc = function
    | [] -> List.rev acc
    | pc :: rest -> (
        match fetched (fun () -> Fetch_decoder.fetch dec ~pc) with
        | Words _ as w -> go (w :: acc) rest
        | other -> List.rev (other :: acc))
  in
  go [] pcs

let counters dec =
  ( Fetch_decoder.tt_detections dec,
    Fetch_decoder.bbit_detections dec,
    Fetch_decoder.fallback_fetches dec,
    Fetch_decoder.degraded_slots dec )

(* A decoder that already served the whole run from its compiled entries
   sees an upset made afterwards on its next fetch: from there on it
   fetches, detects and falls back exactly as a decoder created after the
   upset does. *)
let upset_after_serving ~hardened upset () =
  let program, system = tiny_system () in
  let recovery = if hardened then Some (Reprogram.recovery system) else None in
  let pcs = fetch_trace program in
  let warm = Reprogram.decoder ?recovery system in
  let words = Isa.Program.words program in
  List.iter2
    (fun pc w ->
      match w with
      | Words (_, d) -> check_int "pristine decode" words.(pc) d
      | _ -> Alcotest.fail "pristine system faulted")
    pcs (serve warm pcs);
  Fetch_decoder.reset warm;
  upset system;
  let fresh = Reprogram.decoder ?recovery system in
  let after = serve warm pcs in
  check_bool "same fetches as a fresh decoder" true (after = serve fresh pcs);
  check_bool "same detections and fallbacks" true
    (counters warm = counters fresh);
  let tt_d, bbit_d, _, _ = counters warm in
  check_bool "upset detected" true (tt_d + bbit_d > 0);
  if hardened then
    List.iter2
      (fun pc w ->
        match w with
        | Words (_, d) -> check_int "degraded fetch is the raw word" words.(pc) d
        | _ -> Alcotest.fail "hardened decoder faulted")
      pcs after

let corrupt_tt system =
  Tt.corrupt system.Reprogram.tt ~index:0 (Tt.Tau { line = 5; bit = 1 })

(* moves the loop head's tag from pc 1 to pc 0 *)
let corrupt_bbit_pc system =
  Bbit.corrupt system.Reprogram.bbit ~slot:0 (Bbit.Pc { bit = 0 })

let corrupt_bbit_base system =
  Bbit.corrupt system.Reprogram.bbit ~slot:0 (Bbit.Base { bit = 0 })

let () =
  Alcotest.run "hardware"
    [
      ( "tt",
        [
          Alcotest.test_case "defaults" `Quick test_tt_create_defaults;
          Alcotest.test_case "requires identity" `Quick test_tt_requires_identity;
          Alcotest.test_case "write/read" `Quick test_tt_write_read;
          Alcotest.test_case "bad access" `Quick test_tt_bad_access;
          Alcotest.test_case "unsupported gate" `Quick
            test_tt_load_rejects_unsupported_gate;
          Alcotest.test_case "first matching gate" `Quick
            test_tt_load_first_matching_gate;
          Alcotest.test_case "storage bits" `Quick test_tt_storage_bits;
        ] );
      ( "bbit",
        [
          Alcotest.test_case "lookup" `Quick test_bbit_lookup;
          Alcotest.test_case "duplicate pc" `Quick test_bbit_duplicate_pc;
        ] );
      ( "cost",
        [
          Alcotest.test_case "report" `Quick test_cost_report;
          Alcotest.test_case "paper coverage claim" `Quick
            test_cost_paper_claim_overstated;
        ] );
      ( "decoder",
        [
          Alcotest.test_case "restores whole run" `Quick
            test_decoder_restores_whole_run;
          Alcotest.test_case "image differs" `Quick test_image_actually_differs;
          Alcotest.test_case "bus carries stored word" `Quick
            test_decoder_bus_carries_stored_word;
          Alcotest.test_case "reset" `Quick test_decoder_reset;
          Alcotest.test_case "does not fit" `Quick test_reprogram_does_not_fit;
          Alcotest.test_case "stored image = build, every bench" `Quick
            test_stored_image_matches_build;
          Alcotest.test_case "write counting" `Quick
            test_programming_writes_counted;
          Alcotest.test_case "rejects non-sequential fetch" `Quick
            test_decoder_rejects_nonsequential_fetch;
          Alcotest.test_case "rejects out-of-image fetch" `Quick
            test_decoder_rejects_outside_image;
        ] );
      ( "peripheral",
        [
          Alcotest.test_case "script rebuilds tables" `Quick
            test_peripheral_script_rebuilds_tables;
          Alcotest.test_case "loader runs on the CPU" `Quick
            test_loader_program_runs_on_cpu;
          Alcotest.test_case "bad offset" `Quick test_peripheral_bad_offset;
          Alcotest.test_case "staged readback" `Quick
            test_peripheral_staged_readback;
        ] );
      ( "firmware",
        [
          Alcotest.test_case "roundtrip" `Quick test_firmware_roundtrip;
          Alcotest.test_case "restored program runs" `Quick
            test_firmware_restored_program_runs;
          Alcotest.test_case "rejects garbage" `Quick
            test_firmware_rejects_garbage;
          QCheck_alcotest.to_alcotest prop_firmware_fuzz;
        ] );
      ( "compiled",
        [
          Alcotest.test_case "TT upset after use (hardened)" `Quick
            (upset_after_serving ~hardened:true corrupt_tt);
          Alcotest.test_case "TT upset after use (strict)" `Quick
            (upset_after_serving ~hardened:false corrupt_tt);
          Alcotest.test_case "BBIT tag upset after use (hardened)" `Quick
            (upset_after_serving ~hardened:true corrupt_bbit_pc);
          Alcotest.test_case "BBIT tag upset after use (strict)" `Quick
            (upset_after_serving ~hardened:false corrupt_bbit_pc);
          Alcotest.test_case "BBIT base upset after use (hardened)" `Quick
            (upset_after_serving ~hardened:true corrupt_bbit_base);
          Alcotest.test_case "BBIT base upset after use (strict)" `Quick
            (upset_after_serving ~hardened:false corrupt_bbit_base);
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_synthetic_block_through_hardware;
            prop_compiled_matches_reference;
            prop_stored_image_random_programs;
          ] );
    ]
