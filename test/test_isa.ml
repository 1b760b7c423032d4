module Reg = Isa.Reg
module Insn = Isa.Insn
module Word = Isa.Word
module Asm = Isa.Asm
module Program = Isa.Program

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

(* ---- registers ----------------------------------------------------------- *)

let test_reg_names () =
  check_string "t0" "$t0" (Reg.name Reg.t0);
  check_string "sp" "$sp" (Reg.name Reg.sp);
  check_int "of_name $t0" (Reg.to_int Reg.t0) (Reg.to_int (Reg.of_name "$t0"));
  check_int "of_name numeric" 8 (Reg.to_int (Reg.of_name "$8"));
  check_int "of_name bare" 31 (Reg.to_int (Reg.of_name "ra"))

let test_reg_bounds () =
  Alcotest.check_raises "32 rejected"
    (Invalid_argument "Reg.of_int: not in 0..31") (fun () ->
      ignore (Reg.of_int 32))

let test_freg_names () =
  check_string "f5" "$f5" (Reg.f_name (Reg.f_of_int 5));
  check_int "of_name" 12 (Reg.f_to_int (Reg.f_of_name "$f12"))

(* ---- encoding ------------------------------------------------------------ *)

let representative_insns =
  [
    Insn.Add (Reg.t0, Reg.t1, Reg.t2);
    Insn.Addu (Reg.v0, Reg.a0, Reg.a1);
    Insn.Sub (Reg.s0, Reg.s1, Reg.s2);
    Insn.Subu (Reg.t3, Reg.t4, Reg.t5);
    Insn.And (Reg.t0, Reg.t1, Reg.t2);
    Insn.Or (Reg.t0, Reg.t1, Reg.t2);
    Insn.Xor (Reg.t0, Reg.t1, Reg.t2);
    Insn.Nor (Reg.t0, Reg.t1, Reg.t2);
    Insn.Slt (Reg.t0, Reg.t1, Reg.t2);
    Insn.Sltu (Reg.t0, Reg.t1, Reg.t2);
    Insn.Sll (Reg.t0, Reg.t1, 5);
    Insn.Srl (Reg.t0, Reg.t1, 31);
    Insn.Sra (Reg.t0, Reg.t1, 1);
    Insn.Sllv (Reg.t0, Reg.t1, Reg.t2);
    Insn.Srlv (Reg.t0, Reg.t1, Reg.t2);
    Insn.Srav (Reg.t0, Reg.t1, Reg.t2);
    Insn.Mult (Reg.t1, Reg.t2);
    Insn.Div (Reg.t1, Reg.t2);
    Insn.Mfhi Reg.t0;
    Insn.Mflo Reg.t0;
    Insn.Addi (Reg.t0, Reg.t1, -42);
    Insn.Addiu (Reg.t0, Reg.t1, 42);
    Insn.Slti (Reg.t0, Reg.t1, -1);
    Insn.Andi (Reg.t0, Reg.t1, 0xffff);
    Insn.Ori (Reg.t0, Reg.t1, 0xabcd);
    Insn.Xori (Reg.t0, Reg.t1, 0x1234);
    Insn.Lui (Reg.t0, 0x8000);
    Insn.Lw (Reg.t0, -4, Reg.sp);
    Insn.Sw (Reg.t0, 4, Reg.sp);
    Insn.Lb (Reg.t0, 0, Reg.a0);
    Insn.Sb (Reg.t0, 1, Reg.a0);
    Insn.Beq (Reg.t0, Reg.t1, -3);
    Insn.Bne (Reg.t0, Reg.t1, 7);
    Insn.Blez (Reg.t0, 2);
    Insn.Bgtz (Reg.t0, -2);
    Insn.Bltz (Reg.t0, 1);
    Insn.Bgez (Reg.t0, -1);
    Insn.J 1024;
    Insn.Jal 2048;
    Insn.Jr Reg.ra;
    Insn.Jalr (Reg.ra, Reg.t9);
    Insn.Lwc1 (Reg.f_of_int 2, 8, Reg.sp);
    Insn.Swc1 (Reg.f_of_int 2, -8, Reg.sp);
    Insn.Mtc1 (Reg.t0, Reg.f_of_int 3);
    Insn.Mfc1 (Reg.t0, Reg.f_of_int 3);
    Insn.Add_s (Reg.f_of_int 1, Reg.f_of_int 2, Reg.f_of_int 3);
    Insn.Sub_s (Reg.f_of_int 4, Reg.f_of_int 5, Reg.f_of_int 6);
    Insn.Mul_s (Reg.f_of_int 7, Reg.f_of_int 8, Reg.f_of_int 9);
    Insn.Div_s (Reg.f_of_int 10, Reg.f_of_int 11, Reg.f_of_int 12);
    Insn.Abs_s (Reg.f_of_int 1, Reg.f_of_int 2);
    Insn.Neg_s (Reg.f_of_int 1, Reg.f_of_int 2);
    Insn.Mov_s (Reg.f_of_int 1, Reg.f_of_int 2);
    Insn.Sqrt_s (Reg.f_of_int 1, Reg.f_of_int 2);
    Insn.Cvt_s_w (Reg.f_of_int 1, Reg.f_of_int 2);
    Insn.Cvt_w_s (Reg.f_of_int 1, Reg.f_of_int 2);
    Insn.C_eq_s (Reg.f_of_int 1, Reg.f_of_int 2);
    Insn.C_lt_s (Reg.f_of_int 1, Reg.f_of_int 2);
    Insn.C_le_s (Reg.f_of_int 1, Reg.f_of_int 2);
    Insn.Bc1t 3;
    Insn.Bc1f (-3);
    Insn.Syscall;
    Insn.Nop;
  ]

let test_roundtrip_all () =
  List.iter
    (fun insn ->
      let w = Word.encode insn in
      check_bool "32-bit" true (w >= 0 && w <= 0xffffffff);
      let back = Word.decode w in
      if not (Insn.equal insn back) then
        Alcotest.failf "roundtrip failed: %s -> %08x -> %s"
          (Insn.to_string insn) w (Insn.to_string back))
    representative_insns

let test_known_encodings () =
  (* cross-checked against the MIPS-I manual *)
  check_int "add $t0,$t1,$t2" 0x012a4020
    (Word.encode (Insn.Add (Reg.t0, Reg.t1, Reg.t2)));
  check_int "addiu $t0,$zero,1" 0x24080001
    (Word.encode (Insn.Addiu (Reg.t0, Reg.zero, 1)));
  check_int "lw $t0,4($sp)" 0x8fa80004
    (Word.encode (Insn.Lw (Reg.t0, 4, Reg.sp)));
  check_int "jr $ra" 0x03e00008 (Word.encode (Insn.Jr Reg.ra));
  check_int "syscall" 0x0000000c (Word.encode Insn.Syscall);
  check_int "nop" 0 (Word.encode Insn.Nop)

let test_encode_range_checks () =
  Alcotest.check_raises "imm too large"
    (Invalid_argument "Word.encode: signed immediate out of range: 32768")
    (fun () -> ignore (Word.encode (Insn.Addi (Reg.t0, Reg.t0, 0x8000))));
  Alcotest.check_raises "shamt"
    (Invalid_argument "Word.encode: shift amount out of range") (fun () ->
      ignore (Word.encode (Insn.Sll (Reg.t0, Reg.t0, 32))))

let test_decode_unknown () =
  Alcotest.check_raises "bad opcode" (Word.Unknown_instruction 0xfc000000)
    (fun () -> ignore (Word.decode 0xfc000000))

(* ---- assembler ----------------------------------------------------------- *)

let test_assemble_simple () =
  let p =
    Asm.assemble
      {|
        # count down from 3
        li $t0, 3
      loop:
        addiu $t0, $t0, -1
        bne $t0, $zero, loop
        syscall
      |}
  in
  check_int "4 instructions" 4 (Program.length p);
  check_int "loop label" 1 (Program.address_of p "loop");
  (* branch offset: from instruction 3 back to 1 => -2 *)
  match (Program.insns p).(2) with
  | Insn.Bne (_, _, off) -> check_int "offset" (-2) off
  | other -> Alcotest.failf "expected bne, got %s" (Insn.to_string other)

let test_assemble_pseudo_li_wide () =
  let p = Asm.assemble "li $t0, 65536" in
  (* needs lui (+ no ori since low bits are zero) *)
  check_int "one insn" 1 (Program.length p);
  let p2 = Asm.assemble "li $t0, 65537" in
  check_int "lui+ori" 2 (Program.length p2)

let test_assemble_memory_operand () =
  let p = Asm.assemble "lw $t1, -8($sp)" in
  match (Program.insns p).(0) with
  | Insn.Lw (t, off, base) ->
      check_string "target" "$t1" (Reg.name t);
      check_int "offset" (-8) off;
      check_string "base" "$sp" (Reg.name base)
  | other -> Alcotest.failf "expected lw, got %s" (Insn.to_string other)

let test_assemble_branch_pseudos () =
  let p =
    Asm.assemble {|
      blt $t0, $t1, out
      nop
    out:
      nop
    |}
  in
  (* blt expands to slt + bne *)
  check_int "expanded" 4 (Program.length p)

let test_assemble_fp () =
  let p = Asm.assemble "add.s $f1, $f2, $f3\nlwc1 $f4, 0($sp)" in
  match Program.insns p with
  | [| Insn.Add_s (d, s, t); Insn.Lwc1 (ft, 0, base) |] ->
      check_int "fd" 1 (Reg.f_to_int d);
      check_int "fs" 2 (Reg.f_to_int s);
      check_int "ft" 3 (Reg.f_to_int t);
      check_int "lwc1 ft" 4 (Reg.f_to_int ft);
      check_string "base" "$sp" (Reg.name base)
  | _ -> Alcotest.fail "unexpected shape"

let test_undefined_label () =
  Alcotest.check_raises "undefined" (Isa.Sym.Undefined_label "nowhere")
    (fun () -> ignore (Asm.assemble "j nowhere"))

let test_duplicate_label () =
  Alcotest.check_raises "duplicate" (Isa.Sym.Duplicate_label "a") (fun () ->
      ignore (Asm.assemble "a:\nnop\na:\nnop"))

let test_parse_error_line () =
  try
    ignore (Asm.assemble "nop\nbogus $t0");
    Alcotest.fail "expected parse error"
  with Asm.Parse_error { line; _ } -> check_int "line" 2 line

let test_immediate_range_line () =
  (* a field overflow is a parse error on its own line, not an
     Invalid_argument out of the encoder *)
  match Asm.assemble "nop\naddiu $t0, $t0, 99999\nsyscall" with
  | _ -> Alcotest.fail "expected parse error"
  | exception Asm.Parse_error { line; message } ->
      check_int "line" 2 line;
      check_string "message"
        "Word.encode: signed immediate out of range: 99999" message

let test_describe_error () =
  let described src =
    match Asm.assemble src with
    | _ -> "assembled"
    | exception e -> Option.value (Asm.describe_error e) ~default:"foreign"
  in
  check_string "parse" "line 1: unknown mnemonic bogus" (described "bogus $t0");
  check_string "undefined" "undefined label nowhere" (described "j nowhere");
  check_string "duplicate" "duplicate label a" (described "a:\na:\nnop");
  check_bool "foreign" true (Asm.describe_error Not_found = None)

let test_program_words_match () =
  let p = Asm.assemble "addiu $t0, $zero, 7\nsyscall" in
  Alcotest.(check (array int))
    "words"
    (Array.map Word.encode (Program.insns p))
    (Program.words p)

(* ---- disassembler ----------------------------------------------------------- *)

let reassembles_identically p =
  let source = Isa.Disasm.to_source p in
  let p2 = Asm.assemble source in
  Program.words p2 = Program.words p

let test_disasm_roundtrip_simple () =
  let p =
    Asm.assemble
      {|
        li $t0, 5
      loop:
        addiu $t0, $t0, -1
        bgtz $t0, loop
        beq $t0, $zero, out
        nop
      out:
        li $v0, 10
        syscall
      |}
  in
  check_bool "roundtrip" true (reassembles_identically p)

let test_disasm_keeps_known_labels () =
  let p = Asm.assemble "start:\nnop\nj start" in
  let src = Isa.Disasm.to_source p in
  check_bool "has start label" true
    (String.length src >= 6 && String.sub src 0 6 = "start:")

let test_disasm_synthesizes_labels () =
  let p = Program.of_insns [| Insn.J 2; Insn.Nop; Insn.Syscall |] in
  check_bool "roundtrip with synthetic labels" true (reassembles_identically p)

let test_disasm_compiler_output () =
  (* the largest real corpus we have: disassemble each compiled kernel and
     reassemble it bit-for-bit *)
  List.iter
    (fun w ->
      let c = Minic.Compile.compile w.Workloads.source in
      if not (reassembles_identically c.Minic.Compile.program) then
        Alcotest.failf "%s did not roundtrip" w.Workloads.name)
    Workloads.scaled

let test_disasm_line () =
  let p = Asm.assemble "beq $t0, $t1, next\nnext:\nnop" in
  check_string "line" "beq $t0, $t1, next" (Isa.Disasm.line p 0)

(* ---- properties ----------------------------------------------------------- *)

let insn_gen =
  let open QCheck.Gen in
  let reg = map Reg.of_int (int_bound 31) in
  let freg = map Reg.f_of_int (int_bound 31) in
  let s16 = int_range (-32768) 32767 in
  let u16 = int_bound 0xffff in
  oneof
    [
      map3 (fun a b c -> Insn.Add (a, b, c)) reg reg reg;
      map3 (fun a b c -> Insn.Xor (a, b, c)) reg reg reg;
      map3 (fun a b c -> Insn.Sll (a, b, c)) reg reg (int_bound 31);
      map3 (fun a b c -> Insn.Addiu (a, b, c)) reg reg s16;
      map3 (fun a b c -> Insn.Ori (a, b, c)) reg reg u16;
      map3 (fun a b c -> Insn.Lw (a, b, c)) reg s16 reg;
      map3 (fun a b c -> Insn.Sw (a, b, c)) reg s16 reg;
      map3 (fun a b c -> Insn.Beq (a, b, c)) reg reg s16;
      map (fun t -> Insn.J t) (int_bound ((1 lsl 26) - 1));
      map3 (fun a b c -> Insn.Add_s (a, b, c)) freg freg freg;
      map3 (fun a b c -> Insn.Lwc1 (a, b, c)) freg s16 reg;
      map2 (fun a b -> Insn.Mtc1 (a, b)) reg freg;
    ]

let prop_encode_decode =
  QCheck.Test.make ~name:"random instruction roundtrip" ~count:1000
    (QCheck.make insn_gen) (fun insn ->
      Insn.equal (Word.decode (Word.encode insn)) insn)

(* Mutated assembly, built from the compiled kernels' disassembly: lines
   dropped, duplicated or swapped in from elsewhere, fragments spliced
   into them, characters cut.  [assemble] must succeed or raise one of its
   three typed exceptions, never anything else. *)
let corpus =
  Array.of_list
    (List.map
       (fun w ->
         Array.of_list
           (String.split_on_char '\n'
              (Isa.Disasm.to_source
                 (Minic.Compile.compile w.Workloads.source).Minic.Compile.program)))
       Workloads.scaled)

let fragments =
  [| ""; " "; ","; "("; ")"; ":"; "#"; ";"; "\t"; "$"; "$t0"; "$zero";
     "$f2"; "$f"; "$32"; "$bogus"; "0"; "-1"; "31"; "32"; "0x7fff";
     "32768"; "-32769"; "70000"; "0xffffffff"; "99999999999999999999";
     "4($sp)"; "($t1)"; "x("; "loop"; "nowhere"; "a:"; ":b"; "li"; "la";
     "beq"; "blt"; "j"; "jal"; "lw"; "sll"; "lui"; "mul.s"; "bc1t"; "nop";
     "syscall"; "bogus" |]

let mutated_source =
  let open QCheck.Gen in
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
              String.sub l 0 at ^ fragments.(f)
              ^ String.sub l at (String.length l - at))
          (int_bound (Array.length fragments - 1))
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

let prop_assembler_fuzz =
  QCheck.Test.make ~name:"mutated assembly: typed errors only" ~count:1000
    (QCheck.make mutated_source) (fun src ->
      match Asm.assemble src with
      | _ -> true
      | exception
          (Asm.Parse_error _ | Isa.Sym.Undefined_label _
          | Isa.Sym.Duplicate_label _) ->
          true
      | exception e ->
          QCheck.Test.fail_reportf "raised %s" (Printexc.to_string e))

let () =
  Alcotest.run "isa"
    [
      ( "registers",
        [
          Alcotest.test_case "names" `Quick test_reg_names;
          Alcotest.test_case "bounds" `Quick test_reg_bounds;
          Alcotest.test_case "fp names" `Quick test_freg_names;
        ] );
      ( "encoding",
        [
          Alcotest.test_case "roundtrip all" `Quick test_roundtrip_all;
          Alcotest.test_case "known encodings" `Quick test_known_encodings;
          Alcotest.test_case "range checks" `Quick test_encode_range_checks;
          Alcotest.test_case "unknown decode" `Quick test_decode_unknown;
        ] );
      ( "assembler",
        [
          Alcotest.test_case "simple program" `Quick test_assemble_simple;
          Alcotest.test_case "wide li" `Quick test_assemble_pseudo_li_wide;
          Alcotest.test_case "memory operand" `Quick test_assemble_memory_operand;
          Alcotest.test_case "branch pseudos" `Quick test_assemble_branch_pseudos;
          Alcotest.test_case "fp syntax" `Quick test_assemble_fp;
          Alcotest.test_case "undefined label" `Quick test_undefined_label;
          Alcotest.test_case "duplicate label" `Quick test_duplicate_label;
          Alcotest.test_case "error line" `Quick test_parse_error_line;
          Alcotest.test_case "words match" `Quick test_program_words_match;
          Alcotest.test_case "immediate range line" `Quick
            test_immediate_range_line;
          Alcotest.test_case "describe error" `Quick test_describe_error;
        ] );
      ( "disassembler",
        [
          Alcotest.test_case "roundtrip simple" `Quick
            test_disasm_roundtrip_simple;
          Alcotest.test_case "keeps known labels" `Quick
            test_disasm_keeps_known_labels;
          Alcotest.test_case "synthesizes labels" `Quick
            test_disasm_synthesizes_labels;
          Alcotest.test_case "compiler corpus" `Quick test_disasm_compiler_output;
          Alcotest.test_case "single line" `Quick test_disasm_line;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_encode_decode; prop_assembler_fuzz ] );
    ]
