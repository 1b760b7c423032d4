module Cpu = Machine.Cpu
module Memory = Machine.Memory
module Reg = Isa.Reg
module Asm = Isa.Asm

let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

(* run a fragment and inspect a register afterwards *)
let run_and_get src r =
  let p = Asm.assemble (src ^ "\nli $v0, 10\nsyscall") in
  let state = Cpu.create_state ~mem_bytes:(64 * 1024) () in
  let _ = Cpu.run p state in
  Cpu.reg state r

let run_output src =
  let p = Asm.assemble src in
  let state = Cpu.create_state ~mem_bytes:(64 * 1024) () in
  let _ = Cpu.run p state in
  Cpu.output state

(* ---- memory -------------------------------------------------------------- *)

let test_memory_word () =
  let m = Memory.create ~bytes:64 in
  Memory.store_word m 8 0xdeadbeef;
  check_int "load" (0xdeadbeef - 0x100000000) (Memory.load_word m 8);
  Memory.store_word m 12 42;
  check_int "load positive" 42 (Memory.load_word m 12)

let test_memory_byte_sign () =
  let m = Memory.create ~bytes:16 in
  Memory.store_byte m 3 0xff;
  check_int "sign extended" (-1) (Memory.load_byte m 3);
  Memory.store_byte m 4 0x7f;
  check_int "positive" 127 (Memory.load_byte m 4)

let test_memory_faults () =
  let m = Memory.create ~bytes:16 in
  Alcotest.check_raises "unaligned"
    (Memory.Fault { address = 2; message = "unaligned word access" })
    (fun () -> ignore (Memory.load_word m 2));
  Alcotest.check_raises "oob"
    (Memory.Fault { address = 16; message = "word access out of bounds" })
    (fun () -> ignore (Memory.load_word m 16))

let test_memory_float () =
  let m = Memory.create ~bytes:16 in
  Memory.store_float m 0 3.25;
  Alcotest.(check (float 0.0)) "roundtrip" 3.25 (Memory.load_float m 0)

(* The paged memory against a flat [Bytes] reference of the same size:
   every call returns the same value or raises the same [Fault]. *)
module Flat = struct
  type t = Bytes.t

  let create bytes = Bytes.make ((bytes + 3) land lnot 3) '\000'

  let check_word m addr =
    if addr land 3 <> 0 then
      raise (Memory.Fault { address = addr; message = "unaligned word access" });
    if addr < 0 || addr > Bytes.length m - 4 then
      raise (Memory.Fault { address = addr; message = "word access out of bounds" })

  let check_byte m addr =
    if addr < 0 || addr >= Bytes.length m then
      raise (Memory.Fault { address = addr; message = "byte access out of bounds" })

  let load_word m a = check_word m a; Int32.to_int (Bytes.get_int32_le m a)

  let store_word m a v =
    check_word m a; Bytes.set_int32_le m a (Int32.of_int (v land 0xffffffff))

  let load_byte m a =
    check_byte m a;
    let b = Char.code (Bytes.get m a) in
    if b >= 0x80 then b - 0x100 else b

  let store_byte m a v = check_byte m a; Bytes.set m a (Char.chr (v land 0xff))
  let load_float m a = check_word m a; Int32.float_of_bits (Bytes.get_int32_le m a)
  let store_float m a v = check_word m a; Bytes.set_int32_le m a (Int32.bits_of_float v)
end

type mem_op =
  | Store_word of int * int
  | Store_byte of int * int
  | Store_float of int * float
  | Load_word of int
  | Load_byte of int
  | Load_float of int

let show_op = function
  | Store_word (a, v) -> Printf.sprintf "store_word %d %d" a v
  | Store_byte (a, v) -> Printf.sprintf "store_byte %d %d" a v
  | Store_float (a, v) -> Printf.sprintf "store_float %d %h" a v
  | Load_word a -> Printf.sprintf "load_word %d" a
  | Load_byte a -> Printf.sprintf "load_byte %d" a
  | Load_float a -> Printf.sprintf "load_float %d" a

(* 6000 B ends inside its second page. *)
let mem_sizes = [ 16; 6000; 64 * 1024; 4 * 1024 * 1024 ]

(* Addresses anywhere, near either end, and on both sides of a page
   boundary, aligned or not. *)
let gen_addr size =
  let open QCheck.Gen in
  let near base = map (fun d -> base + d) (-9 -- 9) in
  frequency
    [
      (3, 0 -- (size + 8));
      (2, near 0);
      (2, near size);
      (4, (0 -- (size / 4096)) >>= fun p -> near (p * 4096));
      (1, map (fun a -> a land lnot 3) (0 -- (size - 1)));
      (1, int);
      (1, near (max_int - 9));
    ]

let gen_mem_op size =
  let open QCheck.Gen in
  let addr = gen_addr size in
  frequency
    [
      (2, map2 (fun a v -> Store_word (a, v)) addr int);
      (2, map2 (fun a v -> Store_byte (a, v)) addr int);
      (1, map2 (fun a v -> Store_float (a, v)) addr float);
      (3, map (fun a -> Load_word a) addr);
      (3, map (fun a -> Load_byte a) addr);
      (1, map (fun a -> Load_float a) addr);
    ]

type mem_outcome = Unit | Value of int | Bits of int64 | Raised of int * string

module type MEM = sig
  type t

  val load_word : t -> int -> int
  val store_word : t -> int -> int -> unit
  val load_byte : t -> int -> int
  val store_byte : t -> int -> int -> unit
  val load_float : t -> int -> float
  val store_float : t -> int -> float -> unit
end

module Apply (M : MEM) = struct
  let op m op =
    match
      match op with
      | Store_word (a, v) -> M.store_word m a v; Unit
      | Store_byte (a, v) -> M.store_byte m a v; Unit
      | Store_float (a, v) -> M.store_float m a v; Unit
      | Load_word a -> Value (M.load_word m a)
      | Load_byte a -> Value (M.load_byte m a)
      | Load_float a -> Bits (Int64.bits_of_float (M.load_float m a))
    with
    | r -> r
    | exception Memory.Fault { address; message } -> Raised (address, message)
end

module Paged = Apply (Memory)
module Reference = Apply (Flat)

let prop_paged_matches_flat =
  let gen =
    QCheck.Gen.(
      oneofl mem_sizes >>= fun size ->
      map (fun ops -> (size, ops)) (list_size (1 -- 60) (gen_mem_op size)))
  in
  let print (size, ops) =
    Printf.sprintf "size %d: %s" size (String.concat "; " (List.map show_op ops))
  in
  QCheck.Test.make ~name:"paged memory = flat reference" ~count:500
    (QCheck.make ~print gen) (fun (size, ops) ->
      let paged = Memory.create ~bytes:size and flat = Flat.create size in
      List.for_all (fun op -> Paged.op paged op = Reference.op flat op) ops
      && Memory.size paged = Bytes.length flat
      (* then every byte any op named, and its neighbours, reads the same *)
      && List.for_all
           (fun op ->
             let a =
               match op with
               | Store_word (a, _) | Store_byte (a, _) | Store_float (a, _)
               | Load_word a | Load_byte a | Load_float a -> a
             in
             List.for_all
               (fun d ->
                 Paged.op paged (Load_byte (a + d))
                 = Reference.op flat (Load_byte (a + d)))
               [ -4; -1; 0; 1; 2; 3; 4 ])
           ops)

(* ---- integer semantics ---------------------------------------------------- *)

let test_arithmetic () =
  check_int "add" 7 (run_and_get "li $t1, 3\nli $t2, 4\nadd $t0, $t1, $t2" Reg.t0);
  check_int "sub" (-1) (run_and_get "li $t1, 3\nli $t2, 4\nsub $t0, $t1, $t2" Reg.t0);
  check_int "overflow wraps" (-2147483648)
    (run_and_get "li $t1, 2147483647\naddiu $t0, $t1, 1" Reg.t0)

let test_logic () =
  check_int "and" 0b1000 (run_and_get "li $t1, 12\nli $t2, 10\nand $t0, $t1, $t2" Reg.t0);
  check_int "or" 0b1110 (run_and_get "li $t1, 12\nli $t2, 10\nor $t0, $t1, $t2" Reg.t0);
  check_int "xor" 0b0110 (run_and_get "li $t1, 12\nli $t2, 10\nxor $t0, $t1, $t2" Reg.t0);
  check_int "nor" (-15) (run_and_get "li $t1, 12\nli $t2, 10\nnor $t0, $t1, $t2" Reg.t0)

let test_shifts () =
  check_int "sll" 40 (run_and_get "li $t1, 5\nsll $t0, $t1, 3" Reg.t0);
  check_int "srl of negative" 0x7fffffff
    (run_and_get "li $t1, -1\nsrl $t0, $t1, 1" Reg.t0);
  check_int "sra of negative" (-1) (run_and_get "li $t1, -1\nsra $t0, $t1, 1" Reg.t0);
  check_int "sllv" 32 (run_and_get "li $t1, 3\nli $t2, 4\nsllv $t0, $t2, $t1" Reg.t0)

let test_mult_div () =
  check_int "mult lo" 56 (run_and_get "li $t1, 7\nli $t2, 8\nmult $t1, $t2\nmflo $t0" Reg.t0);
  check_int "div quotient" 4
    (run_and_get "li $t1, 29\nli $t2, 7\ndiv $t1, $t2\nmflo $t0" Reg.t0);
  check_int "div remainder" 1
    (run_and_get "li $t1, 29\nli $t2, 7\ndiv $t1, $t2\nmfhi $t0" Reg.t0)

(* The product of two 32-bit values needs 64 bits: INT_MIN * INT_MIN is
   2^62, one past OCaml's largest int. *)
let test_mult_int_min () =
  let mult = "li $t1, -2147483648\nli $t2, -2147483648\nmult $t1, $t2\n" in
  check_int "hi" 0x40000000 (run_and_get (mult ^ "mfhi $t0") Reg.t0);
  check_int "lo" 0 (run_and_get (mult ^ "mflo $t0") Reg.t0)

let mult_program = Asm.assemble "mult $t1, $t2\nmfhi $t3\nmflo $t4\nli $v0, 10\nsyscall"

let prop_mult_int64 =
  let int32 = QCheck.map Int32.to_int QCheck.int32 in
  QCheck.Test.make ~name:"mult = Int64 product" ~count:500
    (QCheck.pair int32 int32) (fun (a, b) ->
      let p = Int64.mul (Int64.of_int a) (Int64.of_int b) in
      let hi = Int64.to_int (Int64.shift_right p 32)
      and lo = Int32.to_int (Int64.to_int32 p) in
      let st = Cpu.create_state ~mem_bytes:(64 * 1024) () in
      Cpu.set_reg st Reg.t1 a;
      Cpu.set_reg st Reg.t2 b;
      ignore (Cpu.run mult_program st);
      (Cpu.reg st Reg.t3, Cpu.reg st Reg.t4) = (hi, lo))

let test_slt_family () =
  check_int "slt true" 1 (run_and_get "li $t1, -5\nli $t2, 3\nslt $t0, $t1, $t2" Reg.t0);
  check_int "sltu: -5 is huge unsigned" 0
    (run_and_get "li $t1, -5\nli $t2, 3\nsltu $t0, $t1, $t2" Reg.t0);
  check_int "slti" 1 (run_and_get "li $t1, -9\nslti $t0, $t1, 0" Reg.t0)

let test_zero_register () =
  check_int "writes ignored" 0 (run_and_get "li $zero, 55\naddu $t0, $zero, $zero" Reg.t0)

let test_memory_ops () =
  check_int "store/load word" 1234
    (run_and_get "li $t1, 1234\nsw $t1, 0($sp)\nlw $t0, 0($sp)" Reg.t0);
  check_int "byte ops" (-1)
    (run_and_get "li $t1, 255\nsb $t1, 0($sp)\nlb $t0, 0($sp)" Reg.t0)

(* ---- control flow --------------------------------------------------------- *)

let test_loop_sum () =
  (* sum 1..10 = 55 *)
  let src =
    {|
      li $t1, 10
      li $t0, 0
    loop:
      add $t0, $t0, $t1
      addiu $t1, $t1, -1
      bgtz $t1, loop
    |}
  in
  check_int "sum" 55 (run_and_get src Reg.t0)

let test_call_return () =
  let src =
    {|
      jal double
      j done
    double:
      sll $t0, $a0, 1
      jr $ra
    done:
      nop
    |}
  in
  check_int "jal/jr" 0 (run_and_get ("li $a0, 0\n" ^ src) Reg.zero);
  let p = Asm.assemble ("li $a0, 21\n" ^ src ^ "\nli $v0, 10\nsyscall") in
  let state = Cpu.create_state ~mem_bytes:(64 * 1024) () in
  let _ = Cpu.run p state in
  check_int "result" 42 (Cpu.reg state Reg.t0)

let test_branch_taken_and_not () =
  check_int "beq not taken" 1
    (run_and_get "li $t1, 1\nli $t2, 2\nli $t0, 1\nbeq $t1, $t2, skip\nnop\nskip:" Reg.t0);
  check_int "bltz taken" 5
    (run_and_get "li $t1, -1\nli $t0, 5\nbltz $t1, skip\nli $t0, 9\nskip:" Reg.t0)

(* ---- floating point -------------------------------------------------------- *)

let feq got want = Float.abs (got -. want) < 1e-5

let run_float src =
  let p =
    Asm.assemble (src ^ "\nmov.s $f12, $f0\nli $v0, 2\nsyscall\nli $v0, 10\nsyscall")
  in
  let state = Cpu.create_state ~mem_bytes:(64 * 1024) () in
  let _ = Cpu.run p state in
  float_of_string (Cpu.output state)

let test_fp_arith () =
  let prelude = "li $t0, 1078530011\nmtc1 $t0, $f1\n" in
  (* 1078530011 = bits of 3.14159265f *)
  Alcotest.(check bool) "mtc1 bits" true
    (feq (run_float (prelude ^ "mov.s $f0, $f1")) 3.14159265);
  Alcotest.(check bool) "add.s" true
    (feq (run_float (prelude ^ "add.s $f0, $f1, $f1")) 6.2831853);
  Alcotest.(check bool) "mul.s" true
    (feq (run_float (prelude ^ "mul.s $f0, $f1, $f1")) 9.8696044);
  Alcotest.(check bool) "neg+abs" true
    (feq (run_float (prelude ^ "neg.s $f2, $f1\nabs.s $f0, $f2")) 3.14159265)

let test_fp_convert () =
  Alcotest.(check bool) "cvt.s.w" true
    (feq (run_float "li $t0, 7\nmtc1 $t0, $f1\ncvt.s.w $f0, $f1") 7.0)

let test_fp_compare_branch () =
  let src =
    {|
      li $t0, 1065353216    # 1.0f
      mtc1 $t0, $f1
      li $t0, 1073741824    # 2.0f
      mtc1 $t0, $f2
      c.lt.s $f1, $f2
      li $t1, 0
      bc1t yes
      li $t1, 5
    yes:
      addu $t0, $t1, $zero
    |}
  in
  check_int "bc1t taken" 0 (run_and_get src Reg.t0)

(* ---- syscalls ------------------------------------------------------------- *)

let test_print_int () =
  check_string "print" "123"
    (run_output "li $a0, 123\nli $v0, 1\nsyscall\nli $v0, 10\nsyscall")

let test_print_char () =
  check_string "print char" "A\n"
    (run_output
       "li $a0, 65\nli $v0, 11\nsyscall\nli $a0, 10\nli $v0, 11\nsyscall\nli $v0, 10\nsyscall")

let test_exit_code () =
  let p = Asm.assemble "li $a0, 42\nli $v0, 10\nsyscall" in
  let state = Cpu.create_state ~mem_bytes:(64 * 1024) () in
  let r = Cpu.run p state in
  check_int "exit code" 42 r.Cpu.exit_code

(* ---- traps ---------------------------------------------------------------- *)

let test_trap_budget () =
  let p = Asm.assemble "loop: j loop" in
  let state = Cpu.create_state ~mem_bytes:(64 * 1024) () in
  Alcotest.check_raises "budget" (Cpu.Trap "instruction budget exceeded")
    (fun () -> ignore (Cpu.run ~max_instructions:100 p state))

let test_trap_div_zero () =
  let p = Asm.assemble "li $t1, 1\ndiv $t1, $zero\nli $v0, 10\nsyscall" in
  let state = Cpu.create_state ~mem_bytes:(64 * 1024) () in
  Alcotest.check_raises "div0" (Cpu.Trap "integer division by zero") (fun () ->
      ignore (Cpu.run p state))

(* corrupted control flow must land in the typed Cycle_limit fault, never
   spin forever or trip the generic instruction budget first *)
let test_max_cycles_fault () =
  let p = Asm.assemble "loop: j loop" in
  let state = Cpu.create_state ~mem_bytes:(64 * 1024) () in
  match Cpu.run ~max_cycles:100 p state with
  | _ -> Alcotest.fail "infinite loop terminated"
  | exception Machine.Fault.Fault (Machine.Fault.Cycle_limit { limit }) ->
      check_int "cap reported" 100 limit

(* satellite: whatever garbage the fetch path delivers, Cpu.run must end in
   a normal result, a Trap, or a typed Machine.Fault — never a leaked
   Invalid_argument from the word decoder *)
let test_fuzz_fetched_words () =
  let p = Asm.assemble "li $v0, 10\nsyscall" in
  let rng = Random.State.make [| 0x5eed |] in
  for trial = 1 to 400 do
    let w =
      (Random.State.bits rng lor (Random.State.bits rng lsl 30))
      land 0xffff_ffff
    in
    let state = Cpu.create_state ~mem_bytes:(64 * 1024) () in
    match Cpu.run ~max_cycles:200 ~fetch_word:(fun ~pc:_ -> w) p state with
    | _ -> ()
    | exception Machine.Fault.Fault _ -> ()
    | exception Cpu.Trap _ -> ()
    | exception Memory.Fault _ -> ()
    | exception e ->
        Alcotest.failf "trial %d word %08x leaked %s" trial w
          (Printexc.to_string e)
  done;
  (* not a 32-bit word at all, on a pc never fetched before *)
  let state = Cpu.create_state ~mem_bytes:(64 * 1024) () in
  match Cpu.run ~max_cycles:200 ~fetch_word:(fun ~pc:_ -> -1) p state with
  | _ -> Alcotest.fail "word -1 ran"
  | exception Machine.Fault.Fault (Machine.Fault.Illegal_instruction { pc; word })
    ->
      check_int "pc" 0 pc;
      check_int "word" (-1) word

let test_fetch_hook_counts () =
  let p = Asm.assemble "nop\nnop\nnop\nli $v0, 10\nsyscall" in
  let state = Cpu.create_state ~mem_bytes:(64 * 1024) () in
  let seen = ref [] in
  let r = Cpu.run ~on_fetch:(fun ~pc -> seen := pc :: !seen) p state in
  check_int "instruction count" 5 r.Cpu.instructions;
  Alcotest.(check (list int)) "fetch order" [ 0; 1; 2; 3; 4 ] (List.rev !seen)

(* ---- fresh states ------------------------------------------------------------ *)

(* Writes a word and a byte, prints, leaves values in hi/lo, an FP
   register and the FP flag, and exits with code 3. *)
let dirty_exit =
  {|
    li $t0, 1234
    sw $t0, 256($zero)
    li $t1, 77
    sb $t1, 1000($zero)
    mult $t0, $t1
    mtc1 $t0, $f2
    c.eq.s $f2, $f2
    addiu $sp, $sp, -64
    li $a0, 42
    li $v0, 1
    syscall
    li $a0, 3
    li $v0, 10
    syscall
  |}

(* Stores, prints, then divides by zero before reaching its exit. *)
let dirty_trap =
  {|
    li $t0, 99
    sw $t0, 512($zero)
    li $a0, 7
    li $v0, 1
    syscall
    li $t1, 0
    div $t0, $t1
    li $v0, 10
    syscall
  |}

(* Prints what the earlier programs could have left behind: memory,
   registers, hi/lo, the FP register and flag, and $sp; then writes and
   exits with a code read from memory. *)
let probe_state =
  {|
    li $v0, 1
    lw $a0, 256($zero)
    syscall
    lb $a0, 1000($zero)
    syscall
    lw $a0, 512($zero)
    syscall
    move $a0, $t0
    syscall
    mfhi $a0
    syscall
    mflo $a0
    syscall
    mfc1 $a0, $f2
    syscall
    move $a0, $sp
    syscall
    bc1t flagged
    li $a0, 5
    syscall
  flagged:
    sw $sp, 2048($zero)
    lw $a0, 512($zero)
    li $v0, 10
    syscall
  |}

let memory_words state =
  let m = Cpu.memory state in
  List.init (Memory.size m / 4) (fun i -> Memory.load_word m (i * 4))

let registers state =
  List.init 32 (fun i ->
      ( Cpu.reg state (Reg.of_int i),
        Int64.bits_of_float (Cpu.freg state (Reg.f_of_int i)) ))

(* Every page of a fresh state's memory is the one shared zero page, so a
   run that wrote through it would show in every state made before or
   after that run. *)
let test_zero_page_never_written () =
  let mem_bytes = 64 * 1024 in
  let before = Cpu.create_state ~mem_bytes () in
  let dirty = Cpu.create_state ~mem_bytes () in
  let exit_run = Cpu.run (Asm.assemble dirty_exit) dirty in
  check_int "first program exits non-zero" 3 exit_run.Cpu.exit_code;
  (match Cpu.run (Asm.assemble dirty_trap) dirty with
  | _ -> Alcotest.fail "expected a trap"
  | exception Cpu.Trap _ -> ());
  check_string "both programs printed" "427" (Cpu.output dirty);
  let after = Cpu.create_state ~mem_bytes () in
  let probe = Asm.assemble probe_state in
  let r_before = Cpu.run probe before and r_after = Cpu.run probe after in
  Alcotest.(check bool) "same result" true (r_before = r_after);
  check_string "same output" (Cpu.output after) (Cpu.output before);
  check_string "reads zeros where the dirty run wrote" "000"
    (String.sub (Cpu.output before) 0 3);
  Alcotest.(check (list int)) "same memory" (memory_words after)
    (memory_words before);
  Alcotest.(check bool) "same registers" true
    (registers before = registers after)

(* Two domains each run a different program on a state of its own, and
   each gives exactly what it gives alone. *)
let test_states_in_parallel () =
  let run name () =
    let w = Workloads.by_name (Workloads.scaled @ Workloads.extended) name in
    let state = Cpu.create_state () in
    let r = Cpu.run (Workloads.compile w).Minic.Compile.program state in
    (r, Cpu.output state, memory_words state, registers state)
  in
  let alone = List.map (fun name -> run name ()) [ "fir"; "sor" ] in
  let together =
    List.map Domain.join
      (List.map (fun name -> Domain.spawn (run name)) [ "fir"; "sor" ])
  in
  List.iter2
    (fun (r, out, mem, regs) (r', out', mem', regs') ->
      Alcotest.(check bool) "same result" true (r = r');
      check_string "same output" out out';
      Alcotest.(check bool) "same memory" true (mem = mem');
      Alcotest.(check bool) "same registers" true (regs = regs'))
    alone together

(* ---- compiled interpreter vs the reference loop ------------------------------ *)

module Oracle = Cpu_oracle

(* Everything a caller can see of one run: how it ended (a result or the
   exception), the fetches before that and their per-pc counts, the
   output, and the integer and FP registers. *)
type seen = {
  ended : (Cpu.result, exn) result;
  fetches : int;
  counts : int array;
  printed : string;
  regs : (int * int64) list;
}

let observe program run ~printed ~regs =
  let counts = Array.make (Isa.Program.length program) 0 and fetches = ref 0 in
  let on_fetch ~pc =
    counts.(pc) <- counts.(pc) + 1;
    incr fetches
  in
  let ended = match run ~on_fetch with r -> Ok r | exception e -> Error e in
  { ended; fetches = !fetches; counts; printed = printed (); regs = regs () }

(* Runs [program] under both interpreters.  [fetch_word] and [mmio] are
   factories, so each run gets a fetch stream or a window of its own. *)
let run_both ?max_instructions ?max_cycles ?fetch_word ?mmio program =
  let arg f = Option.map (fun make -> make ()) f in
  let compiled =
    let st = Cpu.create_state () in
    observe program
      (fun ~on_fetch ->
        Cpu.run ?max_instructions ?max_cycles ~on_fetch ?fetch_word:(arg fetch_word)
          ?mmio:(arg mmio) program st)
      ~printed:(fun () -> Cpu.output st)
      ~regs:(fun () -> registers st)
  and reference =
    let st = Oracle.create_state () in
    observe program
      (fun ~on_fetch ->
        Oracle.run ?max_instructions ?max_cycles ~on_fetch
          ?fetch_word:(arg fetch_word) ?mmio:(arg mmio) program st)
      ~printed:(fun () -> Buffer.contents st.Oracle.out)
      ~regs:(fun () ->
        List.init 32 (fun i ->
            (st.Oracle.regs.(i), Int64.bits_of_float st.Oracle.fregs.(i))))
  in
  (compiled, reference)

let show_end = function
  | Ok (r : Cpu.result) ->
      Printf.sprintf "exit %d after %d (pc_final %d)" r.exit_code r.instructions
        r.pc_final
  | Error e -> Printexc.to_string e

let same_seen what (compiled, reference) =
  if compiled <> reference then
    Alcotest.failf "%s: compiled %s after %d fetches, reference %s after %d" what
      (show_end compiled.ended) compiled.fetches (show_end reference.ended)
      reference.fetches

let benches = Workloads.scaled @ Workloads.extended

let test_oracle_benches () =
  check_int "nine benches" 9 (List.length benches);
  List.iter
    (fun w ->
      let program = (Workloads.compile w).Minic.Compile.program in
      let both = run_both program in
      same_seen w.Workloads.name both;
      match (fst both).ended with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "%s raised %s" w.name (Printexc.to_string e))
    benches

let prop_oracle_minic =
  QCheck.Test.make ~name:"random programs: compiled = reference" ~count:40
    (QCheck.make ~print:Fun.id Minic_gen.gen_program) (fun src ->
      let program = (Minic.Compile.compile src).Minic.Compile.program in
      let compiled, reference = run_both program in
      compiled = reference)

(* Random programs over every instruction kind: memory mostly near [$sp],
   branches and jumps forward.  [jr] and [jalr] can still loop, so runs
   carry a cycle cap. *)
let gen_insns =
  let open QCheck.Gen in
  (* a few registers most of the time, so instructions feed each other *)
  let few k = frequency [ (3, k -- (k + 5)); (1, 0 -- 31) ] in
  let r = map Reg.of_int (few 8) and f = map Reg.f_of_int (few 0) in
  let simm = -32768 -- 32767 and uimm = 0 -- 0xffff and sa = 0 -- 31 in
  let base = frequency [ (4, return Reg.sp); (1, r) ] in
  (* [$sp] starts 16 bytes below the top of memory *)
  let off = map (fun k -> k * 4) (-16 -- 3) and boff = -64 -- 15 in
  let insn n pc =
    let ahead = 0 -- min 3 (n - pc) in
    let target = (pc + 1) -- min n (pc + 4) in
    let r3 c = map3 c r r r and f3 c = map3 c f f f and f2 c = map2 c f f in
    let open Isa.Insn in
    frequency
      (List.map (fun g -> (2, g))
         [
           r3 (fun d a b -> Add (d, a, b)); r3 (fun d a b -> Addu (d, a, b));
           r3 (fun d a b -> Sub (d, a, b)); r3 (fun d a b -> Subu (d, a, b));
           r3 (fun d a b -> And (d, a, b)); r3 (fun d a b -> Or (d, a, b));
           r3 (fun d a b -> Xor (d, a, b)); r3 (fun d a b -> Nor (d, a, b));
           r3 (fun d a b -> Slt (d, a, b)); r3 (fun d a b -> Sltu (d, a, b));
           r3 (fun d a b -> Sllv (d, a, b)); r3 (fun d a b -> Srlv (d, a, b));
           r3 (fun d a b -> Srav (d, a, b));
           map3 (fun d t k -> Sll (d, t, k)) r r sa;
           map3 (fun d t k -> Srl (d, t, k)) r r sa;
           map3 (fun d t k -> Sra (d, t, k)) r r sa;
           map2 (fun a b -> Mult (a, b)) r r;
           map (fun d -> Mfhi d) r; map (fun d -> Mflo d) r;
           map3 (fun t a v -> Slti (t, a, v)) r r simm;
           map3 (fun t a v -> Andi (t, a, v)) r r uimm;
           map3 (fun t a v -> Xori (t, a, v)) r r uimm;
           map3 (fun t o b -> Lw (t, o, b)) r off base;
           map3 (fun t o b -> Sw (t, o, b)) r off base;
           map3 (fun t o b -> Lb (t, o, b)) r boff base;
           map3 (fun t o b -> Sb (t, o, b)) r boff base;
           map3 (fun t o b -> Lwc1 (t, o, b)) f off base;
           map3 (fun t o b -> Swc1 (t, o, b)) f off base;
           map3 (fun a b o -> Beq (a, b, o)) r r ahead;
           map3 (fun a b o -> Bne (a, b, o)) r r ahead;
           map2 (fun a o -> Blez (a, o)) r ahead;
           map2 (fun a o -> Bgtz (a, o)) r ahead;
           map2 (fun a o -> Bltz (a, o)) r ahead;
           map2 (fun a o -> Bgez (a, o)) r ahead;
           map (fun o -> Bc1t o) ahead; map (fun o -> Bc1f o) ahead;
           map (fun t -> J t) target; map (fun t -> Jal t) target;
           map2 (fun t x -> Mfc1 (t, x)) r f;
           f3 (fun d a b -> Add_s (d, a, b)); f3 (fun d a b -> Sub_s (d, a, b));
           f3 (fun d a b -> Mul_s (d, a, b)); f3 (fun d a b -> Div_s (d, a, b));
           f2 (fun d a -> Abs_s (d, a)); f2 (fun d a -> Neg_s (d, a));
           f2 (fun d a -> Mov_s (d, a)); f2 (fun d a -> Sqrt_s (d, a));
           f2 (fun d a -> Cvt_s_w (d, a)); f2 (fun d a -> Cvt_w_s (d, a));
           f2 (fun a b -> C_eq_s (a, b)); f2 (fun a b -> C_lt_s (a, b));
           f2 (fun a b -> C_le_s (a, b)); return Nop;
         ]
      @ [
          (* fill registers with varied values *)
          (12, map3 (fun t a v -> Addiu (t, a, v)) r r simm);
          (6, map3 (fun t a v -> Addi (t, a, v)) r r simm);
          (8, map2 (fun t v -> Lui (t, v)) r uimm);
          (8, map3 (fun t a v -> Ori (t, a, v)) r r uimm);
          (8, map2 (fun t x -> Mtc1 (t, x)) r f);
          (1, map2 (fun a b -> Div (a, b)) r r);
          (1, map (fun a -> Jr a) r);
          (1, map2 (fun d a -> Jalr (d, a)) r r);
          (1, return Syscall);
        ])
  in
  (* random values in $8..$13, and their bits in $f0..$f5 *)
  let fill st =
    List.concat_map
      (fun k ->
        let t = Reg.of_int (8 + k) in
        Isa.Insn.
          [
            Lui (t, uimm st); Ori (t, t, uimm st); Mtc1 (t, Reg.f_of_int k);
          ])
      (List.init 6 Fun.id)
  in
  let exit = Isa.Insn.[ Addiu (Reg.v0, Reg.zero, 10); Syscall ] in
  sized_size (10 -- 80) (fun n st ->
      let fill = fill st in
      let start = List.length fill in
      let body = List.init n (fun i -> insn (start + n) (start + i) st) in
      Isa.Program.of_insns (Array.of_list (fill @ body @ exit)))

let prop_oracle_insns =
  QCheck.Test.make ~name:"random instructions: compiled = reference" ~count:500
    (QCheck.make
       ~print:(fun p ->
         String.concat "\n"
           (Array.to_list (Array.map Isa.Insn.to_string (Isa.Program.insns p))))
       gen_insns)
    (fun program ->
      let compiled, reference = run_both ~max_cycles:2_000 program in
      compiled = reference)

(* A fetch path that mostly delivers the program's words, sometimes a
   random 32-bit word or the word of another pc, and from fetch [switch]
   on delivers [replacement] at [victim] for good.  Seeded, so both
   interpreters see the same stream. *)
let corrupt_stream program seed () =
  let words = Isa.Program.words program in
  let n = Array.length words in
  let rng = Random.State.make [| seed |] in
  let switch = Random.State.int rng 400 and victim = Random.State.int rng n in
  let replacement = words.(Random.State.int rng n) in
  let fetches = ref 0 in
  fun ~pc ->
    incr fetches;
    match Random.State.int rng 100 with
    | 0 | 1 -> Random.State.bits rng lor ((Random.State.bits rng land 3) lsl 30)
    | 2 | 3 | 4 -> words.(Random.State.int rng n)
    | _ -> if pc = victim && !fetches > switch then replacement else words.(pc)

let test_oracle_fetch_word () =
  let programs =
    Asm.assemble dirty_exit
    :: List.map
         (fun name ->
           (Workloads.compile (Workloads.by_name benches name))
             .Minic.Compile.program)
         [ "fir"; "sor" ]
  in
  let ends = Hashtbl.create 8 in
  List.iteri
    (fun i program ->
      for seed = 1 to 60 do
        let both =
          run_both ~max_cycles:20_000
            ~fetch_word:(corrupt_stream program ((i * 1000) + seed))
            program
        in
        same_seen (Printf.sprintf "program %d seed %d" i seed) both;
        let kind =
          match (fst both).ended with
          | Ok _ -> "exit"
          | Error (Machine.Fault.Fault c) -> Machine.Fault.label c
          | Error e -> Printexc.exn_slot_name e
        in
        Hashtbl.replace ends kind ()
      done)
    programs;
  (* the streams reach illegal words, not only clean exits *)
  Alcotest.(check bool) "illegal instructions delivered" true
    (Hashtbl.mem ends "illegal-instruction");
  Alcotest.(check bool) "some runs still exit" true (Hashtbl.mem ends "exit")

(* Budget and cycle cap at the same value (the budget's [Trap] wins), and
   each one below the other. *)
let test_oracle_limits () =
  let program =
    (Workloads.compile (Workloads.by_name benches "fir")).Minic.Compile.program
  in
  let l = 5_000 in
  List.iter
    (fun (max_instructions, max_cycles, want) ->
      let compiled, _ as both = run_both ?max_instructions ?max_cycles program in
      same_seen want both;
      let got =
        match compiled.ended with
        | Error (Cpu.Trap m) -> m
        | Error (Machine.Fault.Fault c) -> Machine.Fault.to_string c
        | Error e -> Printexc.to_string e
        | Ok _ -> "exit"
      in
      check_string "raised" want got;
      let limit = Option.value ~default:max_int in
      check_int "fetches before it"
        (min (limit max_instructions) (limit max_cycles))
        compiled.fetches)
    [
      (Some l, Some l, "instruction budget exceeded");
      (Some l, Some (l + 1), "instruction budget exceeded");
      (Some (l + 1), Some l, Machine.Fault.to_string (Cycle_limit { limit = l }));
      (Some l, None, "instruction budget exceeded");
      (None, Some l, Machine.Fault.to_string (Cycle_limit { limit = l }));
    ]

(* Stores and loads through the programming port's window next to
   ordinary memory traffic. *)
let mmio_program =
  {|
    li $t0, 0x40000000
    li $t1, 5
    sw $t1, 0($t0)
    lw $a0, 0($t0)
    li $v0, 1
    syscall
    li $t1, 0x1234
    sw $t1, 28($t0)
    lw $a0, 28($t0)
    syscall
    sw $t1, 20($t0)
    sw $t1, 8($sp)
    lw $a0, 8($sp)
    syscall
    lw $a0, 32($t0)
    syscall
    li $v0, 10
    syscall
  |}

(* [logged_port logs ()] is a fresh programming port whose traffic is
   logged in a list of its own, added to [logs]. *)
let logged_port logs () =
  let log = ref [] in
  logs := log :: !logs;
  let port =
    Hardware.Peripheral.mmio
      (Hardware.Peripheral.create ~tt:(Hardware.Tt.create ())
         ~bbit:(Hardware.Bbit.create ()))
  in
  {
    port with
    Cpu.mmio_store =
      (fun ~offset ~value ->
        log := `Store (offset, value) :: !log;
        port.mmio_store ~offset ~value);
    mmio_load =
      (fun ~offset ->
        let v = port.mmio_load ~offset in
        log := `Load (offset, v) :: !log;
        v);
  }

let test_oracle_mmio () =
  let script =
    [ (0x00, 3); (0x04, 0x76543210); (0x14, 0x301); (0x18, 2); (0x1c, 40); (0x20, 3) ]
  in
  List.iter
    (fun (what, program, uses_port) ->
      let logs = ref [] in
      let compiled, _ as both = run_both ~mmio:(logged_port logs) program in
      same_seen what both;
      (match !logs with
      | [ a; b ] ->
          Alcotest.(check bool) (what ^ ": same port traffic") true (!a = !b);
          Alcotest.(check bool) (what ^ ": port used") uses_port (!a <> [])
      | _ -> Alcotest.fail "one window per run");
      match compiled.ended with
      | Ok _ when uses_port -> ()
      | Error (Memory.Fault _) when not uses_port -> ()
      | e -> Alcotest.failf "%s: %s" what (show_end e))
    [
      ("mixed traffic", Asm.assemble mmio_program, true);
      ("loader", Hardware.Peripheral.loader_program script, true);
      (* a byte access to the window is no port access: data memory faults *)
      ( "byte access",
        Asm.assemble "li $t0, 0x40000000\nlb $a0, 0($t0)\nli $v0, 10\nsyscall",
        false );
    ]

(* ---- instruction cache ------------------------------------------------------ *)

let test_icache_hit_miss () =
  let image = Array.init 64 (fun i -> i * 3) in
  let c = Machine.Icache.create { Machine.Icache.lines = 4; words_per_line = 4 } ~image in
  let _, hit1 = Machine.Icache.access c ~pc:0 in
  let _, hit2 = Machine.Icache.access c ~pc:1 in
  let _, hit3 = Machine.Icache.access c ~pc:0 in
  Alcotest.(check bool) "cold miss" false hit1;
  Alcotest.(check bool) "same line hits" true hit2;
  Alcotest.(check bool) "repeat hits" true hit3;
  let s = Machine.Icache.stats c in
  check_int "one miss" 1 s.Machine.Icache.misses;
  check_int "one refill line" 4 s.Machine.Icache.memory_words

let test_icache_conflict_eviction () =
  let image = Array.init 64 (fun i -> i) in
  (* lines=2, words=4: line addresses 0 and 2 conflict on index 0 *)
  let c = Machine.Icache.create { Machine.Icache.lines = 2; words_per_line = 4 } ~image in
  let _ = Machine.Icache.access c ~pc:0 in
  let _ = Machine.Icache.access c ~pc:8 in
  let _, hit = Machine.Icache.access c ~pc:0 in
  Alcotest.(check bool) "evicted" false hit;
  check_int "three misses" 3 (Machine.Icache.stats c).Machine.Icache.misses

let test_icache_delivers_image_words () =
  let image = Array.init 32 (fun i -> (i * 2654435761) land 0xffffffff) in
  let c = Machine.Icache.create { Machine.Icache.lines = 2; words_per_line = 2 } ~image in
  for pc = 0 to 31 do
    let w, _ = Machine.Icache.access c ~pc in
    check_int "word" image.(pc) w
  done

let test_icache_loop_mostly_hits () =
  (* run a real loop through the cache: after warmup everything hits *)
  let p = Asm.assemble "li $t0, 50\nloop:\naddiu $t0, $t0, -1\nbgtz $t0, loop\nli $v0, 10\nsyscall" in
  let c =
    Machine.Icache.create { Machine.Icache.lines = 4; words_per_line = 4 }
      ~image:(Isa.Program.words p)
  in
  let state = Cpu.create_state ~mem_bytes:(64 * 1024) () in
  let _ = Cpu.run ~on_fetch:(fun ~pc -> ignore (Machine.Icache.access c ~pc)) p state in
  let s = Machine.Icache.stats c in
  Alcotest.(check bool) "high hit rate" true
    (s.Machine.Icache.misses * 20 < s.Machine.Icache.accesses)

let test_icache_reset () =
  let image = Array.make 8 7 in
  let c = Machine.Icache.create { Machine.Icache.lines = 2; words_per_line = 2 } ~image in
  let _ = Machine.Icache.access c ~pc:0 in
  Machine.Icache.reset c;
  check_int "cleared" 0 (Machine.Icache.stats c).Machine.Icache.accesses;
  let _, hit = Machine.Icache.access c ~pc:0 in
  Alcotest.(check bool) "cold again" false hit

let () =
  Alcotest.run "machine"
    [
      ( "memory",
        [
          Alcotest.test_case "word" `Quick test_memory_word;
          Alcotest.test_case "byte sign" `Quick test_memory_byte_sign;
          Alcotest.test_case "faults" `Quick test_memory_faults;
          Alcotest.test_case "float" `Quick test_memory_float;
          QCheck_alcotest.to_alcotest prop_paged_matches_flat;
        ] );
      ( "integer",
        [
          Alcotest.test_case "arithmetic" `Quick test_arithmetic;
          Alcotest.test_case "logic" `Quick test_logic;
          Alcotest.test_case "shifts" `Quick test_shifts;
          Alcotest.test_case "mult/div" `Quick test_mult_div;
          Alcotest.test_case "mult INT_MIN" `Quick test_mult_int_min;
          QCheck_alcotest.to_alcotest prop_mult_int64;
          Alcotest.test_case "slt family" `Quick test_slt_family;
          Alcotest.test_case "$zero" `Quick test_zero_register;
          Alcotest.test_case "loads/stores" `Quick test_memory_ops;
        ] );
      ( "control",
        [
          Alcotest.test_case "loop" `Quick test_loop_sum;
          Alcotest.test_case "call/return" `Quick test_call_return;
          Alcotest.test_case "branches" `Quick test_branch_taken_and_not;
        ] );
      ( "float",
        [
          Alcotest.test_case "arith" `Quick test_fp_arith;
          Alcotest.test_case "convert" `Quick test_fp_convert;
          Alcotest.test_case "compare+branch" `Quick test_fp_compare_branch;
        ] );
      ( "system",
        [
          Alcotest.test_case "print int" `Quick test_print_int;
          Alcotest.test_case "print char" `Quick test_print_char;
          Alcotest.test_case "exit code" `Quick test_exit_code;
          Alcotest.test_case "budget trap" `Quick test_trap_budget;
          Alcotest.test_case "div zero trap" `Quick test_trap_div_zero;
          Alcotest.test_case "max_cycles fault" `Quick test_max_cycles_fault;
          Alcotest.test_case "fuzz fetched words" `Quick
            test_fuzz_fetched_words;
          Alcotest.test_case "fetch hook" `Quick test_fetch_hook_counts;
          Alcotest.test_case "zero page never written" `Quick
            test_zero_page_never_written;
          Alcotest.test_case "states in two domains" `Quick
            test_states_in_parallel;
        ] );
      ( "oracle",
        [
          Alcotest.test_case "nine benches" `Quick test_oracle_benches;
          QCheck_alcotest.to_alcotest prop_oracle_minic;
          QCheck_alcotest.to_alcotest prop_oracle_insns;
          Alcotest.test_case "fetch_word stream" `Quick test_oracle_fetch_word;
          Alcotest.test_case "budget and cycle cap" `Quick test_oracle_limits;
          Alcotest.test_case "mmio window" `Quick test_oracle_mmio;
        ] );
      ( "icache",
        [
          Alcotest.test_case "hit/miss" `Quick test_icache_hit_miss;
          Alcotest.test_case "conflict eviction" `Quick
            test_icache_conflict_eviction;
          Alcotest.test_case "delivers image words" `Quick
            test_icache_delivers_image_words;
          Alcotest.test_case "loop mostly hits" `Quick
            test_icache_loop_mostly_hits;
          Alcotest.test_case "reset" `Quick test_icache_reset;
        ] );
    ]
