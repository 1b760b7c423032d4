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
  done

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
