(* The reference interpreter for [Machine.Cpu.run]: the simulator as it
   was before it compiled each instruction into a closure, a loop that
   matches the instruction variant on every fetch.  It runs on a state of
   its own, with the same [run] arguments and the same exceptions, so a
   test can run one program both ways and compare everything a caller can
   see.  Its one change from that loop: [mult] takes its product through
   [Int64], as the simulator now does. *)

type state = {
  regs : int array;
  fregs : float array;
  mutable hi : int;
  mutable lo : int;
  mutable fcc : bool;  (* FP condition flag *)
  mutable pc : int;
  mem : Machine.Memory.t;
  out : Buffer.t;
}

let sign32 v =
  let m = v land 0xffffffff in
  if m >= 0x80000000 then m - 0x100000000 else m

let single v = Int32.float_of_bits (Int32.bits_of_float v)

let create_state ?(mem_bytes = 4 * 1024 * 1024) () =
  let s =
    {
      regs = Array.make 32 0;
      fregs = Array.make 32 0.0;
      hi = 0;
      lo = 0;
      fcc = false;
      pc = 0;
      mem = Machine.Memory.create ~bytes:mem_bytes;
      out = Buffer.create 256;
    }
  in
  s.regs.(Isa.Reg.to_int Isa.Reg.sp) <- mem_bytes - 16;
  s

let string_at mem addr =
  let b = Buffer.create 16 in
  let rec go a =
    let c = Machine.Memory.load_byte mem a land 0xff in
    if c <> 0 then begin
      Buffer.add_char b (Char.chr c);
      go (a + 1)
    end
  in
  go addr;
  Buffer.contents b

let run ?(max_instructions = max_int / 2) ?max_cycles ?on_fetch ?fetch_word
    ?mmio program state =
  let in_mmio addr =
    match mmio with
    | Some (m : Machine.Cpu.mmio) -> addr >= m.base && addr < m.base + m.size
    | None -> false
  in
  let load_word_routed addr =
    if in_mmio addr then
      match mmio with
      | Some (m : Machine.Cpu.mmio) -> sign32 (m.mmio_load ~offset:(addr - m.base))
      | None -> assert false
    else Machine.Memory.load_word state.mem addr
  in
  let store_word_routed addr v =
    if in_mmio addr then
      match mmio with
      | Some (m : Machine.Cpu.mmio) -> m.mmio_store ~offset:(addr - m.base) ~value:(v land 0xffffffff)
      | None -> assert false
    else Machine.Memory.store_word state.mem addr v
  in
  let insns = Isa.Program.insns program in
  let n = Array.length insns in
  (* Bus words for the tracer; the array is a cached field of the program,
     so this is a pointer copy, not an encode. *)
  let bus_words = Isa.Program.words program in
  (* With a [fetch_word] override the executed stream is whatever the
     (possibly corrupted) fetch path delivers, decoded word by word.  The
     per-pc cache keys on the delivered word, so a steady image decodes each
     pc once while transient glitches and mid-run degradation still take
     effect. *)
  let decode_cache =
    match fetch_word with
    | None -> [||]
    | Some _ -> Array.make n (-1, Isa.Insn.Nop)
  in
  let insn_at pc =
    match fetch_word with
    | None -> insns.(pc)
    | Some fw -> (
        let w = fw ~pc in
        match decode_cache.(pc) with
        | cw, ci when cw = w -> ci
        | _ -> (
            match Isa.Word.decode w with
            | i ->
                decode_cache.(pc) <- (w, i);
                i
            | exception (Isa.Word.Unknown_instruction _ | Invalid_argument _)
              ->
                raise (Machine.Fault.Fault (Machine.Fault.Illegal_instruction { pc; word = w }))))
  in
  let g r = state.regs.(Isa.Reg.to_int r) in
  let gset r v =
    let i = Isa.Reg.to_int r in
    if i <> 0 then state.regs.(i) <- sign32 v
  in
  let f r = state.fregs.(Isa.Reg.f_to_int r) in
  let fset r v = state.fregs.(Isa.Reg.f_to_int r) <- single v in
  let count = ref 0 in
  let exit_code = ref 0 in
  let running = ref true in
  state.pc <- 0;
  while !running do
    let pc = state.pc in
    if pc < 0 || pc >= n then
      raise (Machine.Fault.Fault (Machine.Fault.Pc_out_of_range { pc; limit = n }));
    if !count >= max_instructions then raise (Machine.Cpu.Trap "instruction budget exceeded");
    (match max_cycles with
    | Some cap when !count >= cap -> raise (Machine.Fault.Fault (Machine.Fault.Cycle_limit { limit = cap }))
    | _ -> ());
    (* Tick the trace clock before the fetch hook, so events the hook (or
       anything below it) emits are stamped with this fetch's tick. *)
    if Trace.Collector.enabled () then
      Trace.Collector.fetch ~pc ~word:(Array.unsafe_get bus_words pc);
    (match on_fetch with Some hook -> hook ~pc | None -> ());
    incr count;
    let next = ref (pc + 1) in
    (match insn_at pc with
    | Isa.Insn.Add (d, s, t) | Isa.Insn.Addu (d, s, t) -> gset d (g s + g t)
    | Isa.Insn.Sub (d, s, t) | Isa.Insn.Subu (d, s, t) -> gset d (g s - g t)
    | Isa.Insn.And (d, s, t) -> gset d (g s land g t)
    | Isa.Insn.Or (d, s, t) -> gset d (g s lor g t)
    | Isa.Insn.Xor (d, s, t) -> gset d (g s lxor g t)
    | Isa.Insn.Nor (d, s, t) -> gset d (lnot (g s lor g t))
    | Isa.Insn.Slt (d, s, t) -> gset d (if g s < g t then 1 else 0)
    | Isa.Insn.Sltu (d, s, t) ->
        let u v = v land 0xffffffff in
        gset d (if u (g s) < u (g t) then 1 else 0)
    | Isa.Insn.Sll (d, t, sa) -> gset d (g t lsl sa)
    | Isa.Insn.Srl (d, t, sa) -> gset d ((g t land 0xffffffff) lsr sa)
    | Isa.Insn.Sra (d, t, sa) -> gset d (g t asr sa)
    | Isa.Insn.Sllv (d, t, s) -> gset d (g t lsl (g s land 31))
    | Isa.Insn.Srlv (d, t, s) -> gset d ((g t land 0xffffffff) lsr (g s land 31))
    | Isa.Insn.Srav (d, t, s) -> gset d (g t asr (g s land 31))
    | Isa.Insn.Mult (s, t) ->
        let p = Int64.mul (Int64.of_int (g s)) (Int64.of_int (g t)) in
        state.lo <- sign32 (Int64.to_int p);
        state.hi <- sign32 (Int64.to_int (Int64.shift_right p 32))
    | Isa.Insn.Div (s, t) ->
        let dv = g t in
        if dv = 0 then raise (Machine.Cpu.Trap "integer division by zero");
        state.lo <- sign32 (g s / dv);
        state.hi <- sign32 (g s mod dv)
    | Isa.Insn.Mfhi d -> gset d state.hi
    | Isa.Insn.Mflo d -> gset d state.lo
    | Isa.Insn.Addi (t, s, v) | Isa.Insn.Addiu (t, s, v) -> gset t (g s + v)
    | Isa.Insn.Slti (t, s, v) -> gset t (if g s < v then 1 else 0)
    | Isa.Insn.Andi (t, s, v) -> gset t (g s land v)
    | Isa.Insn.Ori (t, s, v) -> gset t (g s lor v)
    | Isa.Insn.Xori (t, s, v) -> gset t (g s lxor v)
    | Isa.Insn.Lui (t, v) -> gset t (v lsl 16)
    | Isa.Insn.Lw (t, off, base) -> gset t (load_word_routed (g base + off))
    | Isa.Insn.Sw (t, off, base) -> store_word_routed (g base + off) (g t)
    | Isa.Insn.Lb (t, off, base) -> gset t (Machine.Memory.load_byte state.mem (g base + off))
    | Isa.Insn.Sb (t, off, base) -> Machine.Memory.store_byte state.mem (g base + off) (g t)
    | Isa.Insn.Beq (s, t, off) -> if g s = g t then next := pc + 1 + off
    | Isa.Insn.Bne (s, t, off) -> if g s <> g t then next := pc + 1 + off
    | Isa.Insn.Blez (s, off) -> if g s <= 0 then next := pc + 1 + off
    | Isa.Insn.Bgtz (s, off) -> if g s > 0 then next := pc + 1 + off
    | Isa.Insn.Bltz (s, off) -> if g s < 0 then next := pc + 1 + off
    | Isa.Insn.Bgez (s, off) -> if g s >= 0 then next := pc + 1 + off
    | Isa.Insn.J target -> next := target
    | Isa.Insn.Jal target ->
        gset Isa.Reg.ra (pc + 1);
        next := target
    | Isa.Insn.Jr s -> next := g s
    | Isa.Insn.Jalr (d, s) ->
        let dest = g s in
        gset d (pc + 1);
        next := dest
    | Isa.Insn.Lwc1 (t, off, base) ->
        state.fregs.(Isa.Reg.f_to_int t) <- Machine.Memory.load_float state.mem (g base + off)
    | Isa.Insn.Swc1 (t, off, base) ->
        Machine.Memory.store_float state.mem (g base + off) (f t)
    | Isa.Insn.Mtc1 (t, fs) ->
        state.fregs.(Isa.Reg.f_to_int fs) <-
          Int32.float_of_bits (Int32.of_int (g t))
    | Isa.Insn.Mfc1 (t, fs) -> gset t (Int32.to_int (Int32.bits_of_float (f fs)))
    | Isa.Insn.Add_s (d, s, t) -> fset d (f s +. f t)
    | Isa.Insn.Sub_s (d, s, t) -> fset d (f s -. f t)
    | Isa.Insn.Mul_s (d, s, t) -> fset d (f s *. f t)
    | Isa.Insn.Div_s (d, s, t) -> fset d (f s /. f t)
    | Isa.Insn.Abs_s (d, s) -> fset d (Float.abs (f s))
    | Isa.Insn.Neg_s (d, s) -> fset d (-.f s)
    | Isa.Insn.Mov_s (d, s) -> fset d (f s)
    | Isa.Insn.Sqrt_s (d, s) -> fset d (sqrt (f s))
    | Isa.Insn.Cvt_s_w (d, s) ->
        (* fs holds raw int bits; produce the float of that integer *)
        fset d (float_of_int (Int32.to_int (Int32.bits_of_float (f s))))
    | Isa.Insn.Cvt_w_s (d, s) ->
        state.fregs.(Isa.Reg.f_to_int d) <-
          Int32.float_of_bits (Int32.of_int (int_of_float (Float.trunc (f s))))
    | Isa.Insn.C_eq_s (s, t) -> state.fcc <- f s = f t
    | Isa.Insn.C_lt_s (s, t) -> state.fcc <- f s < f t
    | Isa.Insn.C_le_s (s, t) -> state.fcc <- f s <= f t
    | Isa.Insn.Bc1t off -> if state.fcc then next := pc + 1 + off
    | Isa.Insn.Bc1f off -> if not state.fcc then next := pc + 1 + off
    | Isa.Insn.Nop -> ()
    | Isa.Insn.Syscall -> (
        match g Isa.Reg.v0 with
        | 1 -> Buffer.add_string state.out (string_of_int (g Isa.Reg.a0))
        | 2 ->
            Buffer.add_string state.out
              (Printf.sprintf "%g" (f (Isa.Reg.f_of_int 12)))
        | 4 -> Buffer.add_string state.out (string_at state.mem (g Isa.Reg.a0))
        | 10 ->
            exit_code := g Isa.Reg.a0;
            running := false
        | 11 -> Buffer.add_char state.out (Char.chr (g Isa.Reg.a0 land 0xff))
        | v -> raise (Machine.Cpu.Trap (Printf.sprintf "unknown syscall %d" v))));
    state.pc <- !next
  done;
  { Machine.Cpu.instructions = !count; exit_code = !exit_code; pc_final = state.pc }
