(* [regs] has one slot more than the 32 registers: compiled writes to
   [$zero] land in slot 32, so [regs.(0)] stays 0 with no test per write. *)
type state = {
  regs : int array;
  fregs : float array;
  mutable hi : int;
  mutable lo : int;
  mutable fcc : bool;  (* FP condition flag *)
  mem : Memory.t;
  out : Buffer.t;
}

exception Trap of string

(* bit 31 moves to the top bit of OCaml's 63-bit int and back *)
let sign32 v = (v lsl 31) asr 31

(* Round a double to the nearest single-precision value, as the FP unit
   would produce. *)
let single v = Int32.float_of_bits (Int32.bits_of_float v)

let create_state ?(mem_bytes = 4 * 1024 * 1024) () =
  let s =
    {
      regs = Array.make 33 0;
      fregs = Array.make 32 0.0;
      hi = 0;
      lo = 0;
      fcc = false;
      mem = Memory.create ~bytes:mem_bytes;
      out = Buffer.create 256;
    }
  in
  s.regs.(Isa.Reg.to_int Isa.Reg.sp) <- mem_bytes - 16;
  s

let memory s = s.mem
let reg s r = s.regs.(Isa.Reg.to_int r)

let set_reg s r v =
  let i = Isa.Reg.to_int r in
  if i <> 0 then s.regs.(i) <- sign32 v

let freg s r = s.fregs.(Isa.Reg.f_to_int r)
let output s = Buffer.contents s.out

type result = { instructions : int; exit_code : int; pc_final : int }

type mmio = {
  base : int;
  size : int;
  mmio_store : offset:int -> value:int -> unit;
  mmio_load : offset:int -> int;
}

let string_at mem addr =
  let b = Buffer.create 16 in
  let rec go a =
    let c = Memory.load_byte mem a land 0xff in
    if c <> 0 then begin
      Buffer.add_char b (Char.chr c);
      go (a + 1)
    end
  in
  go addr;
  Buffer.contents b

(* The next pc of the exit syscall.  No other instruction returns it:
   registers hold sign-extended 32-bit values and jump targets are
   26-bit. *)
let halt = max_int

type exit = { mutable code : int; mutable pc_final : int }

let[@inline] get r i = Array.unsafe_get r i
let[@inline] set r i v = Array.unsafe_set r i (sign32 v)
let[@inline] fset fr i v = Array.unsafe_set fr i (single v)
let src = Isa.Reg.to_int
let dst d = match Isa.Reg.to_int d with 0 -> 32 | i -> i
let fi = Isa.Reg.f_to_int

(* [routes s mmio] is the word load and store that send the [mmio]
   window to its handlers, or [None] when there is no window. *)
let routes s = function
  | None -> None
  | Some m ->
      let inside a = a >= m.base && a < m.base + m.size in
      Some
        ( (fun a ->
            if inside a then sign32 (m.mmio_load ~offset:(a - m.base))
            else Memory.load_word s.mem a),
          fun a v ->
            if inside a then
              m.mmio_store ~offset:(a - m.base) ~value:(v land 0xffffffff)
            else Memory.store_word s.mem a v )

(* [compile s ~routed ~exit pc insn] lowers [insn], fetched at [pc], into a
   closure that executes it on [s] and returns the next pc: [halt] after
   the exit syscall, which first writes [exit].  Register indices,
   immediates and targets are resolved here, once. *)
let compile s ~routed ~exit pc (insn : Isa.Insn.t) : unit -> int =
  let r = s.regs and fr = s.fregs and mem = s.mem in
  let next = pc + 1 in
  match insn with
  | Add (d, a, b) | Addu (d, a, b) ->
      let d = dst d and a = src a and b = src b in
      fun () -> set r d (get r a + get r b); next
  | Sub (d, a, b) | Subu (d, a, b) ->
      let d = dst d and a = src a and b = src b in
      fun () -> set r d (get r a - get r b); next
  | And (d, a, b) ->
      let d = dst d and a = src a and b = src b in
      fun () -> set r d (get r a land get r b); next
  | Or (d, a, b) ->
      let d = dst d and a = src a and b = src b in
      fun () -> set r d (get r a lor get r b); next
  | Xor (d, a, b) ->
      let d = dst d and a = src a and b = src b in
      fun () -> set r d (get r a lxor get r b); next
  | Nor (d, a, b) ->
      let d = dst d and a = src a and b = src b in
      fun () -> set r d (lnot (get r a lor get r b)); next
  | Slt (d, a, b) ->
      let d = dst d and a = src a and b = src b in
      fun () -> set r d (if get r a < get r b then 1 else 0); next
  | Sltu (d, a, b) ->
      let d = dst d and a = src a and b = src b in
      fun () ->
        set r d
          (if get r a land 0xffffffff < get r b land 0xffffffff then 1 else 0);
        next
  | Sll (d, t, sa) ->
      let d = dst d and t = src t in
      fun () -> set r d (get r t lsl sa); next
  | Srl (d, t, sa) ->
      let d = dst d and t = src t in
      fun () -> set r d ((get r t land 0xffffffff) lsr sa); next
  | Sra (d, t, sa) ->
      let d = dst d and t = src t in
      fun () -> set r d (get r t asr sa); next
  | Sllv (d, t, a) ->
      let d = dst d and t = src t and a = src a in
      fun () -> set r d (get r t lsl (get r a land 31)); next
  | Srlv (d, t, a) ->
      let d = dst d and t = src t and a = src a in
      fun () -> set r d ((get r t land 0xffffffff) lsr (get r a land 31)); next
  | Srav (d, t, a) ->
      let d = dst d and t = src t and a = src a in
      fun () -> set r d (get r t asr (get r a land 31)); next
  | Mult (a, b) ->
      let a = src a and b = src b in
      fun () ->
        (* the full product needs 64 bits: INT_MIN * INT_MIN is 2^62 *)
        let p = Int64.mul (Int64.of_int (get r a)) (Int64.of_int (get r b)) in
        s.lo <- sign32 (Int64.to_int p);
        s.hi <- Int64.to_int (Int64.shift_right p 32);
        next
  | Div (a, b) ->
      let a = src a and b = src b in
      fun () ->
        let dv = get r b in
        if dv = 0 then raise (Trap "integer division by zero");
        s.lo <- sign32 (get r a / dv);
        s.hi <- sign32 (get r a mod dv);
        next
  | Mfhi d ->
      let d = dst d in
      fun () -> set r d s.hi; next
  | Mflo d ->
      let d = dst d in
      fun () -> set r d s.lo; next
  | Addi (t, a, v) | Addiu (t, a, v) ->
      let t = dst t and a = src a in
      fun () -> set r t (get r a + v); next
  | Slti (t, a, v) ->
      let t = dst t and a = src a in
      fun () -> set r t (if get r a < v then 1 else 0); next
  | Andi (t, a, v) ->
      let t = dst t and a = src a in
      fun () -> set r t (get r a land v); next
  | Ori (t, a, v) ->
      let t = dst t and a = src a in
      fun () -> set r t (get r a lor v); next
  | Xori (t, a, v) ->
      let t = dst t and a = src a in
      fun () -> set r t (get r a lxor v); next
  | Lui (t, v) ->
      let t = dst t and v = sign32 (v lsl 16) in
      fun () -> Array.unsafe_set r t v; next
  | Lw (t, off, base) -> (
      let t = dst t and base = src base in
      match routed with
      | None -> fun () -> set r t (Memory.load_word mem (get r base + off)); next
      | Some (load, _) -> fun () -> set r t (load (get r base + off)); next)
  | Sw (t, off, base) -> (
      let t = src t and base = src base in
      match routed with
      | None -> fun () -> Memory.store_word mem (get r base + off) (get r t); next
      | Some (_, store) -> fun () -> store (get r base + off) (get r t); next)
  | Lb (t, off, base) ->
      let t = dst t and base = src base in
      fun () -> set r t (Memory.load_byte mem (get r base + off)); next
  | Sb (t, off, base) ->
      let t = src t and base = src base in
      fun () -> Memory.store_byte mem (get r base + off) (get r t); next
  | Beq (a, b, off) ->
      let a = src a and b = src b and target = next + off in
      fun () -> if get r a = get r b then target else next
  | Bne (a, b, off) ->
      let a = src a and b = src b and target = next + off in
      fun () -> if get r a <> get r b then target else next
  | Blez (a, off) ->
      let a = src a and target = next + off in
      fun () -> if get r a <= 0 then target else next
  | Bgtz (a, off) ->
      let a = src a and target = next + off in
      fun () -> if get r a > 0 then target else next
  | Bltz (a, off) ->
      let a = src a and target = next + off in
      fun () -> if get r a < 0 then target else next
  | Bgez (a, off) ->
      let a = src a and target = next + off in
      fun () -> if get r a >= 0 then target else next
  | J target -> fun () -> target
  | Jal target ->
      let ra = src Isa.Reg.ra in
      fun () -> Array.unsafe_set r ra next; target
  | Jr a ->
      let a = src a in
      fun () -> get r a
  | Jalr (d, a) ->
      let d = dst d and a = src a in
      fun () ->
        let dest = get r a in
        Array.unsafe_set r d next;
        dest
  | Lwc1 (t, off, base) ->
      let t = fi t and base = src base in
      fun () ->
        Array.unsafe_set fr t (Memory.load_float mem (get r base + off));
        next
  | Swc1 (t, off, base) ->
      let t = fi t and base = src base in
      fun () -> Memory.store_float mem (get r base + off) (get fr t); next
  | Mtc1 (t, fs) ->
      let t = src t and fs = fi fs in
      fun () ->
        Array.unsafe_set fr fs (Int32.float_of_bits (Int32.of_int (get r t)));
        next
  | Mfc1 (t, fs) ->
      let t = dst t and fs = fi fs in
      fun () -> set r t (Int32.to_int (Int32.bits_of_float (get fr fs))); next
  | Add_s (d, a, b) ->
      let d = fi d and a = fi a and b = fi b in
      fun () -> fset fr d (get fr a +. get fr b); next
  | Sub_s (d, a, b) ->
      let d = fi d and a = fi a and b = fi b in
      fun () -> fset fr d (get fr a -. get fr b); next
  | Mul_s (d, a, b) ->
      let d = fi d and a = fi a and b = fi b in
      fun () -> fset fr d (get fr a *. get fr b); next
  | Div_s (d, a, b) ->
      let d = fi d and a = fi a and b = fi b in
      fun () -> fset fr d (get fr a /. get fr b); next
  | Abs_s (d, a) ->
      let d = fi d and a = fi a in
      fun () -> fset fr d (Float.abs (get fr a)); next
  | Neg_s (d, a) ->
      let d = fi d and a = fi a in
      fun () -> fset fr d (-.get fr a); next
  | Mov_s (d, a) ->
      let d = fi d and a = fi a in
      fun () -> fset fr d (get fr a); next
  | Sqrt_s (d, a) ->
      let d = fi d and a = fi a in
      fun () -> fset fr d (sqrt (get fr a)); next
  | Cvt_s_w (d, a) ->
      (* fs holds raw int bits; produce the float of that integer *)
      let d = fi d and a = fi a in
      fun () ->
        fset fr d (float_of_int (Int32.to_int (Int32.bits_of_float (get fr a))));
        next
  | Cvt_w_s (d, a) ->
      let d = fi d and a = fi a in
      fun () ->
        Array.unsafe_set fr d
          (Int32.float_of_bits
             (Int32.of_int (int_of_float (Float.trunc (get fr a)))));
        next
  | C_eq_s (a, b) ->
      let a = fi a and b = fi b in
      fun () -> s.fcc <- get fr a = get fr b; next
  | C_lt_s (a, b) ->
      let a = fi a and b = fi b in
      fun () -> s.fcc <- get fr a < get fr b; next
  | C_le_s (a, b) ->
      let a = fi a and b = fi b in
      fun () -> s.fcc <- get fr a <= get fr b; next
  | Bc1t off ->
      let target = next + off in
      fun () -> if s.fcc then target else next
  | Bc1f off ->
      let target = next + off in
      fun () -> if s.fcc then next else target
  | Nop -> fun () -> next
  | Syscall ->
      let v0 = src Isa.Reg.v0 and a0 = src Isa.Reg.a0 in
      fun () -> (
        match get r v0 with
        | 1 ->
            Buffer.add_string s.out (string_of_int (get r a0));
            next
        | 2 ->
            Buffer.add_string s.out (Printf.sprintf "%g" (get fr 12));
            next
        | 4 ->
            Buffer.add_string s.out (string_at mem (get r a0));
            next
        | 10 ->
            exit.code <- get r a0;
            exit.pc_final <- next;
            halt
        | 11 ->
            Buffer.add_char s.out (Char.chr (get r a0 land 0xff));
            next
        | v -> raise (Trap (Printf.sprintf "unknown syscall %d" v)))

(* [j 0] is the one word whose closure is the same at every pc, so the
   [fetch_word] cache starts out holding it. *)
let j0_word = Isa.Word.encode (Isa.Insn.J 0)
let j0 () = 0

let default_max_instructions = 1_000_000_000

let run ?(max_instructions = default_max_instructions) ?max_cycles ?on_fetch
    ?fetch_word ?mmio program state =
  let insns = Isa.Program.insns program in
  let n = Array.length insns in
  let exit = { code = 0; pc_final = 0 } in
  let compile = compile state ~routed:(routes state mmio) ~exit in
  (* With a [fetch_word] override the executed stream is whatever the
     (possibly corrupted) fetch path delivers.  [code.(pc)] is compiled
     from the word [words.(pc)] and recompiled whenever the delivered word
     differs, so a steady image compiles each pc once while transient
     glitches and mid-run degradation still take effect. *)
  let code, words =
    match fetch_word with
    | None -> (Array.mapi compile insns, [||])
    | Some _ -> (Array.make n j0, Array.make n j0_word)
  in
  let fetched fw pc =
    let w = fw ~pc in
    if w = Array.unsafe_get words pc then Array.unsafe_get code pc
    else
      match Isa.Word.decode w with
      | i ->
          let c = compile pc i in
          words.(pc) <- w;
          code.(pc) <- c;
          c
      | exception (Isa.Word.Unknown_instruction _ | Invalid_argument _) ->
          raise (Fault.Fault (Fault.Illegal_instruction { pc; word = w }))
  in
  let limit =
    match max_cycles with
    | Some cap -> min max_instructions cap
    | None -> max_instructions
  in
  let exceeded count =
    match max_cycles with
    | Some cap when count < max_instructions ->
        raise (Fault.Fault (Fault.Cycle_limit { limit = cap }))
    | _ -> raise (Trap "instruction budget exceeded")
  in
  let pc = ref 0 and count = ref 0 in
  while !pc <> halt do
    let p = !pc in
    if p < 0 || p >= n then
      raise (Fault.Fault (Fault.Pc_out_of_range { pc = p; limit = n }));
    if !count >= limit then exceeded !count;
    (match on_fetch with Some hook -> hook ~pc:p | None -> ());
    incr count;
    let insn =
      match fetch_word with
      | None -> Array.unsafe_get code p
      | Some fw -> fetched fw p
    in
    pc := insn ()
  done;
  (* one bump for the whole run: the simulator loop stays branch-lean *)
  Telemetry.Metrics.add Telemetry.Registry.cpu_instructions !count;
  { instructions = !count; exit_code = exit.code; pc_final = exit.pc_final }
