exception Parse_error of { line : int; message : string }

let fail line message = raise (Parse_error { line; message })

(* --- tokenizing one line ------------------------------------------------ *)

let strip_comment s =
  let cut =
    match (String.index_opt s '#', String.index_opt s ';') with
    | Some a, Some b -> Some (min a b)
    | Some a, None -> Some a
    | None, Some b -> Some b
    | None, None -> None
  in
  match cut with Some i -> String.sub s 0 i | None -> s

let split_operands s =
  s |> String.split_on_char ',' |> List.map String.trim
  |> List.filter (fun x -> x <> "")

(* --- operand parsing ---------------------------------------------------- *)

type operand =
  | Oreg of Reg.t
  | Ofreg of Reg.f
  | Oint of int
  | Omem of int * Reg.t  (* offset(base) *)
  | Oname of string

let parse_operand line s =
  let is_int s = match int_of_string_opt s with Some _ -> true | None -> false in
  if String.length s = 0 then fail line "empty operand"
  else if String.contains s '(' then begin
    match String.index_opt s ')' with
    | None -> fail line ("missing ) in operand " ^ s)
    | Some close ->
        let open_ = String.index s '(' in
        let off_str = String.trim (String.sub s 0 open_) in
        let base_str = String.sub s (open_ + 1) (close - open_ - 1) in
        let off =
          if off_str = "" then 0
          else
            match int_of_string_opt off_str with
            | Some v -> v
            | None -> fail line ("bad offset " ^ off_str)
        in
        Omem (off, Reg.of_name (String.trim base_str))
  end
  else if s.[0] = '$' then
    if String.length s > 1 && s.[1] = 'f' && not (is_int (String.sub s 1 (String.length s - 1))) then
      Ofreg (Reg.f_of_name s)
    else Oreg (Reg.of_name s)
  else if is_int s then Oint (int_of_string s)
  else Oname s

(* --- instruction parsing ------------------------------------------------ *)

let reg line = function Oreg r -> r | _ -> fail line "expected register"
let freg line = function Ofreg r -> r | _ -> fail line "expected FP register"
let int_ line = function Oint v -> v | _ -> fail line "expected integer"
let name line = function
  | Oname n -> n
  | _ -> fail line "expected label name"

let mem line = function
  | Omem (off, base) -> (off, base)
  | _ -> fail line "expected offset(base) operand"

let expand_li rd v =
  if v >= -0x8000 && v <= 0x7fff then [ Sym.Op (Insn.Addiu (rd, Reg.zero, v)) ]
  else if v >= 0 && v <= 0xffff then [ Sym.Op (Insn.Ori (rd, Reg.zero, v)) ]
  else begin
    let v32 = v land 0xffffffff in
    let hi = v32 lsr 16 land 0xffff in
    let lo = v32 land 0xffff in
    if lo = 0 then [ Sym.Op (Insn.Lui (rd, hi)) ]
    else [ Sym.Op (Insn.Lui (rd, hi)); Sym.Op (Insn.Ori (rd, rd, lo)) ]
  end

let parse_instruction line mnemonic ops =
  let op1 () = match ops with [ a ] -> a | _ -> fail line "expected 1 operand" in
  let op2 () =
    match ops with a :: b :: [] -> (a, b) | _ -> fail line "expected 2 operands"
  in
  let op3 () =
    match ops with
    | [ a; b; c ] -> (a, b, c)
    | _ -> fail line "expected 3 operands"
  in
  let r = reg line and f = freg line and i = int_ line and n = name line in
  let alu3 mk =
    let a, b, c = op3 () in
    [ Sym.Op (mk (r a) (r b) (r c)) ]
  in
  let shift mk =
    let a, b, c = op3 () in
    [ Sym.Op (mk (r a) (r b) (i c)) ]
  in
  let immi mk =
    let a, b, c = op3 () in
    [ Sym.Op (mk (r a) (r b) (i c)) ]
  in
  let load mk =
    let a, b = op2 () in
    let off, base = mem line b in
    [ Sym.Op (mk (r a) off base) ]
  in
  let fload mk =
    let a, b = op2 () in
    let off, base = mem line b in
    [ Sym.Op (mk (f a) off base) ]
  in
  let fp3 mk =
    let a, b, c = op3 () in
    [ Sym.Op (mk (f a) (f b) (f c)) ]
  in
  let fp2 mk =
    let a, b = op2 () in
    [ Sym.Op (mk (f a) (f b)) ]
  in
  let branch2 mk =
    let a, b, c = op3 () in
    [ mk (r a) (r b) (n c) ]
  in
  let branch1 mk =
    let a, b = op2 () in
    [ mk (r a) (n b) ]
  in
  match mnemonic with
  | "add" -> alu3 (fun d s t -> Insn.Add (d, s, t))
  | "addu" -> alu3 (fun d s t -> Insn.Addu (d, s, t))
  | "sub" -> alu3 (fun d s t -> Insn.Sub (d, s, t))
  | "subu" -> alu3 (fun d s t -> Insn.Subu (d, s, t))
  | "and" -> alu3 (fun d s t -> Insn.And (d, s, t))
  | "or" -> alu3 (fun d s t -> Insn.Or (d, s, t))
  | "xor" -> alu3 (fun d s t -> Insn.Xor (d, s, t))
  | "nor" -> alu3 (fun d s t -> Insn.Nor (d, s, t))
  | "slt" -> alu3 (fun d s t -> Insn.Slt (d, s, t))
  | "sltu" -> alu3 (fun d s t -> Insn.Sltu (d, s, t))
  | "sllv" -> alu3 (fun d t s -> Insn.Sllv (d, t, s))
  | "srlv" -> alu3 (fun d t s -> Insn.Srlv (d, t, s))
  | "srav" -> alu3 (fun d t s -> Insn.Srav (d, t, s))
  | "sll" -> shift (fun d t sa -> Insn.Sll (d, t, sa))
  | "srl" -> shift (fun d t sa -> Insn.Srl (d, t, sa))
  | "sra" -> shift (fun d t sa -> Insn.Sra (d, t, sa))
  | "mult" ->
      let a, b = op2 () in
      [ Sym.Op (Insn.Mult (r a, r b)) ]
  | "div" ->
      let a, b = op2 () in
      [ Sym.Op (Insn.Div (r a, r b)) ]
  | "mfhi" -> [ Sym.Op (Insn.Mfhi (r (op1 ()))) ]
  | "mflo" -> [ Sym.Op (Insn.Mflo (r (op1 ()))) ]
  | "addi" -> immi (fun t s v -> Insn.Addi (t, s, v))
  | "addiu" -> immi (fun t s v -> Insn.Addiu (t, s, v))
  | "slti" -> immi (fun t s v -> Insn.Slti (t, s, v))
  | "andi" -> immi (fun t s v -> Insn.Andi (t, s, v))
  | "ori" -> immi (fun t s v -> Insn.Ori (t, s, v))
  | "xori" -> immi (fun t s v -> Insn.Xori (t, s, v))
  | "lui" ->
      let a, b = op2 () in
      [ Sym.Op (Insn.Lui (r a, i b)) ]
  | "lw" -> load (fun t off base -> Insn.Lw (t, off, base))
  | "sw" -> load (fun t off base -> Insn.Sw (t, off, base))
  | "lb" -> load (fun t off base -> Insn.Lb (t, off, base))
  | "sb" -> load (fun t off base -> Insn.Sb (t, off, base))
  | "lwc1" -> fload (fun t off base -> Insn.Lwc1 (t, off, base))
  | "swc1" -> fload (fun t off base -> Insn.Swc1 (t, off, base))
  | "mtc1" ->
      let a, b = op2 () in
      [ Sym.Op (Insn.Mtc1 (r a, f b)) ]
  | "mfc1" ->
      let a, b = op2 () in
      [ Sym.Op (Insn.Mfc1 (r a, f b)) ]
  | "add.s" -> fp3 (fun d s t -> Insn.Add_s (d, s, t))
  | "sub.s" -> fp3 (fun d s t -> Insn.Sub_s (d, s, t))
  | "mul.s" -> fp3 (fun d s t -> Insn.Mul_s (d, s, t))
  | "div.s" -> fp3 (fun d s t -> Insn.Div_s (d, s, t))
  | "abs.s" -> fp2 (fun d s -> Insn.Abs_s (d, s))
  | "neg.s" -> fp2 (fun d s -> Insn.Neg_s (d, s))
  | "mov.s" -> fp2 (fun d s -> Insn.Mov_s (d, s))
  | "sqrt.s" -> fp2 (fun d s -> Insn.Sqrt_s (d, s))
  | "cvt.s.w" -> fp2 (fun d s -> Insn.Cvt_s_w (d, s))
  | "cvt.w.s" -> fp2 (fun d s -> Insn.Cvt_w_s (d, s))
  | "c.eq.s" -> fp2 (fun s t -> Insn.C_eq_s (s, t))
  | "c.lt.s" -> fp2 (fun s t -> Insn.C_lt_s (s, t))
  | "c.le.s" -> fp2 (fun s t -> Insn.C_le_s (s, t))
  | "bc1t" -> [ Sym.Bc1t_l (n (op1 ())) ]
  | "bc1f" -> [ Sym.Bc1f_l (n (op1 ())) ]
  | "beq" -> branch2 (fun s t l -> Sym.Beq_l (s, t, l))
  | "bne" -> branch2 (fun s t l -> Sym.Bne_l (s, t, l))
  | "blez" -> branch1 (fun s l -> Sym.Blez_l (s, l))
  | "bgtz" -> branch1 (fun s l -> Sym.Bgtz_l (s, l))
  | "bltz" -> branch1 (fun s l -> Sym.Bltz_l (s, l))
  | "bgez" -> branch1 (fun s l -> Sym.Bgez_l (s, l))
  | "j" -> [ Sym.J_l (n (op1 ())) ]
  | "jal" -> [ Sym.Jal_l (n (op1 ())) ]
  | "jr" -> [ Sym.Op (Insn.Jr (r (op1 ()))) ]
  | "jalr" ->
      let a, b = op2 () in
      [ Sym.Op (Insn.Jalr (r a, r b)) ]
  | "syscall" -> [ Sym.Op Insn.Syscall ]
  | "nop" -> [ Sym.Op Insn.Nop ]
  (* pseudo-instructions *)
  | "li" | "la" ->
      let a, b = op2 () in
      expand_li (r a) (i b)
  | "move" ->
      let a, b = op2 () in
      [ Sym.Op (Insn.Addu (r a, r b, Reg.zero)) ]
  | "neg" ->
      let a, b = op2 () in
      [ Sym.Op (Insn.Subu (r a, Reg.zero, r b)) ]
  | "not" ->
      let a, b = op2 () in
      [ Sym.Op (Insn.Nor (r a, r b, Reg.zero)) ]
  | "b" -> [ Sym.Beq_l (Reg.zero, Reg.zero, n (op1 ())) ]
  | "blt" ->
      let a, b, c = op3 () in
      [ Sym.Op (Insn.Slt (Reg.at, r a, r b)); Sym.Bne_l (Reg.at, Reg.zero, n c) ]
  | "bge" ->
      let a, b, c = op3 () in
      [ Sym.Op (Insn.Slt (Reg.at, r a, r b)); Sym.Beq_l (Reg.at, Reg.zero, n c) ]
  | "bgt" ->
      let a, b, c = op3 () in
      [ Sym.Op (Insn.Slt (Reg.at, r b, r a)); Sym.Bne_l (Reg.at, Reg.zero, n c) ]
  | "ble" ->
      let a, b, c = op3 () in
      [ Sym.Op (Insn.Slt (Reg.at, r b, r a)); Sym.Beq_l (Reg.at, Reg.zero, n c) ]
  | "seq" ->
      let a, b, c = op3 () in
      [
        Sym.Op (Insn.Xor (r a, r b, r c));
        Sym.Op (Insn.Sltu (r a, Reg.zero, r a));
        Sym.Op (Insn.Xori (r a, r a, 1));
      ]
  | "sne" ->
      let a, b, c = op3 () in
      [
        Sym.Op (Insn.Xor (r a, r b, r c));
        Sym.Op (Insn.Sltu (r a, Reg.zero, r a));
      ]
  | _ -> fail line ("unknown mnemonic " ^ mnemonic)

let parse source =
  let items = ref [] in
  (* encoding each resolved instruction here charges a field overflow (an
     immediate or shift amount too wide for its field) to its line,
     instead of surfacing as [Invalid_argument] when the program is
     encoded *)
  let push xs =
    List.iter (function Sym.Op insn -> ignore (Word.encode insn) | _ -> ()) xs;
    items := List.rev_append xs !items
  in
  let lines = String.split_on_char '\n' source in
  List.iteri
    (fun lineno0 raw ->
      let lineno = lineno0 + 1 in
      push [ Sym.Line lineno ];
      let rec process text =
        let text = String.trim (strip_comment text) in
        if text <> "" then
          match String.index_opt text ':' with
          | Some colon
            when (not (String.contains text ' '))
                 || colon < String.index text ' ' ->
              let label = String.trim (String.sub text 0 colon) in
              if label = "" then fail lineno "empty label";
              push [ Sym.Label label ];
              process (String.sub text (colon + 1) (String.length text - colon - 1))
          | Some _ | None -> (
              match String.index_opt text ' ' with
              | None -> push (parse_instruction lineno text [])
              | Some sp ->
                  let mnemonic = String.sub text 0 sp in
                  let rest =
                    String.sub text (sp + 1) (String.length text - sp - 1)
                  in
                  let ops = List.map (parse_operand lineno) (split_operands rest) in
                  push (parse_instruction lineno mnemonic ops))
      in
      try process raw with
      | Invalid_argument msg -> fail lineno msg)
    lines;
  List.rev !items

let assemble source =
  match Program.of_items (parse source) with
  | p -> p
  | exception Sym.Out_of_range { line; message } -> fail line message

let describe_error = function
  | Parse_error { line; message } ->
      Some (Printf.sprintf "line %d: %s" line message)
  | Sym.Undefined_label label -> Some ("undefined label " ^ label)
  | Sym.Duplicate_label label -> Some ("duplicate label " ^ label)
  | _ -> None
