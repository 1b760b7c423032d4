module Fold = Minic.Fold
module Parser = Minic.Parser
module Ast = Minic.Ast
module Compile = Minic.Compile

let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let fold_expr src = (Fold.expr (Parser.parse_expr src)).Ast.desc

let test_int_arith () =
  (match fold_expr "256 - 1" with
  | Ast.Int_lit 255 -> ()
  | _ -> Alcotest.fail "256 - 1");
  (match fold_expr "2 * 3 + 4" with
  | Ast.Int_lit 10 -> ()
  | _ -> Alcotest.fail "2*3+4");
  (match fold_expr "7 % 3" with
  | Ast.Int_lit 1 -> ()
  | _ -> Alcotest.fail "7%3");
  match fold_expr "-5 + 1" with
  | Ast.Int_lit (-4) -> ()
  | _ -> Alcotest.fail "-5 + 1"

let test_unary () =
  (match fold_expr "-(4)" with
  | Ast.Int_lit (-4) -> ()
  | _ -> Alcotest.fail "neg");
  match fold_expr "!0" with
  | Ast.Int_lit 1 -> ()
  | _ -> Alcotest.fail "lnot"

let test_comparisons () =
  (match fold_expr "3 < 4" with
  | Ast.Int_lit 1 -> ()
  | _ -> Alcotest.fail "3<4");
  match fold_expr "3 == 4" with
  | Ast.Int_lit 0 -> ()
  | _ -> Alcotest.fail "3==4"

let test_float_single_rounding () =
  (* 0.1 +. 0.2 in doubles is not the single-precision result; folding must
     match the FP unit bit for bit *)
  match fold_expr "0.1 + 0.2" with
  | Ast.Float_lit v ->
      let expected =
        let s x = Int32.float_of_bits (Int32.bits_of_float x) in
        s (s 0.1 +. s 0.2)
      in
      Alcotest.(check (float 0.0)) "single rounded" expected v
  | _ -> Alcotest.fail "0.1+0.2"

let test_division_by_zero_left_alone () =
  (match fold_expr "1 / 0" with
  | Ast.Binop (Ast.Dvd, _, _) -> ()
  | _ -> Alcotest.fail "1/0 must not fold");
  match fold_expr "1 % 0" with
  | Ast.Binop (Ast.Mod, _, _) -> ()
  | _ -> Alcotest.fail "1%0 must not fold"

let test_short_circuit_literals () =
  (match fold_expr "0 && x" with
  | Ast.Int_lit 0 -> ()
  | _ -> Alcotest.fail "0 && x");
  (match fold_expr "3 || x" with
  | Ast.Int_lit 1 -> ()
  | _ -> Alcotest.fail "3 || x");
  (* a non-literal left side must survive *)
  match fold_expr "x && 0" with
  | Ast.Binop (Ast.Land, _, _) -> ()
  | _ -> Alcotest.fail "x && 0 kept"

let test_mixed_promote () =
  match fold_expr "1 + 0.5" with
  | Ast.Float_lit v -> Alcotest.(check (float 1e-7)) "promoted" 1.5 v
  | _ -> Alcotest.fail "1 + 0.5"

let test_casts () =
  (match fold_expr "itof(3)" with
  | Ast.Float_lit 3.0 -> ()
  | _ -> Alcotest.fail "itof");
  match fold_expr "ftoi(3.9)" with
  | Ast.Int_lit 3 -> ()
  | _ -> Alcotest.fail "ftoi truncates"

let test_nested_in_lvalue_indices () =
  let p = Parser.parse "int a[10]; int main() { a[2 + 3] = 1; return 0; }" in
  let folded = Fold.program p in
  match folded.Ast.funcs with
  | [ { Ast.f_body = { Ast.stmts = [ Ast.Assign (lv, _); _ ]; _ }; _ } ] -> (
      match lv.Ast.indices with
      | [ { Ast.desc = Ast.Int_lit 5; _ } ] -> ()
      | _ -> Alcotest.fail "index not folded")
  | _ -> Alcotest.fail "unexpected shape"

(* O0 and O1 must agree on every observable for tricky programs *)
let equivalence_sources =
  [
    ( "wraparound",
      "int main() { int x; x = 2147483647; print_int(x + 1); return 0; }" );
    ( "negative division",
      "int main() { print_int((0 - 7) / 2); print_int((0 - 7) % 2); return 0; }"
    );
    ( "float chain",
      {|
        float acc;
        int main() {
          int i;
          acc = 0.0;
          for (i = 0; i < 10; i = i + 1) { acc = acc + 0.1; }
          print_float(acc);
          return 0;
        }
      |} );
    ( "recursion with promoted vars",
      {|
        int fib(int n) {
          int a; int b;
          if (n < 2) { return n; }
          a = fib(n - 1);
          b = fib(n - 2);
          return a + b;
        }
        int main() { print_int(fib(15)); return 0; }
      |} );
    ( "shadowless sibling blocks",
      {|
        int main() {
          int t;
          t = 0;
          if (1 == 1) { int v; v = 5; t = t + v; }
          if (2 == 2) { int v; v = 7; t = t + v; }
          print_int(t);
          return 0;
        }
      |} );
  ]

let run_with opt src =
  let c = Compile.compile ~opt src in
  let state = Machine.Cpu.create_state () in
  let r = Machine.Cpu.run c.Compile.program state in
  (r.Machine.Cpu.exit_code, Machine.Cpu.output state)

let test_opt_levels_equivalent () =
  List.iter
    (fun (name, src) ->
      let e0, o0 = run_with Compile.O0 src in
      let e1, o1 = run_with Compile.O1 src in
      check_int (name ^ " exit") e0 e1;
      check_string (name ^ " output") o0 o1)
    equivalence_sources

let test_o1_not_larger () =
  (* O1 must never grow the static code of the kernels *)
  List.iter
    (fun w ->
      let c0 = Compile.compile ~opt:Compile.O0 w.Workloads.source in
      let c1 = Compile.compile ~opt:Compile.O1 w.Workloads.source in
      if
        Isa.Program.length c1.Compile.program
        > Isa.Program.length c0.Compile.program
      then
        Alcotest.failf "%s grew under O1 (%d -> %d)" w.Workloads.name
          (Isa.Program.length c0.Compile.program)
          (Isa.Program.length c1.Compile.program))
    Workloads.scaled

let test_o1_fewer_dynamic () =
  let w = Workloads.by_name Workloads.scaled "sor" in
  let run opt =
    let c = Compile.compile ~opt w.Workloads.source in
    let state = Machine.Cpu.create_state () in
    (Machine.Cpu.run c.Compile.program state).Machine.Cpu.instructions
  in
  Alcotest.(check bool)
    "O1 executes fewer instructions" true
    (run Compile.O1 < run Compile.O0)

let prop_fold_preserves_int_eval =
  (* random int expression trees: folding must preserve the 32-bit value *)
  let rec build depth st =
    if depth = 0 then string_of_int (QCheck.Gen.int_range (-50) 50 st)
    else
      let a = build (depth - 1) st and b = build (depth - 1) st in
      let op = QCheck.Gen.oneofl [ "+"; "-"; "*" ] st in
      Printf.sprintf "(%s %s %s)" a op b
  in
  let gen = QCheck.Gen.(int_range 1 4 >>= fun d -> map (fun s -> s) (build d)) in
  QCheck.Test.make ~name:"fold preserves evaluation" ~count:100
    (QCheck.make gen) (fun src_expr ->
      let src = Printf.sprintf "int main() { print_int(%s); return 0; }" src_expr in
      let _, o0 = run_with Compile.O0 src in
      let _, o1 = run_with Compile.O1 src in
      o0 = o1)


(* ---- differential fuzzing: random programs, O0 vs O1 ------------------------ *)

let prop_differential_o0_o1 =
  QCheck.Test.make ~name:"random programs: O0 and O1 agree" ~count:60
    (QCheck.make Minic_gen.gen_program) (fun src ->
      let _, o0 = run_with Compile.O0 src in
      let _, o1 = run_with Compile.O1 src in
      o0 = o1)

let () =
  Alcotest.run "fold"
    [
      ( "folding",
        [
          Alcotest.test_case "int arithmetic" `Quick test_int_arith;
          Alcotest.test_case "unary" `Quick test_unary;
          Alcotest.test_case "comparisons" `Quick test_comparisons;
          Alcotest.test_case "single rounding" `Quick test_float_single_rounding;
          Alcotest.test_case "div by zero kept" `Quick
            test_division_by_zero_left_alone;
          Alcotest.test_case "short circuit" `Quick test_short_circuit_literals;
          Alcotest.test_case "mixed promote" `Quick test_mixed_promote;
          Alcotest.test_case "casts" `Quick test_casts;
          Alcotest.test_case "indices" `Quick test_nested_in_lvalue_indices;
        ] );
      ( "optimisation levels",
        [
          Alcotest.test_case "O0 = O1 observably" `Quick
            test_opt_levels_equivalent;
          Alcotest.test_case "O1 not larger" `Quick test_o1_not_larger;
          Alcotest.test_case "O1 fewer dynamic" `Quick test_o1_fewer_dynamic;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_fold_preserves_int_eval; prop_differential_o0_o1 ] );
    ]
