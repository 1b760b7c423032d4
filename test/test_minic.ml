module Lexer = Minic.Lexer
module Parser = Minic.Parser
module Typecheck = Minic.Typecheck
module Compile = Minic.Compile
module Ast = Minic.Ast

let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

(* ---- lexer ---------------------------------------------------------------- *)

let toks src = List.map fst (Lexer.tokenize src)

let test_lex_basic () =
  check_int "token count" 6 (List.length (toks "int x = 1 ;"));
  match toks "x = 3.5;" with
  | [ Lexer.IDENT "x"; Lexer.ASSIGN; Lexer.FLOAT_LIT f; Lexer.SEMI; Lexer.EOF ]
    ->
      Alcotest.(check (float 1e-9)) "float lit" 3.5 f
  | _ -> Alcotest.fail "unexpected tokens"

let test_lex_comments () =
  check_int "line comment" 1 (List.length (toks "// all gone"));
  check_int "block comment" 1 (List.length (toks "/* x = 1; */"));
  match toks "a /* mid */ b" with
  | [ Lexer.IDENT "a"; Lexer.IDENT "b"; Lexer.EOF ] -> ()
  | _ -> Alcotest.fail "comment not skipped"

let test_lex_operators () =
  match toks "<= >= == != && || !" with
  | [ Lexer.LE; Lexer.GE; Lexer.EQ; Lexer.NE; Lexer.ANDAND; Lexer.OROR;
      Lexer.BANG; Lexer.EOF ] ->
      ()
  | _ -> Alcotest.fail "operators"

let test_lex_line_numbers () =
  let withlines = Lexer.tokenize "a\nb\n\nc" in
  let line_of name = List.assoc (Lexer.IDENT name) withlines in
  check_int "a" 1 (line_of "a");
  check_int "b" 2 (line_of "b");
  check_int "c" 4 (line_of "c")

let test_lex_error () =
  try
    ignore (Lexer.tokenize "x @ y");
    Alcotest.fail "expected error"
  with Lexer.Lex_error { line; _ } -> check_int "line" 1 line

let test_lex_bad_literal () =
  Alcotest.check_raises "integer too wide"
    (Lexer.Lex_error
       {
         line = 2;
         message = "integer literal above 4611686018427387903: 99999999999999999999999";
       })
    (fun () -> ignore (Lexer.tokenize "x =\n 99999999999999999999999;"));
  Alcotest.check_raises "exponent without digits"
    (Lexer.Lex_error
       { line = 1; message = "float literal with no digits in its exponent: 1.5e" })
    (fun () -> ignore (Lexer.tokenize "x = 1.5e;"))

(* ---- parser --------------------------------------------------------------- *)

let test_parse_precedence () =
  let e = Parser.parse_expr "1 + 2 * 3" in
  match e.Ast.desc with
  | Ast.Binop (Ast.Add, { Ast.desc = Ast.Int_lit 1; _ },
               { Ast.desc = Ast.Binop (Ast.Mul, _, _); _ }) ->
      ()
  | _ -> Alcotest.fail "precedence wrong"

let test_parse_associativity () =
  let e = Parser.parse_expr "10 - 4 - 3" in
  match e.Ast.desc with
  | Ast.Binop (Ast.Sub, { Ast.desc = Ast.Binop (Ast.Sub, _, _); _ },
               { Ast.desc = Ast.Int_lit 3; _ }) ->
      ()
  | _ -> Alcotest.fail "associativity wrong"

let test_parse_program_shape () =
  let p =
    Parser.parse
      "int n;\nfloat a[4][5];\nint main() { int i; i = 0; return i; }"
  in
  check_int "globals" 2 (List.length p.Ast.globals);
  check_int "funcs" 1 (List.length p.Ast.funcs);
  let arr = List.nth p.Ast.globals 1 in
  Alcotest.(check (list int)) "dims" [ 4; 5 ] arr.Ast.g_dims

let test_parse_error_reports_line () =
  try
    ignore (Parser.parse "int main() {\n  int x\n}");
    Alcotest.fail "expected error"
  with Parser.Parse_error { line; _ } ->
    Alcotest.(check bool) "line in range" true (line >= 2 && line <= 3)

(* ---- typechecker ----------------------------------------------------------- *)

let check_ok src = Typecheck.check (Parser.parse src)

let check_rejected name src =
  match Typecheck.check (Parser.parse src) with
  | () -> Alcotest.failf "%s: expected type error" name
  | exception Typecheck.Type_error _ -> ()

let test_typecheck_accepts () =
  check_ok "int main() { int i; i = 1 + 2 * 3; return i; }";
  check_ok "float g; int main() { g = 1.5 + 2; return 0; }";
  check_ok
    "float a[3]; int main() { int i; i = 0; a[i] = itof(i) * 2.0; return 0; }";
  check_ok
    "int f(int x, float y) { return x + ftoi(y); } int main() { return f(1, 2.0); }";
  check_ok "void p() { print_int(3); } int main() { p(); return 0; }"

let test_typecheck_rejects () =
  check_rejected "undefined var" "int main() { x = 1; return 0; }";
  check_rejected "undefined fn" "int main() { return f(1); }";
  check_rejected "float to int" "int main() { int i; i = 1.5; return 0; }";
  check_rejected "float mod" "int main() { int i; i = ftoi(1.5 % 2.0); return 0; }";
  check_rejected "index count" "int a[3][3]; int main() { return a[0]; }";
  check_rejected "float index" "int a[3]; int main() { return a[1.0]; }";
  check_rejected "arity" "int f(int x) { return x; } int main() { return f(1,2); }";
  check_rejected "void in expr" "void p() { } int main() { return p(); }";
  check_rejected "no main" "int f() { return 0; }";
  check_rejected "main with params" "int main(int x) { return x; }";
  check_rejected "duplicate global" "int x; float x; int main() { return 0; }";
  check_rejected "duplicate local" "int main() { int i; int i; return 0; }";
  check_rejected "missing return value" "int main() { return; }"

(* ---- end-to-end execution --------------------------------------------------- *)

let run_src src =
  let c = Compile.compile src in
  let state = Machine.Cpu.create_state () in
  let r = Machine.Cpu.run c.Compile.program state in
  (r, Machine.Cpu.output state)

let run_output src = snd (run_src src)

let test_factorial () =
  let src =
    {|
      int fact(int n) {
        if (n <= 1) { return 1; }
        return n * fact(n - 1);
      }
      int main() { print_int(fact(10)); return 0; }
    |}
  in
  check_string "10!" "3628800" (run_output src)

let test_gcd_loop () =
  let src =
    {|
      int main() {
        int a; int b; int t;
        a = 462; b = 1071;
        while (b != 0) { t = b; b = a % b; a = t; }
        print_int(a);
        return 0;
      }
    |}
  in
  check_string "gcd" "21" (run_output src)

let test_arrays_2d () =
  let src =
    {|
      int m[3][4];
      int main() {
        int i; int j; int s;
        for (i = 0; i < 3; i = i + 1) {
          for (j = 0; j < 4; j = j + 1) {
            m[i][j] = i * 10 + j;
          }
        }
        s = 0;
        for (i = 0; i < 3; i = i + 1) {
          for (j = 0; j < 4; j = j + 1) {
            s = s + m[i][j];
          }
        }
        print_int(s);
        return 0;
      }
    |}
  in
  check_string "sum" "138" (run_output src)

let test_float_math () =
  let src =
    {|
      int main() {
        float x;
        x = 2.0;
        x = sqrtf(x * 8.0);
        x = fabs(0.0 - x);
        print_float(x / 2.0);
        return 0;
      }
    |}
  in
  check_string "float chain" "2" (run_output src)

let test_mixed_promotion () =
  check_string "int promoted" "7.5"
    (run_output "int main() { print_float(2.5 * 3); return 0; }")

let test_short_circuit () =
  let src =
    {|
      int main() {
        int zero; int ok;
        zero = 0;
        ok = 1;
        if (zero != 0 && 10 / zero > 0) { ok = 0; }
        if (zero == 0 || 10 / zero > 0) { ok = ok + 10; }
        print_int(ok);
        return 0;
      }
    |}
  in
  check_string "short circuit" "11" (run_output src)

let test_else_if_chain () =
  let src =
    {|
      int classify(int x) {
        if (x < 0) { return 0 - 1; }
        else if (x == 0) { return 0; }
        else { return 1; }
      }
      int main() {
        print_int(classify(0 - 5));
        print_int(classify(0));
        print_int(classify(5));
        return 0;
      }
    |}
  in
  check_string "chain" "-101" (run_output src)

let test_call_spill () =
  let src =
    {|
      int f(int x) { return x + 1; }
      int main() {
        int a;
        a = 100 + f(10) * 2 + f(f(1));
        print_int(a);
        return 0;
      }
    |}
  in
  check_string "spill" "125" (run_output src)

let test_float_args () =
  let src =
    {|
      float mix(float a, float b, int w) {
        if (w == 1) { return a; }
        return b;
      }
      int main() {
        print_float(mix(1.5, 2.5, 1));
        print_char(32);
        print_float(mix(1.5, 2.5, 0));
        return 0;
      }
    |}
  in
  check_string "float args" "1.5 2.5" (run_output src)

let test_exit_code_from_main () =
  let r, _ = run_src "int main() { return 42; }" in
  check_int "exit" 42 r.Machine.Cpu.exit_code

let test_for_loop_empty_sections () =
  let src =
    {|
      int main() {
        int i;
        i = 0;
        for (; i < 5;) { i = i + 2; }
        print_int(i);
        return 0;
      }
    |}
  in
  check_string "sections" "6" (run_output src)

let test_ftoi_truncates () =
  check_string "trunc positive" "3"
    (run_output "int main() { print_int(ftoi(3.9)); return 0; }");
  check_string "trunc negative" "-3"
    (run_output "int main() { print_int(ftoi(0.0 - 3.9)); return 0; }")

let test_globals_shared_across_functions () =
  let src =
    {|
      int counter;
      void bump() { counter = counter + 1; }
      int main() {
        counter = 0;
        bump(); bump(); bump();
        print_int(counter);
        return 0;
      }
    |}
  in
  check_string "global state" "3" (run_output src)

let test_left_deep_ok () =
  let nest = "((((((((1+2)+3)+4)+5)+6)+7)+8)+9)" in
  let src = Printf.sprintf "int main() { print_int(%s); return 0; }" nest in
  check_string "left deep" "45" (run_output src)

let test_right_deep_expression_errors () =
  (* at -O0 a right-leaning nest really does exhaust the register stack; at
     -O1 constant folding collapses it first (checked too) *)
  let rec build n = if n = 0 then "1" else Printf.sprintf "(1 + %s)" (build (n - 1)) in
  let src = Printf.sprintf "int main() { return %s; }" (build 12) in
  (match Compile.compile ~opt:Compile.O0 src with
  | _ -> Alcotest.fail "expected codegen depth error at O0"
  | exception Minic.Codegen.Codegen_error _ -> ());
  let r, _ = run_src src in
  check_int "folded at O1" 13 r.Machine.Cpu.exit_code


(* break / continue, added after the first release *)
let test_break_continue () =
  let src =
    {|
      int main() {
        int i; int sum;
        sum = 0;
        for (i = 0; i < 100; i = i + 1) {
          if (i == 10) { break; }
          if (i % 2 == 1) { continue; }
          sum = sum + i;
        }
        print_int(sum);   // 0+2+4+6+8 = 20
        print_char(32);
        i = 0;
        while (1 == 1) {
          i = i + 1;
          if (i >= 7) { break; }
        }
        print_int(i);
        return 0;
      }
    |}
  in
  check_string "break/continue" "20 7" (run_output src)

let test_continue_runs_for_step () =
  (* continue in a for loop must still execute the step, or it would spin *)
  let src =
    {|
      int main() {
        int i; int hits;
        hits = 0;
        for (i = 0; i < 5; i = i + 1) {
          continue;
        }
        print_int(i);
        return 0;
      }
    |}
  in
  check_string "step still runs" "5" (run_output src)

let test_break_outside_loop_rejected () =
  check_rejected "break outside" "int main() { break; return 0; }";
  check_rejected "continue outside" "int main() { continue; return 0; }"

(* ---- fuzz ----------------------------------------------------------------- *)

(* Mutated benchmark sources: bytes and tokens inserted, deleted and
   replaced.  Compiling one must succeed or raise one of the four typed
   errors [Compile.compile] documents, never a stray exception. *)
let corpus =
  Array.of_list
    (List.map
       (fun w -> w.Workloads.source)
       (Workloads.scaled @ Workloads.extended))

let fuzz_tokens =
  [| "("; ")"; "{"; "}"; "["; "]"; ";"; ","; "="; "=="; "+"; "-"; "*"; "/";
     "%"; "<"; "<="; "&&"; "||"; "!"; "int"; "float"; "void"; "if"; "else";
     "while"; "for"; "return"; "break"; "continue"; "main"; "x"; "0"; "1";
     "3.5"; "1.5e"; "2147483648"; "99999999999999999999999"; "/*"; "*/";
     "//"; "\n"; "print_int"; "print_char" |]

let mutated_minic =
  let open QCheck.Gen in
  let splice s at len inserted =
    let n = String.length s in
    let at = at mod (n + 1) in
    let len = min len (n - at) in
    String.sub s 0 at ^ inserted ^ String.sub s (at + len) (n - at - len)
  in
  let edit =
    let* at = nat in
    oneof
      [
        map (fun c s -> splice s at 0 (String.make 1 c)) char;
        map (fun t s -> splice s at 0 t) (oneofa fuzz_tokens);
        map (fun len s -> splice s at len "") (int_range 1 8);
        map (fun c s -> splice s at 1 (String.make 1 c)) char;
        map2
          (fun len t s -> splice s at len t)
          (int_range 1 8) (oneofa fuzz_tokens);
      ]
  in
  let* source = oneofa corpus in
  let+ edits = list_size (int_range 1 4) edit in
  List.fold_left (fun s edit -> edit s) source edits

let prop_compile_fuzz =
  QCheck.Test.make ~name:"mutated sources: typed errors only" ~count:1000
    (QCheck.make mutated_minic) (fun src ->
      match Compile.compile src with
      | _ -> true
      | exception
          ( Lexer.Lex_error _ | Parser.Parse_error _ | Typecheck.Type_error _
          | Minic.Codegen.Codegen_error _ ) ->
          true
      | exception e ->
          QCheck.Test.fail_reportf "raised %s" (Printexc.to_string e))


let () =
  Alcotest.run "minic"
    [
      ( "lexer",
        [
          Alcotest.test_case "basic" `Quick test_lex_basic;
          Alcotest.test_case "comments" `Quick test_lex_comments;
          Alcotest.test_case "operators" `Quick test_lex_operators;
          Alcotest.test_case "line numbers" `Quick test_lex_line_numbers;
          Alcotest.test_case "error" `Quick test_lex_error;
          Alcotest.test_case "bad literal" `Quick test_lex_bad_literal;
        ] );
      ( "parser",
        [
          Alcotest.test_case "precedence" `Quick test_parse_precedence;
          Alcotest.test_case "associativity" `Quick test_parse_associativity;
          Alcotest.test_case "program shape" `Quick test_parse_program_shape;
          Alcotest.test_case "error line" `Quick test_parse_error_reports_line;
          QCheck_alcotest.to_alcotest prop_compile_fuzz;
        ] );
      ( "typecheck",
        [
          Alcotest.test_case "accepts" `Quick test_typecheck_accepts;
          Alcotest.test_case "rejects" `Quick test_typecheck_rejects;
        ] );
      ( "execution",
        [
          Alcotest.test_case "factorial" `Quick test_factorial;
          Alcotest.test_case "gcd" `Quick test_gcd_loop;
          Alcotest.test_case "2d arrays" `Quick test_arrays_2d;
          Alcotest.test_case "float math" `Quick test_float_math;
          Alcotest.test_case "promotion" `Quick test_mixed_promotion;
          Alcotest.test_case "short circuit" `Quick test_short_circuit;
          Alcotest.test_case "else-if" `Quick test_else_if_chain;
          Alcotest.test_case "call spill" `Quick test_call_spill;
          Alcotest.test_case "float args" `Quick test_float_args;
          Alcotest.test_case "exit code" `Quick test_exit_code_from_main;
          Alcotest.test_case "for sections" `Quick test_for_loop_empty_sections;
          Alcotest.test_case "ftoi truncates" `Quick test_ftoi_truncates;
          Alcotest.test_case "globals" `Quick test_globals_shared_across_functions;
          Alcotest.test_case "left-deep ok" `Quick test_left_deep_ok;
          Alcotest.test_case "right-deep errors" `Quick
            test_right_deep_expression_errors;
          Alcotest.test_case "break/continue" `Quick test_break_continue;
          Alcotest.test_case "continue hits step" `Quick
            test_continue_runs_for_step;
          Alcotest.test_case "break outside rejected" `Quick
            test_break_outside_loop_rejected;
        ] );
    ]
