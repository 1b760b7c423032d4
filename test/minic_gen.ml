(* A tiny generator of well-typed Minic programs: integer globals and
   locals, bounded for loops, arithmetic with guarded division, nested ifs.
   Every generated program terminates and prints its state, so any
   divergence between two ways of running it is observable.  Shared by the
   O0/O1 differential (test_fold.ml) and the replay-vs-live differential
   (test_replay.ml). *)
let gen_program =
  let open QCheck.Gen in
  let var_names = [ "a"; "b"; "c"; "d" ] in
  let rec gen_expr depth st =
    if depth = 0 then
      match int_bound 2 st with
      | 0 -> string_of_int (int_range (-9) 9 st)
      | 1 -> List.nth var_names (int_bound 3 st)
      | _ -> Printf.sprintf "g[%d]" (int_bound 7 st)
    else
      let a = gen_expr (depth - 1) st and b = gen_expr (depth - 1) st in
      match int_bound 5 st with
      | 0 -> Printf.sprintf "(%s + %s)" a b
      | 1 -> Printf.sprintf "(%s - %s)" a b
      | 2 -> Printf.sprintf "(%s * %s)" a b
      (* divisor x %% 13 + 21 is always in 9..33, even under wraparound *)
      | 3 -> Printf.sprintf "(%s / (%s %% 13 + 21))" a b
      | 4 -> Printf.sprintf "(%s %% (%s %% 13 + 21))" a b
      | _ -> Printf.sprintf "(%s < %s)" a b
  in
  let gen_stmt st =
    let v = List.nth var_names (int_bound 3 st) in
    match int_bound 3 st with
    | 0 -> Printf.sprintf "%s = %s;" v (gen_expr 2 st)
    | 1 -> Printf.sprintf "g[%d] = %s;" (int_bound 7 st) (gen_expr 2 st)
    | 2 ->
        Printf.sprintf "if (%s) { %s = %s; } else { %s = %s; }" (gen_expr 1 st)
          v (gen_expr 1 st) v (gen_expr 1 st)
    | _ ->
        Printf.sprintf "for (i = 0; i < %d; i = i + 1) { %s = %s + i; }"
          (1 + int_bound 5 st) v v
  in
  let gen st =
    let body = String.concat "\n    " (List.init (2 + int_bound 6 st) (fun _ -> gen_stmt st)) in
    Printf.sprintf
      {|
      int g[8];
      int main() {
        int a; int b; int c; int d; int i;
        a = 1; b = 2; c = 3; d = 4;
        for (i = 0; i < 8; i = i + 1) { g[i] = i; }
        %s
        print_int(a); print_int(b); print_int(c); print_int(d);
        for (i = 0; i < 8; i = i + 1) { print_int(g[i]); }
        return 0;
      }
      |}
      body
  in
  gen
