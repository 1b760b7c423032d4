exception Type_error of { line : int; message : string }

let fail line message = raise (Type_error { line; message })

type var_info = { v_type : Ast.scalar; v_dims : int list }

type fn_info = { fi_ret : Ast.typ; fi_params : Ast.scalar list }

type env = {
  globals : (string, var_info) Hashtbl.t;
  funcs : (string, fn_info) Hashtbl.t;
  locals : (string, var_info) Hashtbl.t;  (* current function scope *)
}

let intrinsics =
  [
    ("print_int", { fi_ret = Ast.Void; fi_params = [ Ast.Tint ] });
    ("print_float", { fi_ret = Ast.Void; fi_params = [ Ast.Tfloat ] });
    ("print_char", { fi_ret = Ast.Void; fi_params = [ Ast.Tint ] });
    ("fabs", { fi_ret = Ast.Scalar Ast.Tfloat; fi_params = [ Ast.Tfloat ] });
    ("sqrtf", { fi_ret = Ast.Scalar Ast.Tfloat; fi_params = [ Ast.Tfloat ] });
  ]

let etyp_of_scalar = function Ast.Tint -> Ast.Eint | Ast.Tfloat -> Ast.Efloat

let lookup_var env name line =
  match Hashtbl.find_opt env.locals name with
  | Some v -> v
  | None -> (
      match Hashtbl.find_opt env.globals name with
      | Some v -> v
      | None -> fail line ("undefined variable " ^ name))

let rec check_expr env (e : Ast.expr) : Ast.etyp =
  let t =
    match e.Ast.desc with
    | Ast.Int_lit _ -> Ast.Eint
    | Ast.Float_lit _ -> Ast.Efloat
    | Ast.Lval lv -> check_lvalue env lv
    | Ast.Cast_float inner ->
        let it = check_expr env inner in
        if it <> Ast.Eint then fail e.Ast.line "itof expects an int";
        Ast.Efloat
    | Ast.Cast_int inner ->
        let it = check_expr env inner in
        if it <> Ast.Efloat then fail e.Ast.line "ftoi expects a float";
        Ast.Eint
    | Ast.Unop (Ast.Neg, inner) -> check_expr env inner
    | Ast.Unop (Ast.Lnot, inner) ->
        if check_expr env inner <> Ast.Eint then
          fail e.Ast.line "! expects an int";
        Ast.Eint
    | Ast.Binop (op, a, b) -> (
        let ta = check_expr env a and tb = check_expr env b in
        match op with
        | Ast.Mod | Ast.Land | Ast.Lor ->
            if ta <> Ast.Eint || tb <> Ast.Eint then
              fail e.Ast.line
                (Ast.binop_to_string op ^ " expects int operands");
            Ast.Eint
        | Ast.Add | Ast.Sub | Ast.Mul | Ast.Dvd ->
            if ta = Ast.Efloat || tb = Ast.Efloat then Ast.Efloat else Ast.Eint
        | Ast.Eq | Ast.Ne | Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge -> Ast.Eint)
    | Ast.Call (name, args) -> (
        let info =
          match Hashtbl.find_opt env.funcs name with
          | Some i -> Some i
          | None -> List.assoc_opt name intrinsics
        in
        match info with
        | None -> fail e.Ast.line ("undefined function " ^ name)
        | Some info ->
            if List.length args <> List.length info.fi_params then
              fail e.Ast.line
                (Printf.sprintf "%s expects %d arguments, got %d" name
                   (List.length info.fi_params)
                   (List.length args));
            List.iter2
              (fun arg param ->
                let at = check_expr env arg in
                match (at, param) with
                | Ast.Eint, Ast.Tint | Ast.Efloat, Ast.Tfloat -> ()
                | Ast.Eint, Ast.Tfloat -> ()  (* promoted at the call site *)
                | Ast.Efloat, Ast.Tint ->
                    fail arg.Ast.line
                      ("float argument passed where " ^ name ^ " expects int"))
              args info.fi_params;
            (match info.fi_ret with
            | Ast.Void -> fail e.Ast.line (name ^ " returns void; cannot use its value")
            | Ast.Scalar s -> etyp_of_scalar s))
  in
  e.Ast.ety <- Some t;
  t

and check_lvalue env (lv : Ast.lvalue) : Ast.etyp =
  let info = lookup_var env lv.Ast.base lv.Ast.lv_line in
  let want = List.length info.v_dims in
  let got = List.length lv.Ast.indices in
  if want <> got then
    fail lv.Ast.lv_line
      (Printf.sprintf "%s has %d dimension(s) but %d index(es) given"
         lv.Ast.base want got);
  List.iter
    (fun idx ->
      if check_expr env idx <> Ast.Eint then
        fail idx.Ast.line "array index must be an int")
    lv.Ast.indices;
  etyp_of_scalar info.v_type

(* Statement-position calls may be void. *)
let check_call_stmt env (e : Ast.expr) =
  match e.Ast.desc with
  | Ast.Call (name, args) -> (
      let info =
        match Hashtbl.find_opt env.funcs name with
        | Some i -> Some i
        | None -> List.assoc_opt name intrinsics
      in
      match info with
      | None -> fail e.Ast.line ("undefined function " ^ name)
      | Some info ->
          if List.length args <> List.length info.fi_params then
            fail e.Ast.line
              (Printf.sprintf "%s expects %d arguments, got %d" name
                 (List.length info.fi_params)
                 (List.length args));
          List.iter2
            (fun arg param ->
              let at = check_expr env arg in
              match (at, param) with
              | Ast.Eint, Ast.Tint | Ast.Efloat, Ast.Tfloat
              | Ast.Eint, Ast.Tfloat ->
                  ()
              | Ast.Efloat, Ast.Tint ->
                  fail arg.Ast.line
                    ("float argument passed where " ^ name ^ " expects int"))
            args info.fi_params;
          e.Ast.ety <-
            (match info.fi_ret with
            | Ast.Void -> None
            | Ast.Scalar s -> Some (etyp_of_scalar s)))
  | _ -> ignore (check_expr env e)

let rec check_stmt ?(in_loop = false) env ret stmt =
  match stmt with
  | Ast.Assign (lv, e) -> (
      let lt = check_lvalue env lv in
      let rt = check_expr env e in
      match (lt, rt) with
      | Ast.Eint, Ast.Eint | Ast.Efloat, Ast.Efloat | Ast.Efloat, Ast.Eint ->
          ()
      | Ast.Eint, Ast.Efloat ->
          fail lv.Ast.lv_line "assigning float to int requires ftoi")
  | Ast.If (cond, then_, else_) ->
      if check_expr env cond <> Ast.Eint then
        fail cond.Ast.line "condition must be an int";
      check_block ~in_loop env ret then_;
      Option.iter (check_block ~in_loop env ret) else_
  | Ast.While (cond, body) ->
      if check_expr env cond <> Ast.Eint then
        fail cond.Ast.line "condition must be an int";
      check_block ~in_loop:true env ret body
  | Ast.For (init, cond, step, body) ->
      Option.iter (check_stmt ~in_loop env ret) init;
      Option.iter
        (fun c ->
          if check_expr env c <> Ast.Eint then
            fail c.Ast.line "condition must be an int")
        cond;
      Option.iter (check_stmt ~in_loop:true env ret) step;
      check_block ~in_loop:true env ret body
  | Ast.Break line ->
      if not in_loop then fail line "break outside a loop"
  | Ast.Continue line ->
      if not in_loop then fail line "continue outside a loop"
  | Ast.Return (value, line) -> (
      match (ret, value) with
      | Ast.Void, None -> ()
      | Ast.Void, Some _ -> fail line "void function returns a value"
      | Ast.Scalar _, None -> fail line "missing return value"
      | Ast.Scalar s, Some e -> (
          let t = check_expr env e in
          match (etyp_of_scalar s, t) with
          | Ast.Eint, Ast.Eint | Ast.Efloat, Ast.Efloat | Ast.Efloat, Ast.Eint
            ->
              ()
          | Ast.Eint, Ast.Efloat ->
              fail line "returning float from an int function requires ftoi"))
  | Ast.Expr_stmt e -> check_call_stmt env e
  | Ast.Block b -> check_block ~in_loop env ret b

and check_block ?(in_loop = false) env ret (b : Ast.block) =
  let added = ref [] in
  List.iter
    (fun (ty, name, line) ->
      if Hashtbl.mem env.locals name then
        fail line ("duplicate local " ^ name);
      Hashtbl.add env.locals name { v_type = ty; v_dims = [] };
      added := name :: !added)
    b.Ast.decls;
  List.iter (check_stmt ~in_loop env ret) b.Ast.stmts;
  List.iter (Hashtbl.remove env.locals) !added

let check (program : Ast.program) =
  let env =
    {
      globals = Hashtbl.create 16;
      funcs = Hashtbl.create 16;
      locals = Hashtbl.create 16;
    }
  in
  List.iter
    (fun (g : Ast.global) ->
      if Hashtbl.mem env.globals g.Ast.g_name then
        fail g.Ast.g_line ("duplicate global " ^ g.Ast.g_name);
      List.iter
        (fun d ->
          if d <= 0 then fail g.Ast.g_line "array dimension must be positive")
        g.Ast.g_dims;
      Hashtbl.add env.globals g.Ast.g_name
        { v_type = g.Ast.g_type; v_dims = g.Ast.g_dims })
    program.Ast.globals;
  List.iter
    (fun (f : Ast.func) ->
      if Hashtbl.mem env.funcs f.Ast.f_name then
        fail f.Ast.f_line ("duplicate function " ^ f.Ast.f_name);
      if List.assoc_opt f.Ast.f_name intrinsics <> None then
        fail f.Ast.f_line (f.Ast.f_name ^ " is a builtin");
      if List.length f.Ast.f_params > 4 then
        fail f.Ast.f_line "at most 4 parameters supported";
      Hashtbl.add env.funcs f.Ast.f_name
        {
          fi_ret = f.Ast.f_ret;
          fi_params = List.map fst f.Ast.f_params;
        })
    program.Ast.funcs;
  (match Hashtbl.find_opt env.funcs "main" with
  | None -> fail 1 "no main function"
  | Some { fi_params = []; _ } -> ()
  | Some _ -> fail 1 "main takes no parameters");
  List.iter
    (fun (f : Ast.func) ->
      Hashtbl.reset env.locals;
      List.iter
        (fun (ty, name) ->
          if Hashtbl.mem env.locals name then
            fail f.Ast.f_line ("duplicate parameter " ^ name);
          Hashtbl.add env.locals name { v_type = ty; v_dims = [] })
        f.Ast.f_params;
      check_block env f.Ast.f_ret f.Ast.f_body)
    program.Ast.funcs
