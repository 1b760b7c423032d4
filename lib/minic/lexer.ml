type token =
  | INT_LIT of int
  | FLOAT_LIT of float
  | IDENT of string
  | KW_INT | KW_FLOAT | KW_VOID
  | KW_IF | KW_ELSE | KW_WHILE | KW_FOR | KW_RETURN
  | KW_BREAK | KW_CONTINUE
  | LPAREN | RPAREN | LBRACE | RBRACE | LBRACKET | RBRACKET
  | SEMI | COMMA
  | ASSIGN
  | PLUS | MINUS | STAR | SLASH | PERCENT
  | EQ | NE | LT | LE | GT | GE
  | ANDAND | OROR | BANG
  | EOF

exception Lex_error of { line : int; message : string }

let keyword = function
  | "int" -> Some KW_INT
  | "float" -> Some KW_FLOAT
  | "void" -> Some KW_VOID
  | "if" -> Some KW_IF
  | "else" -> Some KW_ELSE
  | "while" -> Some KW_WHILE
  | "for" -> Some KW_FOR
  | "return" -> Some KW_RETURN
  | "break" -> Some KW_BREAK
  | "continue" -> Some KW_CONTINUE
  | _ -> None

let is_digit c = c >= '0' && c <= '9'
let is_alpha c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'

let tokenize source =
  let n = String.length source in
  let tokens = ref [] in
  let line = ref 1 in
  let i = ref 0 in
  let push t = tokens := (t, !line) :: !tokens in
  let fail message = raise (Lex_error { line = !line; message }) in
  while !i < n do
    let c = source.[!i] in
    if c = '\n' then begin
      incr line;
      incr i
    end
    else if c = ' ' || c = '\t' || c = '\r' then incr i
    else if c = '/' && !i + 1 < n && source.[!i + 1] = '/' then begin
      while !i < n && source.[!i] <> '\n' do
        incr i
      done
    end
    else if c = '/' && !i + 1 < n && source.[!i + 1] = '*' then begin
      i := !i + 2;
      let closed = ref false in
      while (not !closed) && !i + 1 < n do
        if source.[!i] = '\n' then incr line;
        if source.[!i] = '*' && source.[!i + 1] = '/' then begin
          closed := true;
          i := !i + 2
        end
        else incr i
      done;
      if not !closed then fail "unterminated comment"
    end
    else if is_digit c then begin
      let start = !i in
      while !i < n && is_digit source.[!i] do
        incr i
      done;
      let is_float =
        !i < n && source.[!i] = '.' && !i + 1 < n && is_digit source.[!i + 1]
      in
      if is_float then begin
        incr i;
        while !i < n && is_digit source.[!i] do
          incr i
        done;
        (* optional exponent *)
        if !i < n && (source.[!i] = 'e' || source.[!i] = 'E') then begin
          incr i;
          if !i < n && (source.[!i] = '+' || source.[!i] = '-') then incr i;
          while !i < n && is_digit source.[!i] do
            incr i
          done
        end
      end;
      let lit = String.sub source start (!i - start) in
      if is_float then (
        match float_of_string_opt lit with
        | Some f -> push (FLOAT_LIT f)
        | None -> fail ("float literal with no digits in its exponent: " ^ lit))
      else
        match int_of_string_opt lit with
        | Some v -> push (INT_LIT v)
        | None -> fail ("integer literal above 4611686018427387903: " ^ lit)
    end
    else if is_alpha c then begin
      let start = !i in
      while !i < n && (is_alpha source.[!i] || is_digit source.[!i]) do
        incr i
      done;
      let word = String.sub source start (!i - start) in
      match keyword word with
      | Some kw -> push kw
      | None -> push (IDENT word)
    end
    else begin
      let two =
        if !i + 1 < n then Some (String.sub source !i 2) else None
      in
      match two with
      | Some "==" -> push EQ; i := !i + 2
      | Some "!=" -> push NE; i := !i + 2
      | Some "<=" -> push LE; i := !i + 2
      | Some ">=" -> push GE; i := !i + 2
      | Some "&&" -> push ANDAND; i := !i + 2
      | Some "||" -> push OROR; i := !i + 2
      | _ -> (
          incr i;
          match c with
          | '(' -> push LPAREN
          | ')' -> push RPAREN
          | '{' -> push LBRACE
          | '}' -> push RBRACE
          | '[' -> push LBRACKET
          | ']' -> push RBRACKET
          | ';' -> push SEMI
          | ',' -> push COMMA
          | '=' -> push ASSIGN
          | '+' -> push PLUS
          | '-' -> push MINUS
          | '*' -> push STAR
          | '/' -> push SLASH
          | '%' -> push PERCENT
          | '<' -> push LT
          | '>' -> push GT
          | '!' -> push BANG
          | _ -> fail (Printf.sprintf "unexpected character %c" c))
    end
  done;
  push EOF;
  List.rev !tokens

let token_to_string = function
  | INT_LIT v -> string_of_int v
  | FLOAT_LIT v -> string_of_float v
  | IDENT s -> s
  | KW_INT -> "int"
  | KW_FLOAT -> "float"
  | KW_VOID -> "void"
  | KW_IF -> "if"
  | KW_ELSE -> "else"
  | KW_WHILE -> "while"
  | KW_FOR -> "for"
  | KW_RETURN -> "return"
  | KW_BREAK -> "break"
  | KW_CONTINUE -> "continue"
  | LPAREN -> "("
  | RPAREN -> ")"
  | LBRACE -> "{"
  | RBRACE -> "}"
  | LBRACKET -> "["
  | RBRACKET -> "]"
  | SEMI -> ";"
  | COMMA -> ","
  | ASSIGN -> "="
  | PLUS -> "+"
  | MINUS -> "-"
  | STAR -> "*"
  | SLASH -> "/"
  | PERCENT -> "%"
  | EQ -> "=="
  | NE -> "!="
  | LT -> "<"
  | LE -> "<="
  | GT -> ">"
  | GE -> ">="
  | ANDAND -> "&&"
  | OROR -> "||"
  | BANG -> "!"
  | EOF -> "<eof>"
