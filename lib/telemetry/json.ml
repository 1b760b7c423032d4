(* The one JSON codec: the string escaper every hand-rolled exporter
   shares, and a recursive-descent reader for the documents they write. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Parse_error of string

let escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

(* ---- reader ----------------------------------------------------------- *)

type state = { s : string; mutable pos : int }

let error st msg =
  raise (Parse_error (Printf.sprintf "%s at byte %d" msg st.pos))

let at_end st = st.pos >= String.length st.s

let rec skip_ws st =
  if not (at_end st) then
    match st.s.[st.pos] with
    | ' ' | '\t' | '\n' | '\r' ->
        st.pos <- st.pos + 1;
        skip_ws st
    | _ -> ()

(* [next_is st c] consumes [c] if it is the next byte *)
let next_is st c =
  if (not (at_end st)) && st.s.[st.pos] = c then begin
    st.pos <- st.pos + 1;
    true
  end
  else false

let expect st c =
  if not (next_is st c) then error st (Printf.sprintf "expected '%c'" c)

let parse_literal st word value =
  let n = String.length word in
  if st.pos + n <= String.length st.s && String.sub st.s st.pos n = word
  then begin
    st.pos <- st.pos + n;
    value
  end
  else error st ("expected " ^ word)

(* UTF-8 bytes of a \uXXXX code point; surrogates are not paired *)
let add_code_point b code =
  let byte x = Buffer.add_char b (Char.chr x) in
  if code < 0x80 then byte code
  else if code < 0x800 then begin
    byte (0xc0 lor (code lsr 6));
    byte (0x80 lor (code land 0x3f))
  end
  else begin
    byte (0xe0 lor (code lsr 12));
    byte (0x80 lor ((code lsr 6) land 0x3f));
    byte (0x80 lor (code land 0x3f))
  end

let rec string_body st b =
  if at_end st then error st "unterminated string";
  let c = st.s.[st.pos] in
  st.pos <- st.pos + 1;
  match c with
  | '"' -> Buffer.contents b
  | '\\' ->
      if at_end st then error st "unterminated string";
      let e = st.s.[st.pos] in
      st.pos <- st.pos + 1;
      (match e with
      | '"' | '\\' | '/' -> Buffer.add_char b e
      | 'n' -> Buffer.add_char b '\n'
      | 't' -> Buffer.add_char b '\t'
      | 'r' -> Buffer.add_char b '\r'
      | 'b' -> Buffer.add_char b '\b'
      | 'f' -> Buffer.add_char b '\012'
      | 'u' -> (
          if st.pos + 4 > String.length st.s then error st "short \\u escape";
          match int_of_string_opt ("0x" ^ String.sub st.s st.pos 4) with
          | Some code ->
              st.pos <- st.pos + 4;
              add_code_point b code
          | _ -> error st "bad \\u escape")
      | _ -> error st "bad escape");
      string_body st b
  | c ->
      Buffer.add_char b c;
      string_body st b

let parse_string st =
  expect st '"';
  string_body st (Buffer.create 16)

(* A lexeme of digits and '-' only is an [Int] (out of range is an error,
   never a silent float); every other lexeme is a [Float]. *)
let parse_number st =
  let start = st.pos in
  let numeric = function
    | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
    | _ -> false
  in
  while (not (at_end st)) && numeric st.s.[st.pos] do
    st.pos <- st.pos + 1
  done;
  let text = String.sub st.s start (st.pos - start) in
  let integral = String.for_all (fun c -> c = '-' || ('0' <= c && c <= '9')) in
  if text <> "" && integral text then
    match int_of_string_opt text with
    | Some i -> Int i
    | None -> error st ("bad integer " ^ text)
  else
    match float_of_string_opt text with
    | Some f -> Float f
    | None -> error st ("bad number " ^ text)

(* [items st close item] reads [item]s separated by ',' up to [close];
   the opening bracket is already consumed. *)
let items st close item =
  skip_ws st;
  if next_is st close then []
  else
    let rec go acc =
      let acc = item () :: acc in
      skip_ws st;
      if next_is st ',' then go acc
      else if next_is st close then List.rev acc
      else error st (Printf.sprintf "expected ',' or '%c'" close)
    in
    go []

let rec parse_value st =
  skip_ws st;
  if at_end st then error st "unexpected end of input";
  match st.s.[st.pos] with
  | '{' ->
      st.pos <- st.pos + 1;
      Obj
        (items st '}' (fun () ->
             skip_ws st;
             let key = parse_string st in
             skip_ws st;
             expect st ':';
             (key, parse_value st)))
  | '[' ->
      st.pos <- st.pos + 1;
      Arr (items st ']' (fun () -> parse_value st))
  | '"' -> Str (parse_string st)
  | 't' -> parse_literal st "true" (Bool true)
  | 'f' -> parse_literal st "false" (Bool false)
  | 'n' -> parse_literal st "null" Null
  | _ -> parse_number st

let of_string s =
  let st = { s; pos = 0 } in
  let v = parse_value st in
  skip_ws st;
  if not (at_end st) then error st "trailing content";
  v

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None
