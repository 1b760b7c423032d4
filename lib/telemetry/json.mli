(** The one JSON codec shared by the library, the CLI and the bench.

    Every JSON artifact of the repo ([BENCH_encoding.json], fault-campaign
    reports, [--log-out] JSONL, the Perfetto and speedscope exports) is
    written by hand with {!escape} on every string; {!of_string} reads
    them back (the log filter, the bench gate and its trend, the
    performance benchmark's golden files). *)

(** A parsed document.  Objects keep their members in source order,
    duplicates included. *)
type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Parse_error of string

(** [escape s] is [s] as the body of a JSON string literal (without the
    quotes): the double quote and the backslash get a backslash, newline
    becomes [\n] and every other byte below 0x20 becomes [\uXXXX].  Bytes
    from 0x20 up pass through unchanged, so UTF-8 text stays UTF-8. *)
val escape : string -> string

(** [of_string s] parses one JSON value spanning all of [s] (surrounding
    whitespace allowed).

    Numbers: a lexeme made only of digits and ['-'] is an [Int]; one
    outside the 63-bit [int] range raises [Parse_error] rather than
    losing precision.  Every other number (with a ['.'], an exponent or
    a ['+']) goes through [float_of_string] and is a [Float].  So
    [1] is [Int 1] but [1.0] and [1e3] are [Float]s.

    Strings: the standard escapes; [\uXXXX] decodes to the UTF-8 bytes of
    the code point (surrogate pairs are not combined).  Raw bytes,
    control bytes included, are taken as they stand.

    Raises [Parse_error] (with the byte offset) on any malformed input,
    and never any other exception. *)
val of_string : string -> t

(** [member key v] is the first value under [key] when [v] is an object;
    [None] otherwise. *)
val member : string -> t -> t option
