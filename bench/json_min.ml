(* The bench's view of a JSON document: [Telemetry.Json]'s tree with both
   number kinds as one [Num] float, which is exact for every integer the
   bench emits (all well under 2^53).  compare.ml, trend.ml and the
   performance benchmark's golden files read through it. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Parse_error = Telemetry.Json.Parse_error

let rec of_json : Telemetry.Json.t -> t = function
  | Null -> Null
  | Bool b -> Bool b
  | Int i -> Num (float_of_int i)
  | Float f -> Num f
  | Str s -> Str s
  | Arr l -> Arr (List.map of_json l)
  | Obj fields -> Obj (List.map (fun (k, v) -> (k, of_json v)) fields)

let of_string s = of_json (Telemetry.Json.of_string s)

(* ---- accessors -------------------------------------------------------- *)

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

let to_list = function Arr l -> Some l | _ -> None
let to_float = function Num f -> Some f | _ -> None
let to_string_opt = function Str s -> Some s | _ -> None
let to_bool = function Bool b -> Some b | _ -> None
