type t = Bytes.t

exception Fault of { address : int; message : string }

let create ~bytes =
  if bytes <= 0 then invalid_arg "Memory.create: non-positive size";
  Bytes.make ((bytes + 3) land lnot 3) '\000'

let size m = Bytes.length m
let clear m = Bytes.fill m 0 (Bytes.length m) '\000'

let check_word m addr =
  if addr land 3 <> 0 then raise (Fault { address = addr; message = "unaligned word access" });
  if addr < 0 || addr + 4 > Bytes.length m then
    raise (Fault { address = addr; message = "word access out of bounds" })

let check_byte m addr =
  if addr < 0 || addr >= Bytes.length m then
    raise (Fault { address = addr; message = "byte access out of bounds" })

(* Words load as signed 32-bit values, matching the register file. *)
let load_word m addr =
  check_word m addr;
  Int32.to_int (Bytes.get_int32_le m addr)

let store_word m addr v =
  check_word m addr;
  Bytes.set_int32_le m addr (Int32.of_int (v land 0xffffffff))

let load_byte m addr =
  check_byte m addr;
  let b = Char.code (Bytes.get m addr) in
  if b >= 0x80 then b - 0x100 else b

let store_byte m addr v =
  check_byte m addr;
  Bytes.set m addr (Char.chr (v land 0xff))

let load_float m addr =
  check_word m addr;
  Int32.float_of_bits (Bytes.get_int32_le m addr)

let store_float m addr v =
  check_word m addr;
  Bytes.set_int32_le m addr (Int32.bits_of_float v)
