let page_bits = 12
let page_size = 1 lsl page_bits
let offset_mask = page_size - 1

(* Every page no store has reached is this one.  Stores never write it:
   [writable] swaps in a page of the memory's own first. *)
let zero_page = Bytes.make page_size '\000'

type t = { pages : Bytes.t array; size : int }

exception Fault of { address : int; message : string }

let create ~bytes =
  if bytes <= 0 then invalid_arg "Memory.create: non-positive size";
  let size = (bytes + 3) land lnot 3 in
  { pages = Array.make ((size + offset_mask) lsr page_bits) zero_page; size }

let size m = m.size

let check_word m addr =
  if addr land 3 <> 0 then raise (Fault { address = addr; message = "unaligned word access" });
  (* not [addr + 4 > m.size], which wraps for an address near [max_int] *)
  if addr < 0 || addr > m.size - 4 then
    raise (Fault { address = addr; message = "word access out of bounds" })

let check_byte m addr =
  if addr < 0 || addr >= m.size then
    raise (Fault { address = addr; message = "byte access out of bounds" })

(* After a check: the address is in bounds, and an aligned word never
   crosses a page. *)
let page m addr = Array.unsafe_get m.pages (addr lsr page_bits)

let writable m addr =
  let p = page m addr in
  if p != zero_page then p
  else begin
    let p = Bytes.make page_size '\000' in
    Array.unsafe_set m.pages (addr lsr page_bits) p;
    p
  end

(* Words load as signed 32-bit values, matching the register file. *)
let load_word m addr =
  check_word m addr;
  Int32.to_int (Bytes.get_int32_le (page m addr) (addr land offset_mask))

let store_word m addr v =
  check_word m addr;
  Bytes.set_int32_le (writable m addr) (addr land offset_mask)
    (Int32.of_int (v land 0xffffffff))

let load_byte m addr =
  check_byte m addr;
  let b = Char.code (Bytes.get (page m addr) (addr land offset_mask)) in
  if b >= 0x80 then b - 0x100 else b

let store_byte m addr v =
  check_byte m addr;
  Bytes.set (writable m addr) (addr land offset_mask) (Char.chr (v land 0xff))

let load_float m addr =
  check_word m addr;
  Int32.float_of_bits (Bytes.get_int32_le (page m addr) (addr land offset_mask))

let store_float m addr v =
  check_word m addr;
  Bytes.set_int32_le (writable m addr) (addr land offset_mask)
    (Int32.bits_of_float v)
