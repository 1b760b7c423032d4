(* One shared 16-bit table: 64 KiB of bytes, built once at load time.  Every
   popcount in the repo goes through it; the naive shift loop only runs here,
   to fill the table. *)

let table =
  let t = Bytes.create 65536 in
  for i = 0 to 65535 do
    let rec go x acc = if x = 0 then acc else go (x lsr 1) (acc + (x land 1)) in
    Bytes.set t i (Char.chr (go i 0))
  done;
  t

let count16 x = Char.code (Bytes.unsafe_get table (x land 0xffff))
let count32 x = count16 x + count16 (x lsr 16)

let count x =
  if x < 0 then invalid_arg "Popcount.count: negative";
  count16 x + count16 (x lsr 16) + count16 (x lsr 32) + count16 (x lsr 48)

(* De Bruijn lowest-set-bit lookup: for b = 2^j, j < 32, multiplying b by
   the B(2,5) sequence below puts a distinct 5-bit window in bits 27..31 of
   the 32-bit product.  The product of 2^31 and the constant stays below
   2^58, so no bit wraps. *)
let debruijn32 = 0x077CB531

let lsb_table =
  let t = Bytes.create 32 in
  for j = 0 to 31 do
    Bytes.set t ((((1 lsl j) * debruijn32) land 0xffffffff) lsr 27) (Char.chr j)
  done;
  t

(* [bit_index b] is j for b = 2^j.  Neither checks nor raises, so both
   inline into the loops below. *)
let[@inline] bit_index32 b =
  Char.code (Bytes.unsafe_get lsb_table (((b * debruijn32) lsr 27) land 31))

let[@inline] bit_index b =
  if b land 0xffffffff <> 0 then bit_index32 b else 32 + bit_index32 (b lsr 32)

let lsb_index x =
  if x = 0 then invalid_arg "Popcount.lsb_index: zero";
  (* x land (-x) isolates the lowest set bit 2^j *)
  bit_index (x land -x)

let add_at_set_bits counts ~by x =
  let rest = ref x in
  while !rest <> 0 do
    let j = bit_index (!rest land - !rest) in
    counts.(j) <- counts.(j) + by;
    rest := !rest land (!rest - 1)
  done
