type t = { width : int; words : int array }

let of_words ~width words =
  if width < 1 || width > 62 then invalid_arg "Bitmat.of_words: bad width";
  Array.iter
    (fun w ->
      if w < 0 || (width < 62 && w lsr width <> 0) then
        invalid_arg "Bitmat.of_words: word does not fit width")
    words;
  { width; words = Array.copy words }

let width m = m.width
let rows m = Array.length m.words

let word m i =
  if i < 0 || i >= rows m then invalid_arg "Bitmat.word: row out of range";
  m.words.(i)

let words m = Array.copy m.words

(* Column extraction strides the output a word at a time: bits of line [b]
   accumulate into an int that is blitted into the builder whenever full,
   instead of going through a copying per-bit [Bitvec.set]. *)
let column m b =
  if b < 0 || b >= m.width then invalid_arg "Bitmat.column: line out of range";
  let n = rows m in
  let bpw = Bitvec.bits_per_word in
  let bld = Bitvec.Builder.create n in
  let acc = ref 0 and nacc = ref 0 and base = ref 0 in
  for i = 0 to n - 1 do
    acc := !acc lor ((m.words.(i) lsr b land 1) lsl !nacc);
    incr nacc;
    if !nacc = bpw then begin
      Bitvec.Builder.blit_int bld ~pos:!base ~len:bpw !acc;
      base := !base + bpw;
      acc := 0;
      nacc := 0
    end
  done;
  if !nacc > 0 then Bitvec.Builder.blit_int bld ~pos:!base ~len:!nacc !acc;
  Bitvec.Builder.freeze bld

(* The reverse transpose reads each column's backing words and scatters only
   the set bits (lowest-set-bit stripping), so all-zero stretches of a line
   cost one comparison per word. *)
let of_columns cols =
  let width = Array.length cols in
  if width = 0 then invalid_arg "Bitmat.of_columns: no columns";
  let n = Bitvec.length cols.(0) in
  Array.iter
    (fun c ->
      if Bitvec.length c <> n then invalid_arg "Bitmat.of_columns: ragged")
    cols;
  let bpw = Bitvec.bits_per_word in
  let words = Array.make n 0 in
  for b = 0 to width - 1 do
    let col = cols.(b) in
    let line_bit = 1 lsl b in
    for iw = 0 to Bitvec.word_count col - 1 do
      let w = ref (Bitvec.word col iw) in
      let base = iw * bpw in
      while !w <> 0 do
        let j = Popcount.lsb_index !w in
        words.(base + j) <- words.(base + j) lor line_bit;
        w := !w land (!w - 1)
      done
    done
  done;
  { width; words }

(* Words per packed column in the scratch-arena layout below. *)
let column_words ~rows = (rows + Bitvec.bits_per_word - 1) / Bitvec.bits_per_word

(* Single-pass transpose into a caller-owned arena: column [b] of the
   matrix lands at [dst.(b * wpc) .. dst.(b * wpc + wpc - 1)], packed
   little-endian [bits_per_word] bits per int — the same packing Bitvec
   uses, so the chain encode core can consume the slice directly.  Only
   set bits are scattered (lowest-set-bit stripping), so sparse rows cost
   one comparison each.  Allocates nothing. *)
let transpose_into m dst =
  let n = rows m in
  let wpc = column_words ~rows:n in
  if Array.length dst < m.width * wpc then
    invalid_arg "Bitmat.transpose_into: arena too small";
  Array.fill dst 0 (m.width * wpc) 0;
  for i = 0 to n - 1 do
    let w = ref m.words.(i) in
    let iw = i lsr 5 and bit = 1 lsl (i land 31) in
    while !w <> 0 do
      let b = Popcount.lsb_index !w in
      let j = (b * wpc) + iw in
      dst.(j) <- dst.(j) lor bit;
      w := !w land (!w - 1)
    done
  done

(* Reverse of [transpose_into]: rebuild a matrix from packed column words.
   Bits of each column beyond [rows] must be zero (the encode core masks
   its last word), otherwise the scatter would index out of range. *)
let of_column_words ~width ~rows:n src =
  if width < 1 || width > 62 then
    invalid_arg "Bitmat.of_column_words: bad width";
  let wpc = column_words ~rows:n in
  if Array.length src < width * wpc then
    invalid_arg "Bitmat.of_column_words: arena too small";
  let words = Array.make n 0 in
  for b = 0 to width - 1 do
    let line_bit = 1 lsl b in
    for iw = 0 to wpc - 1 do
      let w = ref src.((b * wpc) + iw) in
      let base = iw * Bitvec.bits_per_word in
      while !w <> 0 do
        let j = Popcount.lsb_index !w in
        if base + j >= n then
          invalid_arg "Bitmat.of_column_words: bits beyond rows";
        words.(base + j) <- words.(base + j) lor line_bit;
        w := !w land (!w - 1)
      done
    done
  done;
  { width; words }

let column_transitions m =
  let counts = Array.make m.width 0 in
  for i = 0 to rows m - 2 do
    Popcount.add_at_set_bits counts ~by:1 (m.words.(i) lxor m.words.(i + 1))
  done;
  counts

let transitions m =
  let total = ref 0 in
  for i = 0 to rows m - 2 do
    total := !total + Popcount.count (m.words.(i) lxor m.words.(i + 1))
  done;
  !total
