module Bitvec = Bitutil.Bitvec
module Bitmat = Bitutil.Bitmat

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

(* ---- Bitvec ------------------------------------------------------------- *)

let test_create_empty () =
  let v = Bitvec.create 0 in
  check_int "length" 0 (Bitvec.length v);
  check_int "transitions" 0 (Bitvec.transitions v)

let test_create_zeroed () =
  let v = Bitvec.create 10 in
  for i = 0 to 9 do
    check_bool "bit is zero" false (Bitvec.get v i)
  done

let test_set_get () =
  let v = Bitvec.create 8 in
  let v = Bitvec.set v 3 true in
  check_bool "set bit" true (Bitvec.get v 3);
  check_bool "neighbour untouched" false (Bitvec.get v 2);
  let v2 = Bitvec.set v 3 false in
  check_bool "cleared" false (Bitvec.get v2 3);
  check_bool "original immutable" true (Bitvec.get v 3)

let test_out_of_range () =
  let v = Bitvec.create 4 in
  Alcotest.check_raises "get -1" (Invalid_argument "Bitvec: index out of range")
    (fun () -> ignore (Bitvec.get v (-1)));
  Alcotest.check_raises "get 4" (Invalid_argument "Bitvec: index out of range")
    (fun () -> ignore (Bitvec.get v 4))

let test_string_roundtrip () =
  let s = "1011001" in
  check_string "roundtrip" s (Bitvec.to_string (Bitvec.of_string s))

let test_string_orientation () =
  (* rightmost char is bit 0 *)
  let v = Bitvec.of_string "100" in
  check_bool "bit 0" false (Bitvec.get v 0);
  check_bool "bit 2" true (Bitvec.get v 2)

let test_of_int () =
  let v = Bitvec.of_int ~width:5 0b01010 in
  check_string "render" "01010" (Bitvec.to_string v);
  check_int "back" 0b01010 (Bitvec.to_int v)

let test_of_int_too_wide () =
  Alcotest.check_raises "value does not fit"
    (Invalid_argument "Bitvec.of_int: value does not fit") (fun () ->
      ignore (Bitvec.of_int ~width:3 8))

let test_transitions_examples () =
  check_int "0101" 3 (Bitvec.transitions (Bitvec.of_string "0101"));
  check_int "0000" 0 (Bitvec.transitions (Bitvec.of_string "0000"));
  check_int "1000" 1 (Bitvec.transitions (Bitvec.of_string "1000"));
  check_int "single" 0 (Bitvec.transitions (Bitvec.of_string "1"))

let test_popcount_hamming () =
  let a = Bitvec.of_string "1101" and b = Bitvec.of_string "1011" in
  check_int "popcount" 3 (Bitvec.popcount a);
  check_int "hamming" 2 (Bitvec.hamming a b)

let test_append_sub () =
  let a = Bitvec.of_string "11" and b = Bitvec.of_string "00" in
  (* append: bits of a first (low indices), then b *)
  let c = Bitvec.append a b in
  check_string "append" "0011" (Bitvec.to_string c);
  check_string "sub" "1" (Bitvec.to_string (Bitvec.sub c ~pos:1 ~len:1))

let test_map2_lnot () =
  let a = Bitvec.of_string "1100" and b = Bitvec.of_string "1010" in
  check_string "xor" "0110" (Bitvec.to_string (Bitvec.map2 ( <> ) a b));
  check_string "lnot" "0011" (Bitvec.to_string (Bitvec.lnot_ a))

(* ---- Bitmat ------------------------------------------------------------- *)

let test_bitmat_columns () =
  let m = Bitmat.of_words ~width:4 [| 0b0001; 0b0011; 0b0010 |] in
  check_string "column 0" "011" (Bitvec.to_string (Bitmat.column m 0));
  check_string "column 1" "110" (Bitvec.to_string (Bitmat.column m 1));
  check_string "column 3" "000" (Bitvec.to_string (Bitmat.column m 3))

let test_bitmat_roundtrip () =
  let words = [| 0xdead; 0xbeef; 0x1234; 0x0 |] in
  let m = Bitmat.of_words ~width:16 words in
  let cols = Array.init 16 (Bitmat.column m) in
  let m2 = Bitmat.of_columns cols in
  Alcotest.(check (array int)) "roundtrip" words (Bitmat.words m2)

let test_bitmat_transitions () =
  let m = Bitmat.of_words ~width:4 [| 0b0000; 0b1111; 0b0000 |] in
  check_int "total" 8 (Bitmat.transitions m);
  Alcotest.(check (array int)) "per line" [| 2; 2; 2; 2 |]
    (Bitmat.column_transitions m)

let test_bitmat_width_check () =
  Alcotest.check_raises "word too wide"
    (Invalid_argument "Bitmat.of_words: word does not fit width") (fun () ->
      ignore (Bitmat.of_words ~width:4 [| 16 |]))

(* ---- builder ------------------------------------------------------------- *)

let test_builder_set_freeze () =
  let b = Bitvec.Builder.create 70 in
  Bitvec.Builder.set b 0 true;
  Bitvec.Builder.set b 61 true;
  Bitvec.Builder.set b 62 true;
  Bitvec.Builder.set b 69 true;
  Bitvec.Builder.set b 62 false;
  check_bool "read back" true (Bitvec.Builder.get b 61);
  check_bool "cleared" false (Bitvec.Builder.get b 62);
  let v = Bitvec.Builder.freeze b in
  check_bool "bit 0" true (Bitvec.get v 0);
  check_bool "bit 61" true (Bitvec.get v 61);
  check_bool "bit 62" false (Bitvec.get v 62);
  check_bool "bit 69" true (Bitvec.get v 69);
  check_int "popcount" 3 (Bitvec.popcount v)

let test_builder_frozen_rejects () =
  let b = Bitvec.Builder.create 8 in
  let _ = Bitvec.Builder.freeze b in
  Alcotest.check_raises "set after freeze"
    (Invalid_argument "Bitvec.Builder: use after freeze") (fun () ->
      Bitvec.Builder.set b 0 true)

let test_blit_int_spans_words () =
  (* a 20-bit blit placed to straddle a backing-word boundary *)
  let b = Bitvec.Builder.create 100 in
  Bitvec.Builder.blit_int b ~pos:50 ~len:20 0xABCDE;
  let v = Bitvec.Builder.freeze b in
  check_int "read back across boundary" 0xABCDE
    (Bitvec.extract v ~pos:50 ~len:20);
  check_bool "below untouched" false (Bitvec.get v 49);
  check_bool "above untouched" false (Bitvec.get v 70)

let test_extract_matches_get () =
  let v = Bitvec.init 130 (fun i -> i * 7 mod 3 = 0) in
  for pos = 0 to 129 do
    let len = min 25 (130 - pos) in
    let w = Bitvec.extract v ~pos ~len in
    for i = 0 to len - 1 do
      if w lsr i land 1 = 1 <> Bitvec.get v (pos + i) then
        Alcotest.failf "extract mismatch at pos=%d i=%d" pos i
    done
  done

(* ---- properties ---------------------------------------------------------- *)

let bits_gen n = QCheck.(list_of_size (Gen.return n) bool)

(* lengths straddling backing-word boundaries get exercised explicitly *)
let sized_bits = QCheck.(list_of_size Gen.(0 -- 200) bool)

let reference_transitions bits =
  let a = Array.of_list bits in
  let n = ref 0 in
  for i = 0 to Array.length a - 2 do
    if a.(i) <> a.(i + 1) then incr n
  done;
  !n

let prop_transitions_vs_reference =
  QCheck.Test.make ~name:"word-level transitions = per-bit reference"
    ~count:500 sized_bits (fun bits ->
      Bitvec.transitions (Bitvec.of_list bits) = reference_transitions bits)

let prop_popcount_vs_reference =
  QCheck.Test.make ~name:"word-level popcount = per-bit reference" ~count:500
    sized_bits (fun bits ->
      Bitvec.popcount (Bitvec.of_list bits)
      = List.length (List.filter Fun.id bits))

(* The shared table against the shift loop it replaced; [x lsr s] spreads
   the inputs over every bit width, and the masks cover negative [x]. *)
let prop_table_popcounts_vs_shift_loop =
  let rec ones x acc =
    if x = 0 then acc else ones (x lsr 1) (acc + (x land 1))
  in
  QCheck.Test.make ~name:"table popcounts = shift-loop reference" ~count:1000
    QCheck.(pair int (int_bound 62))
    (fun (x, s) ->
      let y = x lsr s in
      let n = y land max_int in
      Bitutil.Popcount.count n = ones n 0
      && Bitutil.Popcount.count32 y = ones (y land 0xffffffff) 0
      && Bitutil.Popcount.count16 y = ones (y land 0xffff) 0)

let prop_hamming_vs_reference =
  QCheck.Test.make ~name:"word-level hamming = per-bit reference" ~count:300
    QCheck.(pair (bits_gen 125) (bits_gen 125))
    (fun (a, b) ->
      Bitvec.hamming (Bitvec.of_list a) (Bitvec.of_list b)
      = List.length (List.filter Fun.id (List.map2 ( <> ) a b)))

let prop_map2_vs_reference =
  QCheck.Test.make ~name:"word-level map2 = per-bit reference" ~count:100
    QCheck.(triple (int_bound 15) (bits_gen 80) (bits_gen 80))
    (fun (tt, a, b) ->
      (* truth-table index tt covers all 16 binary boolean functions *)
      let f x y =
        tt lsr ((if x then 2 else 0) + if y then 1 else 0) land 1 = 1
      in
      let va = Bitvec.of_list a and vb = Bitvec.of_list b in
      Bitvec.equal
        (Bitvec.map2 f va vb)
        (Bitvec.init 80 (fun i -> f (Bitvec.get va i) (Bitvec.get vb i))))

let prop_builder_vs_set =
  QCheck.Test.make ~name:"builder construction = copy-on-write construction"
    ~count:300 sized_bits (fun bits ->
      let n = List.length bits in
      let b = Bitvec.Builder.create n in
      List.iteri (fun i v -> Bitvec.Builder.set b i v) bits;
      let via_builder = Bitvec.Builder.freeze b in
      let via_set =
        List.fold_left
          (fun (v, i) bit -> (Bitvec.set v i bit, i + 1))
          (Bitvec.create n, 0) bits
        |> fst
      in
      Bitvec.equal via_builder via_set
      && Bitvec.equal via_builder (Bitvec.of_list bits))

let prop_blit_int_vs_sets =
  QCheck.Test.make ~name:"blit_int = per-bit sets" ~count:300
    QCheck.(triple (int_bound 100) (int_bound 30) (int_bound 0x3fffffff))
    (fun (pos, len, value) ->
      let n = 140 in
      let len = min len (n - pos) in
      let b1 = Bitvec.Builder.create n in
      Bitvec.Builder.blit_int b1 ~pos ~len value;
      let b2 = Bitvec.Builder.create n in
      for i = 0 to len - 1 do
        Bitvec.Builder.set b2 (pos + i) (value lsr i land 1 = 1)
      done;
      Bitvec.equal (Bitvec.Builder.freeze b1) (Bitvec.Builder.freeze b2))

let prop_append_sub_word_boundary =
  QCheck.Test.make ~name:"append/sub across word boundaries" ~count:200
    QCheck.(pair (list_of_size Gen.(0 -- 100) bool) (list_of_size Gen.(0 -- 100) bool))
    (fun (a, b) ->
      let va = Bitvec.of_list a and vb = Bitvec.of_list b in
      let c = Bitvec.append va vb in
      Bitvec.equal va (Bitvec.sub c ~pos:0 ~len:(Bitvec.length va))
      && Bitvec.equal vb
           (Bitvec.sub c ~pos:(Bitvec.length va) ~len:(Bitvec.length vb)))

let prop_column_vs_reference =
  QCheck.Test.make ~name:"fast column/of_columns = per-bit reference"
    ~count:50
    QCheck.(list_of_size Gen.(2 -- 150) (int_bound 0xffff))
    (fun words ->
      let words = Array.of_list words in
      let m = Bitmat.of_words ~width:16 words in
      let cols = Array.init 16 (Bitmat.column m) in
      let reference_col b =
        Bitvec.init (Array.length words) (fun i -> words.(i) lsr b land 1 = 1)
      in
      Array.for_all Fun.id
        (Array.init 16 (fun b -> Bitvec.equal cols.(b) (reference_col b)))
      && Bitmat.words (Bitmat.of_columns cols) = words)

let prop_string_roundtrip =
  QCheck.Test.make ~name:"bitvec string roundtrip" ~count:200
    (bits_gen 17) (fun bits ->
      let v = Bitvec.of_list bits in
      Bitvec.equal v (Bitvec.of_string (Bitvec.to_string v)))

let prop_transitions_bound =
  QCheck.Test.make ~name:"transitions < length" ~count:200
    QCheck.(list_of_size Gen.(1 -- 64) bool)
    (fun bits ->
      let v = Bitvec.of_list bits in
      Bitvec.transitions v <= Bitvec.length v - 1)

let prop_hamming_triangle =
  QCheck.Test.make ~name:"hamming triangle inequality" ~count:200
    QCheck.(triple (bits_gen 12) (bits_gen 12) (bits_gen 12))
    (fun (a, b, c) ->
      let va = Bitvec.of_list a
      and vb = Bitvec.of_list b
      and vc = Bitvec.of_list c in
      Bitvec.hamming va vc <= Bitvec.hamming va vb + Bitvec.hamming vb vc)

let prop_matrix_transitions_consistent =
  QCheck.Test.make ~name:"matrix transitions = sum of column transitions"
    ~count:100
    QCheck.(list_of_size Gen.(2 -- 20) (int_bound 0xffff))
    (fun words ->
      let m = Bitmat.of_words ~width:16 (Array.of_list words) in
      Bitmat.transitions m
      = Array.fold_left ( + ) 0 (Bitmat.column_transitions m)
      && Bitmat.transitions m
         = Array.fold_left
             (fun acc b -> acc + Bitvec.transitions (Bitmat.column m b))
             0
             (Array.init 16 Fun.id))

let () =
  Alcotest.run "bitutil"
    [
      ( "bitvec",
        [
          Alcotest.test_case "empty" `Quick test_create_empty;
          Alcotest.test_case "zeroed" `Quick test_create_zeroed;
          Alcotest.test_case "set/get" `Quick test_set_get;
          Alcotest.test_case "bounds" `Quick test_out_of_range;
          Alcotest.test_case "string roundtrip" `Quick test_string_roundtrip;
          Alcotest.test_case "string orientation" `Quick test_string_orientation;
          Alcotest.test_case "of_int" `Quick test_of_int;
          Alcotest.test_case "of_int too wide" `Quick test_of_int_too_wide;
          Alcotest.test_case "transitions" `Quick test_transitions_examples;
          Alcotest.test_case "popcount/hamming" `Quick test_popcount_hamming;
          Alcotest.test_case "append/sub" `Quick test_append_sub;
          Alcotest.test_case "map2/lnot" `Quick test_map2_lnot;
        ] );
      ( "builder",
        [
          Alcotest.test_case "set/freeze" `Quick test_builder_set_freeze;
          Alcotest.test_case "frozen rejects writes" `Quick
            test_builder_frozen_rejects;
          Alcotest.test_case "blit_int spans words" `Quick
            test_blit_int_spans_words;
          Alcotest.test_case "extract matches get" `Quick
            test_extract_matches_get;
        ] );
      ( "bitmat",
        [
          Alcotest.test_case "columns" `Quick test_bitmat_columns;
          Alcotest.test_case "roundtrip" `Quick test_bitmat_roundtrip;
          Alcotest.test_case "transitions" `Quick test_bitmat_transitions;
          Alcotest.test_case "width check" `Quick test_bitmat_width_check;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_string_roundtrip;
            prop_transitions_bound;
            prop_hamming_triangle;
            prop_matrix_transitions_consistent;
            prop_transitions_vs_reference;
            prop_popcount_vs_reference;
            prop_table_popcounts_vs_shift_loop;
            prop_hamming_vs_reference;
            prop_map2_vs_reference;
            prop_builder_vs_set;
            prop_blit_int_vs_sets;
            prop_append_sub_word_boundary;
            prop_column_vs_reference;
          ] );
    ]
