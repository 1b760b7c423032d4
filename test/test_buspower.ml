module Buscount = Buspower.Buscount
module Businvert = Buspower.Businvert
module T0 = Buspower.T0
module Energy = Buspower.Energy

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

(* ---- buscount -------------------------------------------------------------- *)

let test_buscount_basic () =
  let t = Buscount.create ~width:4 () in
  List.iter (Buscount.observe t) [ 0b0000; 0b1111; 0b1111; 0b0101 ];
  check_int "total" 6 (Buscount.total t);
  Alcotest.(check (array int)) "per line" [| 1; 2; 1; 2 |] (Buscount.per_line t);
  check_int "words" 4 (Buscount.words_observed t)

let test_buscount_single_word () =
  let t = Buscount.create () in
  Buscount.observe t 0xffffffff;
  check_int "first word free" 0 (Buscount.total t)

let test_buscount_reset () =
  let t = Buscount.create ~width:8 () in
  Buscount.observe t 0xff;
  Buscount.observe t 0x00;
  Buscount.reset t;
  check_int "cleared" 0 (Buscount.total t);
  Buscount.observe t 0xff;
  check_int "fresh history" 0 (Buscount.total t)

let test_buscount_width_check () =
  let t = Buscount.create ~width:4 () in
  Alcotest.check_raises "wide word"
    (Invalid_argument "Buscount.observe: word wider than bus") (fun () ->
      Buscount.observe t 16)

let test_count_stream_matches_bitmat () =
  let words = [| 0xdead; 0xbeef; 0x1234; 0xffff; 0x0001 |] in
  check_int "agree with Bitmat"
    (Bitutil.Bitmat.transitions (Bitutil.Bitmat.of_words ~width:16 words))
    (Buscount.count_stream ~width:16 words)

(* ---- bus-invert ------------------------------------------------------------- *)

let test_businvert_inverts_on_majority () =
  let t = Businvert.create ~width:8 () in
  let _ = Businvert.encode t 0x00 in
  (* 0xff differs in 8 > 4 lines: must invert *)
  let bus, inv = Businvert.encode t 0xff in
  check_bool "inverted" true inv;
  check_int "bus carries complement" 0x00 bus

let test_businvert_keeps_on_minority () =
  let t = Businvert.create ~width:8 () in
  let _ = Businvert.encode t 0x00 in
  let bus, inv = Businvert.encode t 0x01 in
  check_bool "not inverted" false inv;
  check_int "verbatim" 0x01 bus

let test_businvert_decode_roundtrip () =
  let t = Businvert.create ~width:8 () in
  let inputs = [ 0x00; 0xff; 0xa5; 0x5a; 0x0f; 0xf0; 0x33 ] in
  List.iter
    (fun w ->
      let coded = Businvert.encode t w in
      check_int "roundtrip" w (Businvert.decode ~width:8 coded))
    inputs

let test_businvert_halves_worst_case () =
  (* alternating 0x00/0xff: raw cost 8 per step; bus-invert pays only the
     invert line after the first flip *)
  let words = Array.init 20 (fun i -> if i land 1 = 0 then 0x00 else 0xff) in
  let raw = Buscount.count_stream ~width:8 words in
  let encoded = Businvert.count_stream ~width:8 words in
  check_int "raw cost" (19 * 8) raw;
  check_bool "encoded far cheaper" true (encoded <= 19)

let prop_businvert_per_step_bound =
  QCheck.Test.make ~name:"bus-invert: <= width/2 + 1 per step" ~count:300
    QCheck.(list_of_size Gen.(2 -- 30) (int_bound 0xff))
    (fun words ->
      let t = Businvert.create ~width:8 () in
      let previous = ref None in
      List.for_all
        (fun w ->
          let before = Businvert.transitions t in
          let _ = Businvert.encode t w in
          let after = Businvert.transitions t in
          let ok =
            match !previous with
            | None -> after = before
            | Some _ -> after - before <= (8 / 2) + 1
          in
          previous := Some w;
          ok)
        words)

let prop_businvert_roundtrip =
  QCheck.Test.make ~name:"bus-invert roundtrip" ~count:300
    QCheck.(list_of_size Gen.(1 -- 30) (int_bound 0xffff))
    (fun words ->
      let t = Businvert.create ~width:16 () in
      List.for_all
        (fun w -> Businvert.decode ~width:16 (Businvert.encode t w) = w)
        words)

(* ---- bus-invert from a pair profile --------------------------------------- *)

(* The pair-profile form of count_stream: each distinct consecutive pair
   of the walk counted once with its multiplicity, plus the ties the walk
   took while the invert line was high. *)
let pairs_plus_ties ~width words walk =
  let pairs = Hashtbl.create 16 in
  let line = ref false and ties = ref 0 in
  Array.iteri
    (fun i pc ->
      if i = 0 then line := Businvert.first_invert ~width words.(pc)
      else begin
        let src = walk.(i - 1) in
        let key = (src, pc) in
        Hashtbl.replace pairs key
          (1 + Option.value ~default:0 (Hashtbl.find_opt pairs key));
        match Businvert.line_step ~width words.(src) words.(pc) with
        | Keep -> ()
        | Toggle -> line := not !line
        | Tie ->
            if !line then incr ties;
            line := false
      end)
    walk;
  Hashtbl.fold
    (fun (src, dst) count acc ->
      acc + (count * Businvert.pair_cost ~width words.(src) words.(dst)))
    pairs !ties

let test_businvert_tie_while_high () =
  (* 0xff leaves the line high; 0xf0 is a tie (4 of 8 lines), paid 4 plus
     the line falling; 0x0f toggles it high again; 0x3c ties while high
     again; 0x0f ties while low, paying 4 and nothing more *)
  let words = [| 0xff; 0xf0; 0x0f; 0x3c; 0x0f |] in
  let walk = Array.init 5 Fun.id in
  check_bool "first word raises the line" true
    (Businvert.first_invert ~width:8 0xff);
  check_bool "0xff -> 0xf0 ties" true
    (Businvert.line_step ~width:8 0xff 0xf0 = Tie);
  check_int "tie costs its distance" 4 (Businvert.pair_cost ~width:8 0xff 0xf0);
  check_int "toggle costs the complement plus the line" 1
    (Businvert.pair_cost ~width:8 0xf0 0x0f);
  check_int "encoder" 15 (Businvert.count_stream ~width:8 words);
  check_int "pair sum 13 plus two ties" 15
    (pairs_plus_ties ~width:8 words walk)

(* Random word arrays and pc walks, biased towards what the tie term needs:
   a step that flips exactly half the lines, a first word with more than
   half its lines set, and sequential runs. *)
let walk_gen =
  let open QCheck.Gen in
  let* width = oneofl [ 8; 16; 32 ] in
  let mask = (1 lsl width) - 1 in
  let flip_exactly k =
    let+ lines = shuffle_l (List.init width Fun.id) in
    List.filteri (fun j _ -> j < k) lines
    |> List.fold_left (fun m i -> m lor (1 lsl i)) 0
  in
  let next_word prev =
    let* k = frequency [ (3, return (width / 2)); (2, int_bound width) ] in
    frequency
      [ (4, map (fun m -> prev lxor m) (flip_exactly k)); (1, int_bound mask) ]
  in
  let* first =
    frequency
      [
        (1, int_bound mask);
        (1, map (fun m -> mask lxor m) (flip_exactly (width / 4)));
      ]
  in
  let* n = int_range 1 10 in
  let rec words acc prev i =
    if i = n then return (Array.of_list (List.rev acc))
    else
      let* w = next_word prev in
      words (w :: acc) w (i + 1)
  in
  let* words = words [ first ] first 1 in
  let* len = int_range 1 60 in
  let rec walk acc pc i =
    if i = len then return (Array.of_list (List.rev acc))
    else
      let* next =
        frequency [ (3, return ((pc + 1) mod n)); (1, int_bound (n - 1)) ]
      in
      walk (next :: acc) next (i + 1)
  in
  let* start = frequency [ (1, return 0); (1, int_bound (n - 1)) ] in
  let+ walk = walk [ start ] start 1 in
  (width, words, walk)

let prop_businvert_pairs_plus_ties =
  QCheck.Test.make ~name:"bus-invert: pair sum + ties = stream"
    ~count:2000
    (QCheck.make
       ~print:(fun (width, words, walk) ->
         let show f a = String.concat "; " (Array.to_list (Array.map f a)) in
         Printf.sprintf "width %d words [%s] walk [%s]" width
           (show (Printf.sprintf "0x%x") words)
           (show string_of_int walk))
       walk_gen)
    (fun (width, words, walk) ->
      pairs_plus_ties ~width words walk
      = Businvert.count_stream ~width (Array.map (fun pc -> words.(pc)) walk))

(* ---- T0 ---------------------------------------------------------------------- *)

let test_t0_sequential_is_free () =
  (* one INC-line assertion at the start, then the whole run rides free *)
  let addrs = Array.init 100 (fun i -> i) in
  check_int "only the INC assert" 1 (T0.count_stream ~width:16 addrs)

let test_t0_branch_costs () =
  let t = T0.create ~width:16 () in
  T0.observe t 10;
  T0.observe t 11;
  (* sequential: INC goes high: 1 transition *)
  check_int "inc assert" 1 (T0.transitions t);
  T0.observe t 50;
  (* non-sequential: INC drops (1) + address lines change from the frozen
     bus value 10 (the lines never carried 11) to 50 *)
  let expected_addr_flips =
    let rec pop x acc = if x = 0 then acc else pop (x lsr 1) (acc + (x land 1)) in
    pop (10 lxor 50) 0
  in
  check_int "branch cost" (1 + 1 + expected_addr_flips) (T0.transitions t)

let test_t0_beats_raw_on_loops () =
  (* a loop fetch pattern: 100 iterations of addresses 20..29 *)
  let addrs =
    Array.init 1000 (fun i -> 20 + (i mod 10))
  in
  let raw = T0.raw_count_stream ~width:16 addrs in
  let t0 = T0.count_stream ~width:16 addrs in
  check_bool "t0 wins" true (t0 < raw)

(* T0's redundant-line semantics, pinned through the [encode] entry point:
   a sequential fetch freezes the address lines (the bus keeps its previous
   value) and asserts INC; anything else drives the raw address with INC
   deasserted.  The receiver-side reconstruction is exercised by the
   encoder-backend conformance suite. *)
let test_t0_inc_line_semantics () =
  let t = T0.create ~width:16 () in
  let bus0, inc0 = T0.encode t 40 in
  check_int "first word drives the address" 40 bus0;
  check_bool "first word cannot be sequential" false inc0;
  let bus1, inc1 = T0.encode t 41 in
  check_bool "sequential asserts INC" true inc1;
  check_int "lines frozen at the previous value" 40 bus1;
  let bus2, inc2 = T0.encode t 42 in
  check_bool "still sequential" true inc2;
  check_int "lines still frozen" 40 bus2;
  let bus3, inc3 = T0.encode t 7 in
  check_bool "branch deasserts INC" false inc3;
  check_int "branch drives the raw address" 7 bus3

let test_t0_stride_semantics () =
  (* byte-addressed bus: stride 4 defines "sequential" *)
  let t = T0.create ~width:16 ~stride:4 () in
  let _ = T0.encode t 100 in
  let _, inc_seq = T0.encode t 104 in
  check_bool "stride-4 step is sequential" true inc_seq;
  let _, inc_one = T0.encode t 105 in
  check_bool "stride-1 step is not" false inc_one

let test_t0_encode_matches_observe () =
  (* xorshift_stream lives below in the differential section *)
  let addrs =
    let st = ref 4242 in
    Array.init 300 (fun _ ->
        st := !st lxor (!st lsl 13);
        st := !st lxor (!st lsr 7);
        st := !st lxor (!st lsl 17);
        !st land 0xffff)
  in
  let by_observe = T0.count_stream ~width:16 addrs in
  let t = T0.create ~width:16 () in
  Array.iter (fun a -> ignore (T0.encode t a)) addrs;
  check_int "encode and observe share the accumulator" by_observe
    (T0.transitions t)

(* ---- gray ------------------------------------------------------------------------ *)

let test_gray_roundtrip () =
  for a = 0 to 1000 do
    check_int "roundtrip" a (Buspower.Gray.decode (Buspower.Gray.encode a))
  done

let test_gray_adjacent_one_bit () =
  for a = 0 to 500 do
    let d = Buspower.Gray.encode a lxor Buspower.Gray.encode (a + 1) in
    check_int "one bit" 0 (d land (d - 1))
  done

let test_gray_sequential_run_cost () =
  let addrs = Array.init 100 (fun i -> i) in
  check_int "one transition per step" 99
    (Buspower.Gray.count_stream ~width:16 addrs)

let prop_gray_injective =
  QCheck.Test.make ~name:"gray encode injective" ~count:300
    QCheck.(pair (int_bound 100000) (int_bound 100000))
    (fun (a, b) ->
      a = b || Buspower.Gray.encode a <> Buspower.Gray.encode b)

let prop_gray_roundtrip =
  QCheck.Test.make ~name:"gray roundtrip decode(encode a) = a" ~count:500
    QCheck.(int_bound 0x3fffffff)
    (fun a -> Buspower.Gray.decode (Buspower.Gray.encode a) = a)

let prop_gray_encode_roundtrip =
  (* the other direction: every word is some value's Gray code *)
  QCheck.Test.make ~name:"gray roundtrip encode(decode g) = g" ~count:500
    QCheck.(int_bound 0x3fffffff)
    (fun g -> Buspower.Gray.encode (Buspower.Gray.decode g) = g)

(* ---- width validation: the typed error, uniformly ---------------------------- *)

let out_of_range ~scheme ~width f =
  match f () with
  | exception Buspower.Width.Out_of_range r ->
      check_string (scheme ^ ": scheme field") scheme r.scheme;
      check_int (scheme ^ ": width field") width r.width
  | _ -> Alcotest.failf "%s: width %d accepted" scheme width

let test_width_bounds_uniform () =
  check_int "floor" 1 Buspower.Width.min_width;
  check_int "ceiling" 32 Buspower.Width.max_width;
  List.iter
    (fun width ->
      out_of_range ~scheme:"buscount" ~width (fun () ->
          Buscount.create ~width ());
      out_of_range ~scheme:"businvert" ~width (fun () ->
          Businvert.create ~width ());
      out_of_range ~scheme:"t0" ~width (fun () -> T0.create ~width ());
      out_of_range ~scheme:"gray" ~width (fun () ->
          Buspower.Gray.count_stream ~width [| 1; 2 |]))
    [ 0; -3; 33; 63 ]

let test_width_bounds_accept_edges () =
  (* both edges of the range must construct without raising *)
  List.iter
    (fun width ->
      ignore (Buscount.create ~width ());
      ignore (Businvert.create ~width ());
      ignore (T0.create ~width ());
      ignore (Buspower.Gray.count_stream ~width [| 0; 1 |]))
    [ Buspower.Width.min_width; Buspower.Width.max_width ]

(* ---- energy -------------------------------------------------------------------- *)

let test_energy_model () =
  let e = Energy.of_transitions Energy.on_chip 1000 in
  (* 0.5 * 0.5pF * 1.8^2 * 1000 = 0.81 nJ *)
  Alcotest.(check (float 1e-12)) "on chip" 0.81e-9 e;
  check_bool "off chip costlier" true
    (Energy.per_transition Energy.off_chip > Energy.per_transition Energy.on_chip)

let test_energy_pp () =
  let suffix j =
    let s = Format.asprintf "%a" Energy.pp_joules j in
    String.sub s (String.length s - 2) 2
  in
  check_string "810 pJ" "pJ" (suffix 0.81e-9);
  check_string "nJ" "nJ" (suffix 5.0e-9);
  check_string "mJ" "mJ" (suffix 2.0e-3);
  check_string "J" " J" (suffix 3.0)

(* Every suffix boundary, pinned verbatim: exact zero is dimensionless, each
   unit covers [1, 1000) of itself, sub-femtojoule magnitudes fall into fJ,
   and the sign rides along untouched. *)
let test_energy_pp_boundaries () =
  let pj j = Format.asprintf "%a" Energy.pp_joules j in
  check_string "exact zero" "0 J" (pj 0.0);
  check_string "below a femtojoule" "0.1 fJ" (pj 1e-16);
  check_string "fJ lower edge" "1 fJ" (pj 1e-15);
  check_string "gate-toggle preset" "5 fJ" (pj 5e-15);
  check_string "fJ upper edge" "999 fJ" (pj 9.99e-13);
  check_string "pJ lower edge" "1 pJ" (pj 1e-12);
  check_string "pJ upper range" "810 pJ" (pj 0.81e-9);
  check_string "nJ lower edge" "1 nJ" (pj 1e-9);
  check_string "uJ lower edge" "1 uJ" (pj 1e-6);
  check_string "mJ lower edge" "1 mJ" (pj 1e-3);
  check_string "J lower edge" "1 J" (pj 1.0);
  check_string "negative keeps sign" "-2.5 nJ" (pj (-2.5e-9))

(* ---- differential: count_stream vs brute-force per-word oracles -------------- *)

(* The oracles model the bus as a bool array per line and count flips by
   elementwise comparison — deliberately naive and structurally unlike the
   bit-twiddled accumulators they check. *)

let bits_of ~width w = Array.init width (fun i -> (w lsr i) land 1 = 1)

let flips a b =
  let n = ref 0 in
  Array.iteri (fun i x -> if x <> b.(i) then incr n) a;
  !n

let oracle_businvert ~width words =
  let prev_bus = ref (bits_of ~width 0) in
  let prev_inv = ref false in
  let started = ref false in
  let total = ref 0 in
  Array.iter
    (fun w ->
      let plain = bits_of ~width w in
      let invert = 2 * flips plain !prev_bus > width in
      let bus = if invert then Array.map not plain else plain in
      if !started then begin
        total := !total + flips bus !prev_bus;
        if invert <> !prev_inv then incr total
      end;
      prev_bus := bus;
      prev_inv := invert;
      started := true)
    words;
  !total

let oracle_t0 ~width addrs =
  let prev_addr = ref 0 in
  let prev_bus = ref (bits_of ~width 0) in
  let prev_inc = ref false in
  let started = ref false in
  let total = ref 0 in
  Array.iter
    (fun a ->
      if not !started then begin
        prev_addr := a;
        prev_bus := bits_of ~width a;
        prev_inc := false;
        started := true
      end
      else begin
        let sequential = a = !prev_addr + 1 in
        let bus = if sequential then !prev_bus else bits_of ~width a in
        total := !total + flips bus !prev_bus;
        if sequential <> !prev_inc then incr total;
        prev_addr := a;
        prev_bus := bus;
        prev_inc := sequential
      end)
    addrs;
  !total

let oracle_gray ~width addrs =
  (* reflected-Gray bit i is binary bit i xor binary bit i+1 *)
  let gray_bits a =
    Array.init width (fun i ->
        (a lsr i) land 1 <> (a lsr (i + 1)) land 1)
  in
  let total = ref 0 in
  Array.iteri
    (fun i a ->
      if i > 0 then total := !total + flips (gray_bits a) (gray_bits addrs.(i - 1)))
    addrs;
  !total

let xorshift_stream seed n mask =
  let st = ref seed in
  Array.init n (fun _ ->
      st := !st lxor (!st lsl 13);
      st := !st lxor (!st lsr 7);
      st := !st lxor (!st lsl 17);
      !st land mask)

let diff_streams width =
  let mask = (1 lsl width) - 1 in
  [
    ("sequential", Array.init 200 (fun i -> i land mask));
    ("loop 20..29", Array.init 300 (fun i -> 20 + (i mod 10)));
    ("constant", Array.make 50 (0x5a land mask));
    ("seeded 1", xorshift_stream 7919 250 mask);
    ("seeded 2", xorshift_stream 104729 250 mask);
    ("seeded 3", xorshift_stream 31337 250 mask);
  ]

let test_diff_businvert () =
  List.iter
    (fun width ->
      List.iter
        (fun (label, words) ->
          check_int
            (Printf.sprintf "businvert w=%d %s" width label)
            (oracle_businvert ~width words)
            (Businvert.count_stream ~width words))
        (diff_streams width))
    [ 8; 16 ]

let test_diff_t0 () =
  List.iter
    (fun width ->
      List.iter
        (fun (label, addrs) ->
          check_int
            (Printf.sprintf "t0 w=%d %s" width label)
            (oracle_t0 ~width addrs)
            (T0.count_stream ~width addrs))
        (diff_streams width))
    [ 8; 16 ]

let test_diff_gray () =
  List.iter
    (fun width ->
      List.iter
        (fun (label, addrs) ->
          check_int
            (Printf.sprintf "gray w=%d %s" width label)
            (oracle_gray ~width addrs)
            (Buspower.Gray.count_stream ~width addrs))
        (diff_streams width))
    (* Gray codes of width-w addresses stay within w bits, but give the bus
       one spare line anyway so the oracle's bit window always covers it *)
    [ 9; 17 ]

let () =
  Alcotest.run "buspower"
    [
      ( "buscount",
        [
          Alcotest.test_case "basic" `Quick test_buscount_basic;
          Alcotest.test_case "single word" `Quick test_buscount_single_word;
          Alcotest.test_case "reset" `Quick test_buscount_reset;
          Alcotest.test_case "width check" `Quick test_buscount_width_check;
          Alcotest.test_case "matches bitmat" `Quick
            test_count_stream_matches_bitmat;
        ] );
      ( "bus-invert",
        Alcotest.test_case "inverts on majority" `Quick
          test_businvert_inverts_on_majority
        :: Alcotest.test_case "keeps on minority" `Quick
             test_businvert_keeps_on_minority
        :: Alcotest.test_case "decode roundtrip" `Quick
             test_businvert_decode_roundtrip
        :: Alcotest.test_case "halves worst case" `Quick
             test_businvert_halves_worst_case
        :: List.map QCheck_alcotest.to_alcotest
             [
               prop_businvert_per_step_bound;
               prop_businvert_roundtrip;
               prop_businvert_pairs_plus_ties;
             ]
        @ [
            Alcotest.test_case "tie while the line is high" `Quick
              test_businvert_tie_while_high;
          ] );
      ( "t0",
        [
          Alcotest.test_case "sequential free" `Quick test_t0_sequential_is_free;
          Alcotest.test_case "branch costs" `Quick test_t0_branch_costs;
          Alcotest.test_case "beats raw on loops" `Quick
            test_t0_beats_raw_on_loops;
          Alcotest.test_case "INC line semantics" `Quick
            test_t0_inc_line_semantics;
          Alcotest.test_case "stride semantics" `Quick test_t0_stride_semantics;
          Alcotest.test_case "encode matches observe" `Quick
            test_t0_encode_matches_observe;
        ] );
      ( "gray",
        Alcotest.test_case "roundtrip" `Quick test_gray_roundtrip
        :: Alcotest.test_case "adjacent differ in one bit" `Quick
             test_gray_adjacent_one_bit
        :: Alcotest.test_case "sequential run cost" `Quick
             test_gray_sequential_run_cost
        :: List.map QCheck_alcotest.to_alcotest
             [ prop_gray_injective; prop_gray_roundtrip;
               prop_gray_encode_roundtrip ] );
      ( "width",
        [
          Alcotest.test_case "typed error, uniform bounds" `Quick
            test_width_bounds_uniform;
          Alcotest.test_case "range edges accepted" `Quick
            test_width_bounds_accept_edges;
        ] );
      ( "energy",
        [
          Alcotest.test_case "model" `Quick test_energy_model;
          Alcotest.test_case "pretty printing" `Quick test_energy_pp;
          Alcotest.test_case "pp_joules boundaries" `Quick
            test_energy_pp_boundaries;
        ] );
      ( "differential",
        [
          Alcotest.test_case "businvert vs oracle" `Quick test_diff_businvert;
          Alcotest.test_case "t0 vs oracle" `Quick test_diff_t0;
          Alcotest.test_case "gray vs oracle" `Quick test_diff_gray;
        ] );
    ]
