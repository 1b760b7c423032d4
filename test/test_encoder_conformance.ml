(* Cross-backend conformance suite for Buspower.Encoder.

   One functor, applied to every registered backend, proves the shared
   laws: seeded round-trips (decode o encode = id across widths and
   lengths), streaming-vs-batch equivalence, reset/flush-reuse laws,
   ledger-cost conservation (per-step transition increments sum to the
   whole-stream count, and price identically through Ledger.Model), the
   word-at-a-time contract for latency-0 backends, and a
   sequential-vs-parallel differential over the domain pool.  Backends
   with an independent counting oracle (the pre-existing count_stream
   counters, or the per-line greedy chain for TT) additionally prove
   transition-count agreement.  A new backend is one functor application
   away from all of it. *)

module Encoder = Buspower.Encoder
module Width = Buspower.Width

let () = Powercode.Tt_backend.ensure ()

let check_int = Alcotest.(check int)

(* Deterministic stream generator shared with test_buspower's oracles. *)
let xorshift_stream seed n mask =
  let state = ref (if seed = 0 then 0x2545F491 else seed) in
  Array.init n (fun _ ->
      let x = !state in
      let x = x lxor (x lsl 13) in
      let x = x lxor (x lsr 7) in
      let x = x lxor (x lsl 17) in
      state := x land max_int;
      !state land mask)

let popcount x =
  let rec go x acc = if x = 0 then acc else go (x lsr 1) (acc + (x land 1)) in
  go x 0

(* Per-scheme independent transition oracles.  `Full counts data + aux
   lines, `Data counts data lines only (TT's aux is sideband state the
   stored-image hardware never drives). *)
type oracle = { kind : [ `Full | `Data ]; count : width:int -> int array -> int }

let tt_line_oracle ~width words =
  (* Greedy chain per bus line — the pipeline's own encoder — summed. *)
  let n = Array.length words in
  let total = ref 0 in
  for l = 0 to width - 1 do
    let b = Bitutil.Bitvec.Builder.create n in
    Array.iteri
      (fun i w -> Bitutil.Bitvec.Builder.set b i ((w lsr l) land 1 = 1))
      words;
    let line = Bitutil.Bitvec.Builder.freeze b in
    if n > 0 then begin
      let enc =
        Powercode.Chain.encode_greedy
          ~subset_mask:Powercode.Subset.paper_eight_mask ~k:5 line
      in
      total := !total + Bitutil.Bitvec.transitions enc.Powercode.Chain.code
    end
  done;
  !total

let lowweight_oracle ~width words =
  (* Naive re-encode: complement flag on majority weight, count data and
     flag lines with an explicit loop. *)
  let mask = (1 lsl width) - 1 in
  let total = ref 0 and prev = ref 0 and prevf = ref 0 and started = ref false in
  Array.iter
    (fun w ->
      let f = if 2 * popcount w > width then 1 else 0 in
      let d = if f = 1 then lnot w land mask else w in
      if !started then
        total := !total + popcount (d lxor !prev) + (f lxor !prevf);
      prev := d;
      prevf := f;
      started := true)
    words;
  !total

let ballcode_oracle ~width words =
  (* Independent table build: enumerate, List.sort by (weight, value). *)
  let n = 1 lsl width in
  let all = List.init (2 * n) (fun i -> i) in
  let sorted =
    List.sort
      (fun a b ->
        let c = compare (popcount a) (popcount b) in
        if c <> 0 then c else compare a b)
      all
  in
  let images = Array.of_list sorted in
  let wide = Array.map (fun w -> images.(w)) words in
  Buspower.Buscount.count_stream ~width:(min 32 (width + 1)) wide

let oracles : (string * oracle) list =
  [
    ( "identity",
      { kind = `Full; count = (fun ~width ws -> Buspower.Buscount.count_stream ~width ws) } );
    ( "businvert",
      { kind = `Full; count = (fun ~width ws -> Buspower.Businvert.count_stream ~width ws) } );
    ( "t0",
      { kind = `Full; count = (fun ~width ws -> Buspower.T0.count_stream ~width ws) } );
    ( "gray",
      { kind = `Full; count = (fun ~width ws -> Buspower.Gray.count_stream ~width ws) } );
    ("lowweight", { kind = `Full; count = lowweight_oracle });
    ("ballcode", { kind = `Full; count = ballcode_oracle });
    ("tt", { kind = `Data; count = tt_line_oracle });
  ]

let codeword = Alcotest.testable
    (fun ppf (cw : Encoder.codeword) ->
      Format.fprintf ppf "{data=%#x; aux=%#x}" cw.data cw.aux)
    (fun (a : Encoder.codeword) b -> a.data = b.data && a.aux = b.aux)

module Conformance (B : Buspower.Encoder.S) = struct
  let backend : Encoder.backend = (module B)

  let widths =
    List.filter
      (fun w -> w >= B.min_width && w <= B.max_width)
      [ 1; 2; 3; 5; 8; 12; 16; 20; 32 ]

  let lengths = [ 0; 1; 2; 3; 4; 5; 7; 13; 64; 200 ]

  let streams width =
    let mask = (1 lsl width) - 1 in
    List.concat_map
      (fun n ->
        [
          (Printf.sprintf "seq n=%d" n, Array.init n (fun i -> i land mask));
          ( Printf.sprintf "seeded n=%d" n,
            xorshift_stream ((7919 * n) + width) n mask );
        ])
      lengths
    @ [ ("constant", Array.make 40 (0x5a land mask)) ]

  let test_roundtrip () =
    List.iter
      (fun width ->
        List.iter
          (fun (label, words) ->
            let cws = Encoder.encode_stream backend ~width words in
            let back = Encoder.decode_stream backend ~width cws in
            Alcotest.(check (array int))
              (Printf.sprintf "%s w=%d %s" B.scheme width label)
              words back)
          (streams width))
      widths

  let qcheck_roundtrip =
    let gen =
      QCheck.Gen.(
        let* width = oneofl widths in
        let* n = int_bound 120 in
        let* words = list_size (return n) (int_bound (Width.mask width)) in
        return (width, Array.of_list words))
    in
    QCheck.Test.make ~count:60
      ~name:(Printf.sprintf "%s: qcheck round-trip" B.scheme)
      (QCheck.make gen)
      (fun (width, words) ->
        let cws = Encoder.encode_stream backend ~width words in
        Encoder.decode_stream backend ~width cws = words)

  (* Streaming-vs-batch: feeding one encoder the concatenation equals
     the batch helper; splitting decode at any point changes nothing. *)
  let test_streaming_equivalence () =
    List.iter
      (fun width ->
        let mask = Width.mask width in
        let words = xorshift_stream (97 + width) 90 mask in
        let batch = Encoder.encode_stream backend ~width words in
        let e = B.encoder ~width in
        let streamed = ref [] in
        Array.iter
          (fun w -> List.iter (fun c -> streamed := c :: !streamed) (B.encode e w))
          words;
        List.iter (fun c -> streamed := c :: !streamed) (B.flush e);
        Alcotest.(check (array codeword))
          (Printf.sprintf "%s w=%d streamed = batch" B.scheme width)
          batch
          (Array.of_list (List.rev !streamed));
        let d = B.decoder ~width in
        let out = ref [] in
        Array.iter
          (fun c -> List.iter (fun w -> out := w :: !out) (B.decode d c))
          batch;
        List.iter (fun w -> out := w :: !out) (B.flush_decoder d);
        Alcotest.(check (array int))
          (Printf.sprintf "%s w=%d incremental decode" B.scheme width)
          words
          (Array.of_list (List.rev !out)))
      widths

  (* Reset and flush leave encoder and decoder as new. *)
  let test_reset_laws () =
    List.iter
      (fun width ->
        let mask = Width.mask width in
        let a = xorshift_stream 11 40 mask in
        let b = xorshift_stream 13 40 mask in
        let run_enc e words =
          let out = ref [] in
          Array.iter
            (fun w -> List.iter (fun c -> out := c :: !out) (B.encode e w))
            words;
          List.iter (fun c -> out := c :: !out) (B.flush e);
          Array.of_list (List.rev !out)
        in
        let fresh = Encoder.encode_stream backend ~width b in
        let e = B.encoder ~width in
        Array.iter (fun w -> ignore (B.encode e w)) a;
        B.reset e;
        Alcotest.(check (array codeword))
          (Printf.sprintf "%s w=%d reset = fresh" B.scheme width)
          fresh (run_enc e b);
        (* flush already reset it: reuse without explicit reset *)
        Alcotest.(check (array codeword))
          (Printf.sprintf "%s w=%d flush leaves encoder fresh" B.scheme width)
          fresh (run_enc e b);
        let d = B.decoder ~width in
        Array.iter (fun c -> ignore (B.decode d c)) fresh;
        ignore (B.flush_decoder d);
        let out = ref [] in
        Array.iter
          (fun c -> List.iter (fun w -> out := w :: !out) (B.decode d c))
          fresh;
        List.iter (fun w -> out := w :: !out) (B.flush_decoder d);
        Alcotest.(check (array int))
          (Printf.sprintf "%s w=%d decoder reuse after flush" B.scheme width)
          b
          (Array.of_list (List.rev !out)))
      widths

  (* Ledger-cost conservation: per-step Hamming increments observed while
     streaming sum to the whole-stream count, and both price to the same
     energy through Ledger.Model. *)
  let test_cost_conservation () =
    List.iter
      (fun width ->
        let mask = Width.mask width in
        let words = xorshift_stream (29 + width) 150 mask in
        let cws = Encoder.encode_stream backend ~width words in
        let step_total = ref 0 and prev = ref None in
        Array.iter
          (fun (cw : Encoder.codeword) ->
            (match !prev with
            | None -> ()
            | Some (pd, pa) ->
                step_total :=
                  !step_total + popcount (cw.data lxor pd)
                  + popcount (cw.aux lxor pa));
            prev := Some (cw.data, cw.aux))
          cws;
        check_int
          (Printf.sprintf "%s w=%d step sum = stream total" B.scheme width)
          (Encoder.codeword_transitions cws)
          !step_total;
        check_int
          (Printf.sprintf "%s w=%d stream_transitions helper" B.scheme width)
          (Encoder.codeword_transitions cws)
          (Encoder.stream_transitions backend ~width words);
        let model = Ledger.Model.on_chip in
        let per_t = Buspower.Energy.per_transition model.Ledger.Model.bus in
        let whole = float_of_int !step_total *. per_t in
        let stepped =
          float_of_int (Encoder.codeword_transitions cws) *. per_t
        in
        Alcotest.(check (float 0.0))
          (Printf.sprintf "%s w=%d energy conserves" B.scheme width)
          whole stepped)
      widths

  (* [stream_transitions] against [codeword_transitions] of the encoded
     array, on the streams that priming and the flush tail decide alone:
     0, 1 and 2 words (a buffering backend such as TT emits all of these
     from [flush]).  A count that sums codewords as the encoder emits
     them must keep this contract. *)
  let test_short_stream_transitions () =
    List.iter
      (fun width ->
        let mask = Width.mask width in
        List.iter
          (fun words ->
            check_int
              (Printf.sprintf "%s w=%d %d-word stream_transitions" B.scheme
                 width (Array.length words))
              (Encoder.codeword_transitions
                 (Encoder.encode_stream backend ~width words))
              (Encoder.stream_transitions backend ~width words))
          [
            [||];
            [| mask |];
            [| 0; mask |];
            [| mask; mask |];
            xorshift_stream (41 + width) 2 mask;
          ])
      widths

  (* The static cost descriptor must be consistent with behaviour. *)
  let test_cost_descriptor () =
    List.iter
      (fun width ->
        let c = B.cost ~width in
        check_int
          (Printf.sprintf "%s w=%d extra_lines = aux_width" B.scheme width)
          (B.aux_width ~width) c.Encoder.extra_lines;
        let mask = Width.mask width in
        let words = xorshift_stream 5 60 mask in
        let cws = Encoder.encode_stream backend ~width words in
        check_int
          (Printf.sprintf "%s w=%d total codewords = total words" B.scheme width)
          (Array.length words) (Array.length cws);
        Array.iter
          (fun (cw : Encoder.codeword) ->
            if cw.data land lnot mask <> 0 then
              Alcotest.failf "%s w=%d: data outside bus" B.scheme width;
            if B.aux_width ~width < 62 && cw.aux lsr B.aux_width ~width <> 0
            then Alcotest.failf "%s w=%d: aux outside advertised lines" B.scheme width)
          cws;
        if c.Encoder.latency_words = 0 then begin
          (* word-at-a-time contract: one codeword per word, empty flush *)
          let e = B.encoder ~width in
          Array.iter
            (fun w ->
              match B.encode e w with
              | [ _ ] -> ()
              | l ->
                  Alcotest.failf "%s w=%d: latency 0 but %d codewords" B.scheme
                    width (List.length l))
            words;
          check_int
            (Printf.sprintf "%s w=%d latency-0 flush is empty" B.scheme width)
            0
            (List.length (B.flush e))
        end)
      widths

  (* Independent transition-count oracle, when one exists. *)
  let test_count_oracle () =
    match List.assoc_opt B.scheme oracles with
    | None -> ()
    | Some { kind; count } ->
        List.iter
          (fun width ->
            List.iter
              (fun (label, words) ->
                let cws = Encoder.encode_stream backend ~width words in
                let got =
                  match kind with
                  | `Full -> Encoder.codeword_transitions cws
                  | `Data -> Encoder.data_transitions cws
                in
                check_int
                  (Printf.sprintf "%s w=%d oracle %s" B.scheme width label)
                  (count ~width words) got)
              (streams width))
          widths

  (* Sequential vs parallel: one encoder per stream, fanned over the
     domain pool, must reproduce the sequential encode bit-for-bit (the
     backends share memoized tables across domains). *)
  let test_parallel_differential () =
    let width = min B.max_width 8 in
    let mask = Width.mask width in
    let streams =
      Array.init 16 (fun i -> xorshift_stream (1000 + i) 80 mask)
    in
    let sequential =
      Array.map (fun ws -> Encoder.encode_stream backend ~width ws) streams
    in
    let parallel =
      Powercode.Parpool.parallel_init (Array.length streams) (fun i ->
          Encoder.encode_stream backend ~width streams.(i))
    in
    Array.iteri
      (fun i seq ->
        Alcotest.(check (array codeword))
          (Printf.sprintf "%s stream %d" B.scheme i)
          seq parallel.(i);
        Alcotest.(check (array int))
          (Printf.sprintf "%s stream %d decodes" B.scheme i)
          streams.(i)
          (Encoder.decode_stream backend ~width parallel.(i)))
      sequential

  let tests =
    [
      Alcotest.test_case "round-trip (fixed streams)" `Quick test_roundtrip;
      QCheck_alcotest.to_alcotest qcheck_roundtrip;
      Alcotest.test_case "streaming = batch" `Quick test_streaming_equivalence;
      Alcotest.test_case "reset / flush-reuse laws" `Quick test_reset_laws;
      Alcotest.test_case "ledger-cost conservation" `Quick
        test_cost_conservation;
      Alcotest.test_case "short streams" `Quick test_short_stream_transitions;
      Alcotest.test_case "cost descriptor" `Quick test_cost_descriptor;
      Alcotest.test_case "count-oracle agreement" `Quick test_count_oracle;
      Alcotest.test_case "sequential vs parallel" `Quick
        test_parallel_differential;
    ]
end

(* Registry sanity: the built-ins plus TT are present, in deterministic
   registration order (the auto-selector's tie-break order). *)
let test_registry () =
  let names =
    List.map
      (fun b ->
        let module B = (val b : Encoder.S) in
        B.scheme)
      (Encoder.all ())
  in
  Alcotest.(check (list string))
    "registration order"
    [ "identity"; "businvert"; "t0"; "gray"; "lowweight"; "ballcode"; "tt" ]
    names;
  List.iter
    (fun n -> Alcotest.(check bool) n true (Encoder.find n <> None))
    names;
  Alcotest.(check bool) "unknown scheme" true (Encoder.find "nope" = None)

let backend_suites =
  List.map
    (fun b ->
      let module B = (val b : Encoder.S) in
      let module C = Conformance (B) in
      ("conformance:" ^ B.scheme, C.tests))
    (Encoder.all ())

let () =
  Alcotest.run "encoder-conformance"
    (("registry", [ Alcotest.test_case "registered backends" `Quick test_registry ])
    :: backend_suites)
