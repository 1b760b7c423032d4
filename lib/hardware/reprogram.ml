module PE = Powercode.Program_encoder

type system = { tt : Tt.t; bbit : Bbit.t; image : int array; k : int }

exception Does_not_fit of string

(* The plan's encoded placements, once both tables are known to hold them. *)
let encoded_placements ~tt_capacity ~bbit_capacity (plan : PE.plan) =
  if plan.tt_used > tt_capacity then
    raise
      (Does_not_fit
         (Printf.sprintf "plan uses %d TT entries, hardware has %d"
            plan.tt_used tt_capacity));
  let encoded =
    List.filter_map
      (fun (p : PE.placement) -> Option.map (fun enc -> (p, enc)) p.encoding)
      plan.placements
  in
  let blocks = List.length encoded in
  if blocks > bbit_capacity then
    raise
      (Does_not_fit
         (Printf.sprintf "plan encodes %d blocks, BBIT has %d entries" blocks
            bbit_capacity));
  encoded

(* The program's words with each encoded placement patched in, and the
   table writes that program them: one TT write per entry and one BBIT
   write per block. *)
let patch program encoded =
  let image = Array.copy (Isa.Program.words program) in
  let writes =
    List.fold_left
      (fun writes ((p : PE.placement), (enc : PE.block_encoding)) ->
        let words = Bitutil.Bitmat.words enc.encoded in
        Array.blit words 0 image p.cand.start_index (Array.length words);
        writes + Array.length enc.entries)
      (List.length encoded) encoded
  in
  (image, writes)

let stored_image ?(tt_capacity = 16) ?(bbit_capacity = 16) program plan =
  patch program (encoded_placements ~tt_capacity ~bbit_capacity plan)

let build ?(tt_capacity = 16) ?(bbit_capacity = 16) ?functions program
    (plan : PE.plan) =
  let encoded = encoded_placements ~tt_capacity ~bbit_capacity plan in
  let image, _ = patch program encoded in
  let tt = Tt.create ~capacity:tt_capacity ?functions () in
  let bbit = Bbit.create ~capacity:bbit_capacity () in
  List.iter
    (fun ((p : PE.placement), (enc : PE.block_encoding)) ->
      Tt.load tt ~base:p.tt_base enc.entries)
    encoded;
  Bbit.load bbit
    (List.map
       (fun ((p : PE.placement), _) ->
         { Bbit.pc = p.cand.start_index; tt_base = p.tt_base })
       encoded);
  { tt; bbit; image; k = plan.config.k }

let decoder ?recovery system =
  Fetch_decoder.create ~tt:system.tt ~bbit:system.bbit ~k:system.k
    ~image:system.image ?recovery ()

(* Words covered by the TT chain starting at [tt_base]: the CT counts of
   the entries up to and including the E-delimited one (the head consumes
   one of the first entry's count, and every other fetch one more). *)
let region_length system ~tt_base =
  let rec go idx acc =
    let e = Tt.read system.tt idx in
    let acc = acc + e.Tt.ct in
    if e.Tt.e_bit then acc else go (idx + 1) acc
  in
  go tt_base 0

let recovery system =
  let regions =
    Array.of_list
      (List.map
         (fun (e : Bbit.entry) ->
           (e.Bbit.pc, region_length system ~tt_base:e.Bbit.tt_base))
         (Bbit.entries system.bbit))
  in
  (* The raw copy is the decode of the pristine image — an address-order
     walk, exactly what a firmware integrity pass would produce. *)
  let dec = decoder system in
  let raw =
    Array.init (Array.length system.image) (fun pc ->
        snd (Fetch_decoder.fetch dec ~pc))
  in
  { Fetch_decoder.raw; regions }

let programming_writes system =
  Tt.writes_performed system.tt + Bbit.writes_performed system.bbit
