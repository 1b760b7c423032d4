type target =
  | Image_bit of { pc : int; bit : int }
  | Bus_glitch of { fetch : int; bit : int }
  | Tt_field of { index : int; upset : Hardware.Tt.upset }
  | Bbit_field of { slot : int; upset : Hardware.Bbit.upset }

type space = {
  image_len : int;
  regions : (int * int) array;
  tt_entries : int array;
  tt_index_bits : int;
  bbit_slots : int array;
  pc_bits : int;
  fetches : int;
}

let bits_for v =
  let rec go v acc = if v <= 1 then acc else go ((v + 1) / 2) (acc + 1) in
  max 1 (go v 0)

let space system ~regions ~fetches =
  let tt = system.Hardware.Reprogram.tt in
  let bbit = system.Hardware.Reprogram.bbit in
  {
    image_len = Array.length system.Hardware.Reprogram.image;
    regions;
    tt_entries =
      Array.of_list (List.map fst (Hardware.Tt.programmed tt));
    tt_index_bits = Hardware.Tt.fn_index_bits tt;
    bbit_slots =
      Array.of_list (List.map fst (Hardware.Bbit.programmed bbit));
    pc_bits = bits_for (Array.length system.Hardware.Reprogram.image);
    fetches;
  }

(* Uniform over the upset kinds that exist in this system, then uniform
   within the kind.  Image flips land inside an encoded region half the
   time (where the paper's mechanism is at stake) and anywhere in the
   stored image otherwise. *)
let sample rng s =
  let kinds =
    List.concat
      [
        (if s.image_len > 0 then [ `Image ] else []);
        (if s.fetches > 0 then [ `Bus ] else []);
        (if Array.length s.tt_entries > 0 then [ `Tt ] else []);
        (if Array.length s.bbit_slots > 0 then [ `Bbit ] else []);
      ]
  in
  if kinds = [] then invalid_arg "Fault.Model.sample: empty injection space";
  match List.nth kinds (Random.State.int rng (List.length kinds)) with
  | `Image ->
      let pc =
        if Array.length s.regions > 0 && Random.State.bool rng then begin
          let start, len =
            s.regions.(Random.State.int rng (Array.length s.regions))
          in
          start + Random.State.int rng (max 1 len)
        end
        else Random.State.int rng s.image_len
      in
      Image_bit { pc; bit = Random.State.int rng 32 }
  | `Bus ->
      Bus_glitch
        {
          fetch = Random.State.int rng s.fetches;
          bit = Random.State.int rng 32;
        }
  | `Tt -> (
      let index =
        s.tt_entries.(Random.State.int rng (Array.length s.tt_entries))
      in
      (* tau indices dominate the entry's storage (32 lines x index bits
         vs 1 + ct bits), so they take most of the strikes *)
      match Random.State.int rng 8 with
      | 6 -> Tt_field { index; upset = Hardware.Tt.E }
      | 7 ->
          Tt_field
            { index; upset = Hardware.Tt.Ct { bit = Random.State.int rng 3 } }
      | _ ->
          Tt_field
            {
              index;
              upset =
                Hardware.Tt.Tau
                  {
                    line = Random.State.int rng 32;
                    bit = Random.State.int rng s.tt_index_bits;
                  };
            })
  | `Bbit ->
      let slot =
        s.bbit_slots.(Random.State.int rng (Array.length s.bbit_slots))
      in
      let upset =
        if Random.State.bool rng then
          Hardware.Bbit.Pc { bit = Random.State.int rng s.pc_bits }
        else Hardware.Bbit.Base { bit = Random.State.int rng 4 }
      in
      Bbit_field { slot; upset }

let label = function
  | Image_bit { pc; bit } -> Printf.sprintf "image:%d:%d" pc bit
  | Bus_glitch { fetch; bit } -> Printf.sprintf "bus:%d:%d" fetch bit
  | Tt_field { index; upset } -> (
      match upset with
      | Hardware.Tt.Tau { line; bit } ->
          Printf.sprintf "tt:%d:tau:%d:%d" index line bit
      | Hardware.Tt.E -> Printf.sprintf "tt:%d:e" index
      | Hardware.Tt.Ct { bit } -> Printf.sprintf "tt:%d:ct:%d" index bit)
  | Bbit_field { slot; upset } -> (
      match upset with
      | Hardware.Bbit.Pc { bit } -> Printf.sprintf "bbit:%d:pc:%d" slot bit
      | Hardware.Bbit.Base { bit } ->
          Printf.sprintf "bbit:%d:base:%d" slot bit)

let apply system target =
  Telemetry.Metrics.incr Telemetry.Registry.fault_injections;
  match target with
  | Image_bit { pc; bit } ->
      let image = system.Hardware.Reprogram.image in
      if pc < 0 || pc >= Array.length image then
        invalid_arg "Fault.Model.apply: image pc out of range";
      image.(pc) <- image.(pc) lxor (1 lsl bit)
  | Bus_glitch _ ->
      (* transient: nothing stored changes; the campaign splices the flip
         into the delivered fetch stream at the named dynamic fetch *)
      ()
  | Tt_field { index; upset } ->
      Hardware.Tt.corrupt system.Hardware.Reprogram.tt ~index upset
  | Bbit_field { slot; upset } ->
      Hardware.Bbit.corrupt system.Hardware.Reprogram.bbit ~slot upset
