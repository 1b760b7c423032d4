exception Parse_error of string

let fail message = raise (Parse_error message)

let to_string (system : Reprogram.system) =
  let b = Buffer.create 4096 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string b (s ^ "\n")) fmt in
  line "POWERCODE-FIRMWARE v1";
  line "k %d" system.Reprogram.k;
  let functions = Tt.functions system.Reprogram.tt in
  line "functions %d" (Array.length functions);
  Array.iter
    (fun f -> line "%d" (Powercode.Boolfun.index f))
    functions;
  line "image %d" (Array.length system.Reprogram.image);
  Array.iter (fun w -> line "%08x" w) system.Reprogram.image;
  let entries = Tt.programmed system.Reprogram.tt in
  line "tt %d" (List.length entries);
  List.iter
    (fun (index, (e : Tt.entry)) ->
      let taus =
        String.concat ""
          (Array.to_list (Array.map (Printf.sprintf "%x") e.Tt.tau_indices))
      in
      line "%d %d %d %s" index (if e.Tt.e_bit then 1 else 0) e.Tt.ct taus)
    entries;
  let bbit_entries = Bbit.entries system.Reprogram.bbit in
  line "bbit %d" (List.length bbit_entries);
  List.iter
    (fun (e : Bbit.entry) -> line "%d %d" e.Bbit.pc e.Bbit.tt_base)
    bbit_entries;
  line "end";
  Buffer.contents b

type cursor = { mutable lines : string list; mutable lineno : int }

let next cur =
  match cur.lines with
  | [] -> fail "unexpected end of file"
  | l :: rest ->
      cur.lines <- rest;
      cur.lineno <- cur.lineno + 1;
      String.trim l

let error cur fmt =
  Printf.ksprintf (fun m -> fail (Printf.sprintf "line %d: %s" cur.lineno m)) fmt

let expect_kv cur key =
  let l = next cur in
  match String.split_on_char ' ' l with
  | [ k; v ] when k = key -> (
      match int_of_string_opt v with
      | Some n -> n
      | None -> error cur "bad %s count" key)
  | _ -> error cur "expected '%s <n>'" key

(* a section's count, checked against the lines left before anything is
   allocated for it *)
let expect_count cur key =
  let n = expect_kv cur key in
  if n < 0 || n > List.length cur.lines then
    error cur "%s count %d is not in 0..%d, the lines left" key n
      (List.length cur.lines);
  n

(* the table layer's own checks, reported on the line being read *)
let checked cur f = try f () with Invalid_argument m -> error cur "%s" m

let of_string text =
  let cur =
    { lines = String.split_on_char '\n' text; lineno = 0 }
  in
  if next cur <> "POWERCODE-FIRMWARE v1" then fail "bad magic";
  let k = expect_kv cur "k" in
  if k < 2 then error cur "block size %d below 2" k;
  let nfn = expect_count cur "functions" in
  let functions =
    Array.init nfn (fun _ ->
        match int_of_string_opt (next cur) with
        | Some i when i >= 0 && i <= 15 -> Powercode.Boolfun.of_index i
        | Some _ | None -> error cur "bad function index")
  in
  let nimg = expect_count cur "image" in
  let image =
    Array.init nimg (fun _ ->
        match int_of_string_opt ("0x" ^ next cur) with
        | Some w when w >= 0 && w <= 0xffffffff -> w
        | Some _ | None -> error cur "bad image word")
  in
  let ntt = expect_count cur "tt" in
  let tt =
    checked cur (fun () -> Tt.create ~capacity:(max 16 ntt) ~functions ())
  in
  for _ = 1 to ntt do
    let l = next cur in
    match String.split_on_char ' ' l with
    | [ index; e; ct; taus ] when String.length taus = 32 ->
        let tau_indices =
          Array.init 32 (fun i ->
              match int_of_string_opt (Printf.sprintf "0x%c" taus.[i]) with
              | Some v -> v
              | None -> error cur "bad gate index")
        in
        let get name v =
          match int_of_string_opt v with
          | Some n -> n
          | None -> error cur "bad %s" name
        in
        let entry =
          { Tt.tau_indices; e_bit = get "E" e = 1; ct = get "CT" ct }
        in
        checked cur (fun () -> Tt.write tt ~index:(get "index" index) entry)
    | _ -> error cur "bad tt entry"
  done;
  let nbb = expect_count cur "bbit" in
  let bbit = Bbit.create ~capacity:(max 16 nbb) () in
  for slot = 0 to nbb - 1 do
    let l = next cur in
    match String.split_on_char ' ' l with
    | [ pc; base ] -> (
        match (int_of_string_opt pc, int_of_string_opt base) with
        | Some pc, Some tt_base ->
            if Tt.read_opt tt tt_base = None then
              error cur "BBIT base %d has no TT entry" tt_base;
            checked cur (fun () -> Bbit.write bbit ~slot { Bbit.pc; tt_base })
        | _ -> error cur "bad bbit entry")
    | _ -> error cur "bad bbit entry"
  done;
  if next cur <> "end" then fail "missing end marker";
  { Reprogram.tt; bbit; image; k }

let restore_program (system : Reprogram.system) =
  let decoder = Fetch_decoder.create ~tt:system.Reprogram.tt
      ~bbit:system.Reprogram.bbit ~k:system.Reprogram.k
      ~image:system.Reprogram.image ()
  in
  (* Walk the image in address order.  Encoded regions start at BBIT PCs
     and the decoder's E/CT sequencing ends them; everything else passes
     through.  Sequential order is exactly what the decoder expects within
     a region, and bypass fetches do not disturb its state. *)
  let n = Array.length system.Reprogram.image in
  let words =
    Array.init n (fun pc ->
        let _bus, decoded = Fetch_decoder.fetch decoder ~pc in
        decoded)
  in
  Isa.Program.of_insns (Isa.Word.decode_program words)
