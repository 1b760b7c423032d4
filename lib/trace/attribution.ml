type t = {
  labels : string array;
  block_of_pc : int -> int;
  block_starts : int array;
  line_baseline : int array;
  line_encoded : int array array;
  block_baseline : int array;
  block_encoded : int array array;
  mutable prev_base : int;
  mutable primed : bool;
  prev_enc : int array;
  enc_primed : bool array;
  mutable fetches : int;
}

type summary = {
  labels : string array;
  fetches : int;
  line_baseline : int array;
  line_encoded : int array array;
  total_baseline : int;
  total_encoded : int array;
  block_starts : int array;
  block_baseline : int array;
  block_encoded : int array array;
}

let create ~labels ~block_starts ~block_of_pc =
  let n = Array.length labels in
  let nb = Array.length block_starts in
  {
    labels = Array.copy labels;
    block_of_pc;
    block_starts = Array.copy block_starts;
    line_baseline = Array.make 32 0;
    line_encoded = Array.init n (fun _ -> Array.make 32 0);
    block_baseline = Array.make nb 0;
    block_encoded = Array.init n (fun _ -> Array.make nb 0);
    prev_base = 0;
    primed = false;
    prev_enc = Array.make n 0;
    enc_primed = Array.make n false;
    fetches = 0;
  }

(* [count] occurrences of the step [prev] -> [cur]: the block gains [count]
   per toggled line, and only the lines that toggle are visited *)
let account ~count ~lines ~blocks ~blk ~prev ~cur =
  let d = (prev lxor cur) land 0xffffffff in
  if d <> 0 then begin
    if blk >= 0 && blk < Array.length blocks then
      blocks.(blk) <- blocks.(blk) + (count * Bitutil.Popcount.count32 d);
    Bitutil.Popcount.add_at_set_bits lines ~by:count d
  end

let record (t : t) ~pc ~baseline ~encoded =
  if Array.length encoded <> Array.length t.labels then
    invalid_arg "Trace.Attribution.record: encoded word count <> labels";
  let blk = t.block_of_pc pc in
  if t.primed then
    account ~count:1 ~lines:t.line_baseline ~blocks:t.block_baseline ~blk
      ~prev:t.prev_base ~cur:baseline;
  t.prev_base <- baseline;
  t.primed <- true;
  for i = 0 to Array.length encoded - 1 do
    let w = encoded.(i) in
    if t.enc_primed.(i) then
      account ~count:1 ~lines:t.line_encoded.(i) ~blocks:t.block_encoded.(i)
        ~blk ~prev:t.prev_enc.(i) ~cur:w;
    t.prev_enc.(i) <- w;
    t.enc_primed.(i) <- true
  done;
  t.fetches <- t.fetches + 1

let record_pairs (t : t) ~first_pc ~pairs ~baseline ~encoded =
  if Array.length encoded <> Array.length t.labels then
    invalid_arg "Trace.Attribution.record_pairs: encoded image count <> labels";
  if t.fetches > 0 then
    invalid_arg "Trace.Attribution.record_pairs: accumulator already fed";
  if first_pc >= 0 then t.fetches <- 1;
  pairs (fun ~src ~dst ~count ->
      let blk = t.block_of_pc dst in
      account ~count ~lines:t.line_baseline ~blocks:t.block_baseline ~blk
        ~prev:baseline.(src) ~cur:baseline.(dst);
      Array.iteri
        (fun i image ->
          account ~count ~lines:t.line_encoded.(i) ~blocks:t.block_encoded.(i)
            ~blk ~prev:image.(src) ~cur:image.(dst))
        encoded;
      t.fetches <- t.fetches + count)

let sum = Array.fold_left ( + ) 0

let summarize (t : t) =
  {
    labels = Array.copy t.labels;
    fetches = t.fetches;
    line_baseline = Array.copy t.line_baseline;
    line_encoded = Array.map Array.copy t.line_encoded;
    total_baseline = sum t.line_baseline;
    total_encoded = Array.map sum t.line_encoded;
    block_starts = Array.copy t.block_starts;
    block_baseline = Array.copy t.block_baseline;
    block_encoded = Array.map Array.copy t.block_encoded;
  }

let pp_text ?(max_blocks = 16) fmt (s : summary) =
  let n = Array.length s.labels in
  let open Format in
  fprintf fmt "@[<v>";
  fprintf fmt "per-bitline bus transitions (%d fetches)@," s.fetches;
  fprintf fmt "%6s %12s" "line" "baseline";
  Array.iter (fun l -> fprintf fmt " %12s" l) s.labels;
  fprintf fmt "@,";
  for line = 0 to 31 do
    fprintf fmt "%6d %12d" line s.line_baseline.(line);
    for i = 0 to n - 1 do
      fprintf fmt " %12d" s.line_encoded.(i).(line)
    done;
    fprintf fmt "@,"
  done;
  fprintf fmt "%6s %12d" "total" s.total_baseline;
  Array.iter (fun t -> fprintf fmt " %12d" t) s.total_encoded;
  fprintf fmt "@,";
  fprintf fmt "%6s %12s" "" "";
  Array.iter
    (fun t ->
      let pct =
        if s.total_baseline = 0 then 0.
        else
          100.
          *. (float_of_int (s.total_baseline - t) /. float_of_int s.total_baseline)
      in
      fprintf fmt " %11.2f%%" pct)
    s.total_encoded;
  fprintf fmt "  (saved)@,";
  let nb = Array.length s.block_starts in
  if nb > 0 then begin
    fprintf fmt "@,per-block bus transitions (largest first)@,";
    fprintf fmt "%6s %10s %12s" "block" "start" "baseline";
    Array.iter (fun l -> fprintf fmt " %12s" l) s.labels;
    fprintf fmt "@,";
    let order = Array.init nb (fun b -> b) in
    Array.sort
      (fun a b -> compare (s.block_baseline.(b), a) (s.block_baseline.(a), b))
      order;
    let shown = min nb max_blocks in
    for r = 0 to shown - 1 do
      let b = order.(r) in
      fprintf fmt "%6d %10d %12d" b s.block_starts.(b) s.block_baseline.(b);
      for i = 0 to n - 1 do
        fprintf fmt " %12d" s.block_encoded.(i).(b)
      done;
      fprintf fmt "@,"
    done;
    if nb > shown then fprintf fmt "  ... %d more blocks@," (nb - shown)
  end;
  fprintf fmt "@]"

let to_json ?name (s : summary) =
  let b = Buffer.create 4096 in
  let p fmt = Printf.bprintf b fmt in
  let esc = Telemetry.Json.escape in
  p "{";
  (match name with Some n -> p "\"name\": \"%s\", " (esc n) | None -> ());
  p "\"fetches\": %d, \"labels\": [" s.fetches;
  Array.iteri
    (fun i l -> p "%s\"%s\"" (if i > 0 then ", " else "") (esc l))
    s.labels;
  p "], \"totals\": {\"baseline\": %d" s.total_baseline;
  Array.iteri
    (fun i l -> p ", \"%s\": %d" (esc l) s.total_encoded.(i))
    s.labels;
  p "}, \"per_line\": [";
  for line = 0 to 31 do
    if line > 0 then p ", ";
    p "{\"line\": %d, \"baseline\": %d" line s.line_baseline.(line);
    Array.iteri
      (fun i l -> p ", \"%s\": %d" (esc l) s.line_encoded.(i).(line))
      s.labels;
    p "}"
  done;
  p "], \"per_block\": [";
  Array.iteri
    (fun blk start ->
      if blk > 0 then p ", ";
      p "{\"block\": %d, \"start_pc\": %d, \"baseline\": %d" blk start
        s.block_baseline.(blk);
      Array.iteri
        (fun i l -> p ", \"%s\": %d" (esc l) s.block_encoded.(i).(blk))
        s.labels;
      p "}")
    s.block_starts;
  p "]}";
  Buffer.contents b
