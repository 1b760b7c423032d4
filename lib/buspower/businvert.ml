type t = {
  width : int;
  mask : int;
  mutable prev_bus : int;
  mutable prev_invert : bool;
  mutable started : bool;
  mutable total : int;
}

let create ?(width = 32) () =
  Width.check ~scheme:"businvert" width;
  {
    width;
    mask = (1 lsl width) - 1;
    prev_bus = 0;
    prev_invert = false;
    started = false;
    total = 0;
  }

(* widths never exceed Width.max_width = 32, so the shared 16-bit table
   covers every word *)
let popcount = Bitutil.Popcount.count32

let step t word =
  if word < 0 || word land lnot t.mask <> 0 then
    invalid_arg "Businvert.encode: word wider than bus";
  let flips = popcount (word lxor t.prev_bus) in
  let invert = 2 * flips > t.width in
  if t.started then begin
    (* the driven word differs from the previous bus in [flips] lines, or
       in the other [width - flips] when it is the complement *)
    t.total <- t.total + (if invert then t.width - flips else flips);
    if invert <> t.prev_invert then t.total <- t.total + 1
  end;
  t.prev_bus <- (if invert then lnot word land t.mask else word);
  t.prev_invert <- invert;
  t.started <- true

let encode t word =
  step t word;
  (t.prev_bus, t.prev_invert)

let decode ~width (bus, invert) =
  let mask = (1 lsl width) - 1 in
  if invert then lnot bus land mask else bus

let transitions t = t.total

let reset t =
  t.prev_bus <- 0;
  t.prev_invert <- false;
  t.started <- false;
  t.total <- 0

let count_stream ?width words =
  let t = create ?width () in
  Array.iter (step t) words;
  t.total
