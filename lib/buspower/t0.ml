type t = {
  width : int;
  mask : int;
  stride : int;
  mutable prev_addr : int;  (* last address value (decoded) *)
  mutable prev_bus : int;  (* last value actually driven on address lines *)
  mutable prev_inc : bool;
  mutable started : bool;
  mutable total : int;
}

let create ?(width = 32) ?(stride = 1) () =
  Width.check ~scheme:"t0" width;
  if stride <= 0 then invalid_arg "T0.create: bad stride";
  {
    width;
    mask = (1 lsl width) - 1;
    stride;
    prev_addr = 0;
    prev_bus = 0;
    prev_inc = false;
    started = false;
    total = 0;
  }

let encode t address =
  if address < 0 || address land lnot t.mask <> 0 then
    invalid_arg "T0.observe: address wider than bus";
  if not t.started then begin
    t.prev_addr <- address;
    t.prev_bus <- address;
    t.prev_inc <- false;
    t.started <- true;
    (address, false)
  end
  else begin
    let sequential = address = t.prev_addr + t.stride in
    let bus = if sequential then t.prev_bus else address in
    let inc = sequential in
    t.total <- t.total + Bitutil.Popcount.count32 (bus lxor t.prev_bus);
    if inc <> t.prev_inc then t.total <- t.total + 1;
    t.prev_addr <- address;
    t.prev_bus <- bus;
    t.prev_inc <- inc;
    (bus, inc)
  end

let observe t address = ignore (encode t address)
let transitions t = t.total

let reset t =
  t.prev_addr <- 0;
  t.prev_bus <- 0;
  t.prev_inc <- false;
  t.started <- false;
  t.total <- 0

let count_stream ?width ?stride addresses =
  let t = create ?width ?stride () in
  Array.iter (observe t) addresses;
  t.total

let raw_count_stream ?width addresses =
  Buscount.count_stream ?width addresses
