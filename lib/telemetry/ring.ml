type 'a t = {
  data : 'a array;
  cap : int;
  mutable next : int;
  mutable pushed : int;
}

let create ~capacity ~dummy =
  if capacity < 1 then invalid_arg "Telemetry.Ring.create: capacity < 1";
  { data = Array.make capacity dummy; cap = capacity; next = 0; pushed = 0 }

let push t x =
  Array.unsafe_set t.data t.next x;
  t.next <- (t.next + 1) mod t.cap;
  t.pushed <- t.pushed + 1

let length t = min t.pushed t.cap
let pushed t = t.pushed
let dropped t = max 0 (t.pushed - t.cap)
let capacity t = t.cap

let to_list t =
  let n = length t in
  let start = if t.pushed <= t.cap then 0 else t.next in
  List.init n (fun i -> t.data.((start + i) mod t.cap))

let clear t =
  t.next <- 0;
  t.pushed <- 0
