type entry = { tau_indices : int array; e_bit : bool; ct : int }

type t = {
  capacity : int;
  functions : Powercode.Boolfun.t array;
  slots : entry option array;
  (* one parity bit per slot, computed at write time; [corrupt] flips
     stored fields without refreshing it, exactly as an SEU would *)
  parities : int array;
  mutable writes : int;
  mutable version : int;
}

let int_parity v =
  let rec go v acc = if v = 0 then acc else go (v lsr 1) (acc lxor (v land 1)) in
  go v 0

let entry_parity e =
  let p = ref (if e.e_bit then 1 else 0) in
  p := !p lxor int_parity e.ct;
  Array.iter (fun i -> p := !p lxor int_parity i) e.tau_indices;
  !p

let create ?(capacity = 16) ?functions () =
  let functions =
    match functions with
    | Some fs -> fs
    | None -> Array.of_list (Powercode.Subset.paper_eight)
  in
  if capacity < 1 then invalid_arg "Tt.create: empty table";
  if
    not
      (Array.exists
         (fun f -> Powercode.Boolfun.equal f Powercode.Boolfun.identity)
         functions)
  then invalid_arg "Tt.create: identity gate is mandatory";
  {
    capacity;
    functions;
    slots = Array.make capacity None;
    parities = Array.make capacity 0;
    writes = 0;
    version = 0;
  }

let capacity t = t.capacity
let functions t = Array.copy t.functions

let fn_index_bits t =
  let n = Array.length t.functions in
  let rec bits v acc = if v <= 1 then acc else bits ((v + 1) / 2) (acc + 1) in
  max 1 (bits n 0)

let write t ~index entry =
  if index < 0 || index >= t.capacity then
    invalid_arg "Tt.write: index out of capacity";
  Array.iter
    (fun i ->
      if i < 0 || i >= Array.length t.functions then
        invalid_arg "Tt.write: function index out of range")
    entry.tau_indices;
  if entry.ct < 0 then invalid_arg "Tt.write: negative CT";
  t.slots.(index) <- Some entry;
  t.parities.(index) <- entry_parity entry;
  t.writes <- t.writes + 1;
  t.version <- t.version + 1;
  if Trace.Collector.enabled () then
    Trace.Collector.emit
      (Trace.Event.Tt_program { time = Trace.Collector.now (); index })

let read t index =
  if index < 0 || index >= t.capacity then
    invalid_arg "Tt.read: index out of capacity";
  match t.slots.(index) with
  | Some e -> e
  | None -> invalid_arg "Tt.read: entry never programmed"

let read_opt t index =
  if index < 0 || index >= t.capacity then None else t.slots.(index)

let parity_ok t index =
  if index < 0 || index >= t.capacity then true
  else
    match t.slots.(index) with
    | None -> true
    | Some e -> entry_parity e = t.parities.(index)

type upset = Tau of { line : int; bit : int } | E | Ct of { bit : int }

let corrupt t ~index upset =
  if index < 0 || index >= t.capacity then
    invalid_arg "Tt.corrupt: index out of capacity";
  match t.slots.(index) with
  | None -> invalid_arg "Tt.corrupt: entry never programmed"
  | Some e ->
      let e' =
        match upset with
        | Tau { line; bit } ->
            if line < 0 || line >= Array.length e.tau_indices then
              invalid_arg "Tt.corrupt: line out of bus width";
            if bit < 0 || bit >= fn_index_bits t then
              invalid_arg "Tt.corrupt: bit outside the stored index field";
            let taus = Array.copy e.tau_indices in
            taus.(line) <- taus.(line) lxor (1 lsl bit);
            { e with tau_indices = taus }
        | E -> { e with e_bit = not e.e_bit }
        | Ct { bit } ->
            if bit < 0 || bit > 29 then invalid_arg "Tt.corrupt: bad CT bit";
            { e with ct = e.ct lxor (1 lsl bit) }
      in
      (* the stored cell changed underneath the parity bit: no refresh *)
      t.slots.(index) <- Some e';
      t.version <- t.version + 1

let index_of_function t f =
  let found = ref (-1) in
  Array.iteri
    (fun i g -> if !found < 0 && Powercode.Boolfun.equal f g then found := i)
    t.functions;
  if !found < 0 then
    invalid_arg
      ("Tt.load: transformation " ^ Powercode.Boolfun.name f
     ^ " is not a supported decode gate");
  !found

let load t ~base entries =
  Array.iteri
    (fun j (e : Powercode.Program_encoder.tt_entry) ->
      let tau_indices = Array.map (index_of_function t) e.taus in
      write t ~index:(base + j)
        { tau_indices; e_bit = e.is_end; ct = e.count })
    entries

let tau t ~index ~line =
  let e = read t index in
  t.functions.(e.tau_indices.(line))

let writes_performed t = t.writes
let version t = t.version

let programmed t =
  let out = ref [] in
  Array.iteri
    (fun i slot -> match slot with Some e -> out := (i, e) :: !out | None -> ())
    t.slots;
  List.rev !out

let storage_bits t ~width ~ct_bits =
  t.capacity * ((width * fn_index_bits t) + 1 + ct_bits)
