module Metrics = Telemetry.Metrics
module Tel = Telemetry.Registry

type t = {
  name : string;
  model : Model.t;
  ks : int array;
  encoded_region : image:int -> pc:int -> bool;
  mutable fetches : int;
  mutable branches : int;
  mutable baseline_trans : int;
  mutable prev_base : int;
  mutable prev_pc : int;
  mutable primed : bool;
  enc_trans : int array;
  tt_reads : int array;
  gate_toggles : int array;
  prev_enc : int array;
}

let create ~name ~model ~ks ~encoded_region =
  let n = Array.length ks in
  Metrics.incr Tel.ledger_meters;
  {
    name;
    model;
    ks = Array.copy ks;
    encoded_region;
    fetches = 0;
    branches = 0;
    baseline_trans = 0;
    prev_base = 0;
    prev_pc = min_int;
    primed = false;
    enc_trans = Array.make n 0;
    tt_reads = Array.make n 0;
    gate_toggles = Array.make n 0;
    prev_enc = Array.make n 0;
  }

let popcount32 = Bitutil.Popcount.count32

let record t ~pc ~baseline ~encoded =
  let n = Array.length t.ks in
  if Array.length encoded <> n then
    invalid_arg "Ledger.Meter.record: encoded word count <> ks";
  if (not t.primed) || pc <> t.prev_pc + 1 then t.branches <- t.branches + 1;
  let base_flips =
    if t.primed then popcount32 (baseline lxor t.prev_base) else 0
  in
  t.baseline_trans <- t.baseline_trans + base_flips;
  for v = 0 to n - 1 do
    let w = Array.unsafe_get encoded v in
    if t.primed then
      t.enc_trans.(v) <-
        t.enc_trans.(v) + popcount32 (w lxor Array.unsafe_get t.prev_enc v);
    Array.unsafe_set t.prev_enc v w;
    if t.encoded_region ~image:v ~pc then begin
      t.tt_reads.(v) <- t.tt_reads.(v) + 1;
      t.gate_toggles.(v) <- t.gate_toggles.(v) + base_flips
    end
  done;
  t.prev_base <- baseline;
  t.prev_pc <- pc;
  t.primed <- true;
  t.fetches <- t.fetches + 1

let record_pairs t ~first_pc ~pairs ~baseline ~encoded =
  let n = Array.length t.ks in
  if Array.length encoded <> n then
    invalid_arg "Ledger.Meter.record_pairs: encoded image count <> ks";
  if t.fetches > 0 then
    invalid_arg "Ledger.Meter.record_pairs: meter already fed";
  (* the first fetch primes: a BBIT probe, and a TT read inside a region *)
  if first_pc >= 0 then begin
    t.fetches <- 1;
    t.branches <- 1;
    for v = 0 to n - 1 do
      if t.encoded_region ~image:v ~pc:first_pc then
        t.tt_reads.(v) <- t.tt_reads.(v) + 1
    done
  end;
  pairs (fun ~src ~dst ~count ->
      t.fetches <- t.fetches + count;
      if dst <> src + 1 then t.branches <- t.branches + count;
      let base_flips = popcount32 (baseline.(src) lxor baseline.(dst)) in
      t.baseline_trans <- t.baseline_trans + (count * base_flips);
      for v = 0 to n - 1 do
        let image = encoded.(v) in
        t.enc_trans.(v) <-
          t.enc_trans.(v) + (count * popcount32 (image.(src) lxor image.(dst)));
        if t.encoded_region ~image:v ~pc:dst then begin
          t.tt_reads.(v) <- t.tt_reads.(v) + count;
          t.gate_toggles.(v) <- t.gate_toggles.(v) + (count * base_flips)
        end
      done)

let same_counts a b =
  a.fetches = b.fetches && a.branches = b.branches
  && a.baseline_trans = b.baseline_trans
  && a.enc_trans = b.enc_trans && a.tt_reads = b.tt_reads
  && a.gate_toggles = b.gate_toggles

let fetches t = t.fetches
let baseline_transitions t = t.baseline_trans
let encoded_transitions t i = t.enc_trans.(i)

let finalize t ~reprogram_writes =
  let n = Array.length t.ks in
  if Array.length reprogram_writes <> n then
    invalid_arg "Ledger.Meter.finalize: reprogram_writes length <> ks";
  Metrics.add Tel.ledger_fetches t.fetches;
  Metrics.add Tel.ledger_entries n;
  let m = t.model in
  let per_transition = Buspower.Energy.per_transition m.Model.bus in
  let entries =
    List.init n (fun v ->
        {
          Sheet.k = t.ks.(v);
          encoded_bus = { Sheet.count = t.enc_trans.(v); unit_j = per_transition };
          tt_reads = { Sheet.count = t.tt_reads.(v); unit_j = m.Model.tt_read_j };
          bbit_probes =
            { Sheet.count = t.branches; unit_j = m.Model.bbit_probe_j };
          gate_toggles =
            { Sheet.count = t.gate_toggles.(v); unit_j = m.Model.gate_toggle_j };
          reprogram_writes =
            { Sheet.count = reprogram_writes.(v); unit_j = m.Model.table_write_j };
        })
  in
  {
    Sheet.name = t.name;
    model = t.model;
    fetches = t.fetches;
    baseline_bus =
      { Sheet.count = t.baseline_trans; unit_j = per_transition };
    entries;
  }
