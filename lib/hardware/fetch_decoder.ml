(* Firmware-known recovery metadata: the original (un-encoded) program
   words and, per BBIT slot, the extent of the encoded region that slot's
   entry activates.  With it the decoder can degrade gracefully: a region
   whose table state fails parity is served raw through identity gates —
   trading the region's power savings for architecturally-correct fetches. *)
type recovery = { raw : int array; regions : (int * int) array }

(* One TT entry lowered for the fetch path.  The 32 per-line gates become
   four minterm masks: line [l] is set in [m_xy] when its gate outputs 1 at
   stored bit [x] and history bit [y], so a decode is four word-wide ANDs
   ORed together.  An entry the gates cannot decode keeps the reason, so
   the fault is raised at decode time exactly as a line-by-line walk would
   raise it. *)
type lowering =
  | Gates of { m00 : int; m01 : int; m10 : int; m11 : int }
  | Bad_gate  (* a line's index addresses no gate *)
  | Narrow  (* [tau_indices] is shorter than the bus *)

type compiled = { entry : Tt.entry; parity_ok : bool; lowering : lowering }

(* The BBIT's associative match at one pc, [(slot, entry)] on a hit. *)
type probe = Unprobed | Probed of (int * Bbit.entry) option

type t = {
  tt : Tt.t;
  bbit : Bbit.t;
  k : int;
  image : int array;
  width : int;
  (* the TT's gate set; fixed when the table is created *)
  gates : Powercode.Boolfun.t array;
  recovery : recovery option;
  (* per BBIT slot: true once the slot's region fell back to identity *)
  degraded : bool array;
  mutable degraded_count : int;
  (* per TT index, filled on first read; valid while [Tt.version] equals
     [tt_version] *)
  compiled : compiled option array;
  mutable tt_version : int;
  (* per image pc, filled on first fetch; valid while [Bbit.version]
     equals [bbit_version] *)
  probes : probe array;
  mutable bbit_version : int;
  mutable tt_detections : int;
  mutable bbit_detections : int;
  mutable fallbacks : int;
  mutable scrub_version : int;
  (* sequencing state *)
  mutable is_active : bool;
  mutable current_slot : int;
  mutable entry_idx : int;
  mutable decodes_left : int;
  mutable first_of_entry : bool;
  mutable expected_pc : int;
  (* per-line history registers, packed as words *)
  mutable prev_stored : int;
  mutable prev_decoded : int;
}

(* Internal unwind: a parity detection mid-fetch degraded the current
   region; the catcher serves the fetch from the raw copy. *)
exception Degraded_region

let fault c = raise (Machine.Fault.Fault c)

let create ~tt ~bbit ~k ~image ?recovery () =
  if k < 2 then invalid_arg "Fetch_decoder.create: k < 2";
  (match recovery with
  | Some r when Array.length r.raw <> Array.length image ->
      invalid_arg "Fetch_decoder.create: raw/image length mismatch"
  | _ -> ());
  {
    tt;
    bbit;
    k;
    image;
    width = 32;
    gates = Tt.functions tt;
    recovery;
    degraded = Array.make (Bbit.capacity bbit) false;
    degraded_count = 0;
    compiled = Array.make (Tt.capacity tt) None;
    tt_version = Tt.version tt;
    probes = Array.make (Array.length image) Unprobed;
    bbit_version = Bbit.version bbit;
    tt_detections = 0;
    bbit_detections = 0;
    fallbacks = 0;
    scrub_version = -1;
    is_active = false;
    current_slot = -1;
    entry_idx = 0;
    decodes_left = 0;
    first_of_entry = false;
    expected_pc = -1;
    prev_stored = 0;
    prev_decoded = 0;
  }

let deactivate t =
  t.is_active <- false;
  t.current_slot <- -1;
  t.entry_idx <- 0;
  t.decodes_left <- 0;
  t.first_of_entry <- false;
  t.expected_pc <- -1

let reset t = deactivate t
let active t = t.is_active
let tt_detections t = t.tt_detections
let bbit_detections t = t.bbit_detections
let fallback_fetches t = t.fallbacks

let degraded_slots t =
  let out = ref [] in
  Array.iteri (fun slot d -> if d then out := slot :: !out) t.degraded;
  List.rev !out

let region_start t slot =
  match t.recovery with
  | Some r when slot >= 0 && slot < Array.length r.regions ->
      fst r.regions.(slot)
  | _ -> -1

let degrade t slot =
  if slot >= 0 && slot < Array.length t.degraded && not t.degraded.(slot) then begin
    t.degraded.(slot) <- true;
    t.degraded_count <- t.degraded_count + 1;
    if Trace.Collector.enabled () then
      Trace.Collector.emit
        (Trace.Event.Fault_fallback
           { time = Trace.Collector.now (); pc = region_start t slot });
    if t.current_slot = slot then deactivate t
  end

let detect_tt t index =
  t.tt_detections <- t.tt_detections + 1;
  Telemetry.Metrics.incr Telemetry.Registry.fault_tt_parity;
  if Trace.Collector.enabled () then
    Trace.Collector.emit
      (Trace.Event.Fault_detect
         { time = Trace.Collector.now (); where = "tt"; index })

let detect_bbit t slot =
  t.bbit_detections <- t.bbit_detections + 1;
  Telemetry.Metrics.incr Telemetry.Registry.fault_bbit_parity;
  if Trace.Collector.enabled () then
    Trace.Collector.emit
      (Trace.Event.Fault_detect
         { time = Trace.Collector.now (); where = "bbit"; index = slot })

let lower t (entry : Tt.entry) =
  let taus = entry.Tt.tau_indices in
  let lines = min (Array.length taus) t.width in
  let ngates = Array.length t.gates in
  let rec go line m00 m01 m10 m11 =
    if line = lines then
      if lines < t.width then Narrow else Gates { m00; m01; m10; m11 }
    else
      let gi = taus.(line) in
      if gi < 0 || gi >= ngates then Bad_gate
      else
        (* truth-table bit [2x + y] is the gate's value at (x, y) *)
        let truth = Powercode.Boolfun.index t.gates.(gi) and b = 1 lsl line in
        let on i m = if truth land (1 lsl i) <> 0 then m lor b else m in
        go (line + 1) (on 0 m00) (on 1 m01) (on 2 m10) (on 3 m11)
  in
  go 0 0 0 0 0

(* The compiled entry at [index], or [None] when no entry is readable
   there.  Any TT write or upset since the last read drops the cache. *)
let compiled_entry t index =
  let v = Tt.version t.tt in
  if v <> t.tt_version then begin
    Array.fill t.compiled 0 (Array.length t.compiled) None;
    t.tt_version <- v
  end;
  if index < 0 || index >= Array.length t.compiled then None
  else
    match t.compiled.(index) with
    | Some _ as c -> c
    | None -> (
        match Tt.read_opt t.tt index with
        | None -> None
        | Some entry ->
            let c =
              Some
                {
                  entry;
                  parity_ok = Tt.parity_ok t.tt index;
                  lowering = lower t entry;
                }
            in
            t.compiled.(index) <- c;
            c)

let bbit_lookup t pc =
  let v = Bbit.version t.bbit in
  if v <> t.bbit_version then begin
    Array.fill t.probes 0 (Array.length t.probes) Unprobed;
    t.bbit_version <- v
  end;
  match t.probes.(pc) with
  | Probed p -> p
  | Unprobed ->
      let p = Bbit.lookup_slot t.bbit ~pc in
      t.probes.(pc) <- Probed p;
      p

(* The fetch path's TT read: never [Invalid_argument].  An unreadable
   entry is a typed fault; a parity mismatch degrades the current region
   (hardened) or raises the typed parity fault (strict). *)
let tt_entry_checked t index =
  match compiled_entry t index with
  | None ->
      fault
        (Machine.Fault.Tt_read_invalid
           { index; reason = "entry never programmed or out of capacity" })
  | Some c ->
      if c.parity_ok then c
      else begin
        detect_tt t index;
        match t.recovery with
        | Some _ when t.current_slot >= 0 ->
            degrade t t.current_slot;
            raise Degraded_region
        | _ -> fault (Machine.Fault.Tt_parity { index })
      end

(* The BBIT is matched associatively on every fetch, so every stored tag
   participates in the comparison — scrubbing all slot parities models the
   hardware check.  Re-run only when the stored state could have changed. *)
let scrub_bbit t =
  if t.scrub_version <> Bbit.version t.bbit then begin
    List.iter
      (fun (slot, _) ->
        if (not t.degraded.(slot)) && not (Bbit.parity_ok t.bbit slot) then begin
          detect_bbit t slot;
          degrade t slot
        end)
      (Bbit.programmed t.bbit);
    t.scrub_version <- Bbit.version t.bbit
  end

let degraded_region_of t pc =
  match t.recovery with
  | None -> None
  | Some _ when t.degraded_count = 0 -> None
  | Some r ->
      let found = ref (-1) in
      Array.iteri
        (fun slot (start, len) ->
          if
            !found < 0 && slot < Array.length t.degraded && t.degraded.(slot)
            && pc >= start
            && pc < start + len
          then found := slot)
        r.regions;
      if !found >= 0 then Some !found else None

let serve_raw t ~pc =
  match t.recovery with
  | None -> assert false
  | Some r ->
      t.fallbacks <- t.fallbacks + 1;
      Telemetry.Metrics.incr Telemetry.Registry.fault_fallback_fetches;
      let w = r.raw.(pc) in
      (w, w)

(* All 32 gates of the current entry at once; the masks hold lines 0..31
   only, so the word stays 32 bits wide.  A short [tau_indices] array
   aborts: no upset of a stored index field can produce one. *)
let decode_word t c stored =
  match c.lowering with
  | Bad_gate ->
      fault
        (Machine.Fault.Tt_read_invalid
           { index = t.entry_idx; reason = "gate index addresses no gate" })
  | Narrow -> invalid_arg "Fetch_decoder: TT entry narrower than the bus"
  | Gates { m00; m01; m10; m11 } ->
      let h = if t.first_of_entry then t.prev_stored else t.prev_decoded in
      let s = stored and ns = lnot stored and nh = lnot h in
      s land h land m11
      lor (s land nh land m10)
      lor (ns land h land m01)
      lor (ns land nh land m00)

(* The current entry's CT count is used up: end the block, or move on to
   the next entry. *)
let end_of_entry t (e : Tt.entry) =
  if e.Tt.e_bit then deactivate t
  else begin
    t.entry_idx <- t.entry_idx + 1;
    t.decodes_left <- (tt_entry_checked t t.entry_idx).entry.Tt.ct;
    t.first_of_entry <- true
  end

let advance_entry t c =
  t.decodes_left <- t.decodes_left - 1;
  if t.decodes_left = 0 then end_of_entry t c.entry
  else t.first_of_entry <- false

let fetch t ~pc =
  if pc < 0 || pc >= Array.length t.image then
    fault
      (Machine.Fault.Image_out_of_range { pc; limit = Array.length t.image });
  (match t.recovery with Some _ -> scrub_bbit t | None -> ());
  match degraded_region_of t pc with
  | Some _slot -> serve_raw t ~pc
  | None -> (
      let stored = t.image.(pc) in
      try
        let probe =
          match bbit_lookup t pc with
          | Some (slot, _) when t.degraded.(slot) -> None
          | probe -> probe
        in
        if Trace.Collector.enabled () then
          Trace.Collector.emit
            (Trace.Event.Bbit_probe
               { time = Trace.Collector.now (); pc; hit = probe <> None });
        match probe with
        | Some (slot, entry) ->
            (* Strict mode checks the matched slot's parity here; in
               hardened mode the scrub already degraded bad slots, so the
               match is clean by construction. *)
            if not (Bbit.parity_ok t.bbit slot) then begin
              detect_bbit t slot;
              fault (Machine.Fault.Bbit_parity { slot })
            end;
            if t.is_active then
              fault
                (Machine.Fault.Decode_sequence
                   {
                     pc;
                     detail = "entered an encoded block while decoding another";
                   });
            (* Head instruction: stored verbatim; prime the sequencing
               state. *)
            t.current_slot <- slot;
            let head = (tt_entry_checked t entry.Bbit.tt_base).entry in
            t.is_active <- true;
            t.entry_idx <- entry.Bbit.tt_base;
            (* The head consumes one of entry 0's CT count. *)
            t.decodes_left <- head.Tt.ct - 1;
            t.first_of_entry <- true;
            t.expected_pc <- pc + 1;
            t.prev_stored <- stored;
            t.prev_decoded <- stored;
            if t.decodes_left = 0 then end_of_entry t head;
            (stored, stored)
        | None ->
            if not t.is_active then (stored, stored)
            else begin
              if pc <> t.expected_pc then
                fault
                  (Machine.Fault.Decode_sequence
                     {
                       pc;
                       detail =
                         Printf.sprintf
                           "non-sequential fetch inside encoded block \
                            (expected %d)"
                           t.expected_pc;
                     });
              let c = tt_entry_checked t t.entry_idx in
              let decoded = decode_word t c stored in
              if Trace.Collector.enabled () then
                Trace.Collector.emit
                  (Trace.Event.Decode
                     {
                       time = Trace.Collector.now ();
                       pc;
                       entry = t.entry_idx;
                       taus = Array.copy c.entry.Tt.tau_indices;
                     });
              t.expected_pc <- pc + 1;
              let prev_stored = stored and prev_decoded = decoded in
              advance_entry t c;
              t.prev_stored <- prev_stored;
              t.prev_decoded <- prev_decoded;
              (stored, decoded)
            end
      with Degraded_region -> serve_raw t ~pc)
