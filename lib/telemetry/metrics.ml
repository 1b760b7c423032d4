type stability = Stable | Runtime
type kind = Counter | Histogram | Gauge | Span

let stability_name = function Stable -> "stable" | Runtime -> "runtime"

let kind_name = function
  | Counter -> "counter"
  | Histogram -> "histogram"
  | Gauge -> "gauge"
  | Span -> "span"

let enabled_flag = Atomic.make false
let enabled () = Atomic.get enabled_flag
let set_enabled b = Atomic.set enabled_flag b

(* Sharding: the pool never exceeds 8 workers + the main domain, so 16
   shards keep distinct domains on distinct cells in practice (domain ids
   are assigned consecutively).  A collision only costs contention, never
   correctness: totals sum all shards. *)
let shards = 16
let shard () = (Domain.self () :> int) land (shards - 1)

type counter = {
  c_name : string;
  c_stability : stability;
  c_cells : int Atomic.t array;
}

type histogram = {
  h_name : string;
  h_stability : stability;
  h_label : int -> string;
  h_buckets : int;
  (* h_cells.(shard).(bucket) *)
  h_cells : int Atomic.t array array;
}

(* A gauge is a point-in-time level, not a flow: slots are plain atomic
   cells written with [set_gauge]/[add_gauge] and read verbatim — no
   sharding, because the last write wins by design.  A scalar gauge has one
   slot; vector gauges (one slot per pool worker, say) carry a fixed slot
   count chosen at declaration so the frozen shape never depends on the
   machine the run happened to use. *)
type gauge = {
  g_name : string;
  g_stability : stability;
  g_slot_label : int -> string;
  g_slots : int Atomic.t array;
}

type span = { s_name : string }

type span_stat = {
  mutable st_count : int;
  mutable st_total_ns : float;
  mutable st_max_ns : float;
}

(* ---- registration ---------------------------------------------------- *)

let reg_mutex = Mutex.create ()
let schema : (string, kind * stability * string) Hashtbl.t = Hashtbl.create 64
let all_counters : counter list ref = ref []
let all_histograms : histogram list ref = ref []
let all_gauges : gauge list ref = ref []

let register ~kind ~stability ~doc name =
  Mutex.lock reg_mutex;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock reg_mutex)
    (fun () ->
      if Hashtbl.mem schema name then
        invalid_arg ("Telemetry.Metrics: duplicate metric name " ^ name);
      Hashtbl.add schema name (kind, stability, doc))

let counter ?(stability = Stable) ~doc name =
  register ~kind:Counter ~stability ~doc name;
  let c =
    {
      c_name = name;
      c_stability = stability;
      c_cells = Array.init shards (fun _ -> Atomic.make 0);
    }
  in
  Mutex.lock reg_mutex;
  all_counters := c :: !all_counters;
  Mutex.unlock reg_mutex;
  c

let histogram ?(stability = Stable) ~doc ~buckets ~label name =
  if buckets < 1 then invalid_arg "Telemetry.Metrics.histogram: no buckets";
  register ~kind:Histogram ~stability ~doc name;
  let h =
    {
      h_name = name;
      h_stability = stability;
      h_label = label;
      h_buckets = buckets;
      h_cells =
        Array.init shards (fun _ -> Array.init buckets (fun _ -> Atomic.make 0));
    }
  in
  Mutex.lock reg_mutex;
  all_histograms := h :: !all_histograms;
  Mutex.unlock reg_mutex;
  h

let gauge ?(stability = Runtime) ?(slots = 1)
    ?(slot_label = fun _ -> "value") ~doc name =
  if slots < 1 then invalid_arg "Telemetry.Metrics.gauge: no slots";
  register ~kind:Gauge ~stability ~doc name;
  let g =
    {
      g_name = name;
      g_stability = stability;
      g_slot_label = slot_label;
      g_slots = Array.init slots (fun _ -> Atomic.make 0);
    }
  in
  Mutex.lock reg_mutex;
  all_gauges := g :: !all_gauges;
  Mutex.unlock reg_mutex;
  g

let span ~doc name =
  register ~kind:Span ~stability:Runtime ~doc name;
  { s_name = name }

(* ---- recording ------------------------------------------------------- *)

let add c n =
  if Atomic.get enabled_flag then
    ignore (Atomic.fetch_and_add (Array.unsafe_get c.c_cells (shard ())) n)

let incr c = add c 1

let counter_total c =
  Array.fold_left (fun s cell -> s + Atomic.get cell) 0 c.c_cells

let observe h bucket =
  if Atomic.get enabled_flag then begin
    let b = if bucket < 0 then 0 else min bucket (h.h_buckets - 1) in
    ignore
      (Atomic.fetch_and_add (Array.unsafe_get h.h_cells (shard ())).(b) 1)
  end

let set_gauge g slot v =
  if Atomic.get enabled_flag then begin
    let s = if slot < 0 then 0 else min slot (Array.length g.g_slots - 1) in
    Atomic.set (Array.unsafe_get g.g_slots s) v
  end

let add_gauge g slot n =
  if Atomic.get enabled_flag then begin
    let s = if slot < 0 then 0 else min slot (Array.length g.g_slots - 1) in
    ignore (Atomic.fetch_and_add (Array.unsafe_get g.g_slots s) n)
  end

let gauge_value g slot =
  let s = if slot < 0 then 0 else min slot (Array.length g.g_slots - 1) in
  Atomic.get g.g_slots.(s)

let gauge_slots g = Array.length g.g_slots

let log2_bucket v =
  let r = ref 0 and x = ref v in
  while !x > 1 do
    Stdlib.incr r;
    x := !x lsr 1
  done;
  !r

(* ---- spans ----------------------------------------------------------- *)

let span_table : (string, span_stat) Hashtbl.t = Hashtbl.create 32
let span_mutex = Mutex.create ()

(* Each domain tracks its open-span path; the stack stores full paths so
   entering a child is one concatenation. *)
let stack_key : string list Domain.DLS.key = Domain.DLS.new_key (fun () -> [])

let now_ns () = Unix.gettimeofday () *. 1e9

(* The calling domain's innermost open span path, if any.  The event log
   stamps this onto every line emitted inside a span so logs, span stats
   and exported profiles cross-reference by path.  The stack is only
   maintained while collection is enabled, so this is [None] otherwise. *)
let current_span_path () =
  match Domain.DLS.get stack_key with [] -> None | path :: _ -> Some path

type span_interval =
  { path : string; tid : int; start_ns : float; stop_ns : float }

(* The intervals closed inside the open [with_spans] window, newest
   first, or [None] outside any window.  Guarded by [span_mutex]. *)
let window : span_interval list option ref = ref None

let record_span path start_ns stop_ns =
  let elapsed = stop_ns -. start_ns in
  Mutex.lock span_mutex;
  (match Hashtbl.find_opt span_table path with
  | Some st ->
      st.st_count <- st.st_count + 1;
      st.st_total_ns <- st.st_total_ns +. elapsed;
      if elapsed > st.st_max_ns then st.st_max_ns <- elapsed
  | None ->
      Hashtbl.add span_table path
        { st_count = 1; st_total_ns = elapsed; st_max_ns = elapsed });
  (match !window with
  | Some l ->
      let tid = (Domain.self () :> int) in
      window := Some ({ path; tid; start_ns; stop_ns } :: l)
  | None -> ());
  Mutex.unlock span_mutex

let with_span sp f =
  if not (Atomic.get enabled_flag) then f ()
  else begin
    let stack = Domain.DLS.get stack_key in
    let path =
      match stack with
      | [] -> sp.s_name
      | parent :: _ -> parent ^ "/" ^ sp.s_name
    in
    Domain.DLS.set stack_key (path :: stack);
    let t0 = now_ns () in
    Fun.protect
      ~finally:(fun () ->
        let t1 = Float.max t0 (now_ns ()) in
        Domain.DLS.set stack_key stack;
        record_span path t0 t1)
      f
  end

let swap_window w =
  Mutex.lock span_mutex;
  let old = !window in
  window := w;
  Mutex.unlock span_mutex;
  old

let with_spans ~export f =
  ignore (swap_window (Some []));
  Fun.protect f ~finally:(fun () ->
      export (List.rev (Option.value (swap_window None) ~default:[])))

(* ---- freeze / reset -------------------------------------------------- *)

type span_record = { span_count : int; total_ns : float; max_ns : float }

type frozen = {
  counters : (string * stability * int) list;
  histograms : (string * stability * (string * int) list) list;
  gauges : (string * stability * (string * int) list) list;
  spans : (string * span_record) list;
}

let freeze () =
  let counters =
    !all_counters
    |> List.rev_map (fun c -> (c.c_name, c.c_stability, counter_total c))
    |> List.sort (fun (a, _, _) (b, _, _) -> String.compare a b)
  in
  let histograms =
    !all_histograms
    |> List.rev_map (fun h ->
           let sums =
             List.init h.h_buckets (fun b ->
                 ( h.h_label b,
                   Array.fold_left
                     (fun s row -> s + Atomic.get row.(b))
                     0 h.h_cells ))
           in
           (h.h_name, h.h_stability, sums))
    |> List.sort (fun (a, _, _) (b, _, _) -> String.compare a b)
  in
  let gauges =
    !all_gauges
    |> List.rev_map (fun g ->
           let slots =
             Array.to_list
               (Array.mapi
                  (fun i cell -> (g.g_slot_label i, Atomic.get cell))
                  g.g_slots)
           in
           (g.g_name, g.g_stability, slots))
    |> List.sort (fun (a, _, _) (b, _, _) -> String.compare a b)
  in
  let spans =
    Mutex.lock span_mutex;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock span_mutex)
      (fun () ->
        Hashtbl.fold
          (fun path st acc ->
            ( path,
              {
                span_count = st.st_count;
                total_ns = st.st_total_ns;
                max_ns = st.st_max_ns;
              } )
            :: acc)
          span_table []
        |> List.sort (fun (a, _) (b, _) -> String.compare a b))
  in
  { counters; histograms; gauges; spans }

(* Delta between two snapshots of one process: what a bounded phase (one
   workload of a multi-workload run) recorded.  Metrics registered after
   [before] was taken subtract from zero.  A span's [max_ns] is the running
   maximum, not a window maximum, so the delta keeps [after]'s value. *)
let diff ~(before : frozen) ~(after : frozen) =
  let counter_before name =
    match List.find_opt (fun (n, _, _) -> n = name) before.counters with
    | Some (_, _, v) -> v
    | None -> 0
  in
  let counters =
    List.map
      (fun (name, st, v) -> (name, st, v - counter_before name))
      after.counters
  in
  let hist_before name =
    match List.find_opt (fun (n, _, _) -> n = name) before.histograms with
    | Some (_, _, buckets) -> buckets
    | None -> []
  in
  let histograms =
    List.map
      (fun (name, st, buckets) ->
        let old = hist_before name in
        ( name,
          st,
          List.map
            (fun (label, n) ->
              let n0 =
                match List.assoc_opt label old with Some v -> v | None -> 0
              in
              (label, n - n0))
            buckets ))
      after.histograms
  in
  let span_before path =
    match List.assoc_opt path before.spans with
    | Some r -> (r.span_count, r.total_ns)
    | None -> (0, 0.0)
  in
  let spans =
    List.filter_map
      (fun (path, r) ->
        let c0, t0 = span_before path in
        if r.span_count = c0 then None
        else
          Some
            ( path,
              {
                span_count = r.span_count - c0;
                total_ns = r.total_ns -. t0;
                max_ns = r.max_ns;
              } ))
      after.spans
  in
  (* Gauges are levels, not flows: the delta of a point-in-time reading is
     meaningless, so the window keeps [after]'s values verbatim. *)
  { counters; histograms; gauges = after.gauges; spans }

let reset () =
  List.iter
    (fun c -> Array.iter (fun cell -> Atomic.set cell 0) c.c_cells)
    !all_counters;
  List.iter
    (fun h ->
      Array.iter (fun row -> Array.iter (fun cell -> Atomic.set cell 0) row)
        h.h_cells)
    !all_histograms;
  List.iter
    (fun g -> Array.iter (fun cell -> Atomic.set cell 0) g.g_slots)
    !all_gauges;
  Mutex.lock span_mutex;
  Hashtbl.reset span_table;
  Mutex.unlock span_mutex

let registered () =
  Mutex.lock reg_mutex;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock reg_mutex)
    (fun () ->
      Hashtbl.fold
        (fun name (kind, stability, doc) acc ->
          (name, kind, stability, doc) :: acc)
        schema []
      |> List.sort (fun (a, _, _, _) (b, _, _, _) -> String.compare a b))

let doc name =
  Mutex.lock reg_mutex;
  let d = Hashtbl.find_opt schema name in
  Mutex.unlock reg_mutex;
  match d with Some (_, _, doc) -> doc | None -> ""
