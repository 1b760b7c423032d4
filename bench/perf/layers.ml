(* The traced run: per-layer costs, measured by calling each layer's public
   entry point from here under benchmark-side spans.  Nothing inside the
   libraries is instrumented; every span is opened and closed in this file
   around one call (or one loop of calls) into a layer.

   Each traced op runs twice: once exactly as the timed run does, and once
   under an [op] span followed by a [probe] span in which every program of
   the op is taken apart layer by layer.  Spans of one op share its op id. *)

module E = Pipeline.Evaluate
module Cpu = Machine.Cpu

let now = Unix.gettimeofday

(* ---- spans ------------------------------------------------------------- *)

type span = {
  id : int;
  name : string;
  op : int;
  parent : int;  (** -1 at the root *)
  start : float;
  mutable stop : float;
}

let spans = ref []
let stack = ref []
let next_id = ref 0
let current_op = ref (-1)

(* [timed name f] runs [f] under a span; returns its result and duration
   in seconds. *)
let timed name f =
  let s =
    {
      id = !next_id;
      name;
      op = !current_op;
      parent = (match !stack with p :: _ -> p | [] -> -1);
      start = now ();
      stop = 0.0;
    }
  in
  incr next_id;
  stack := s.id :: !stack;
  let finish () =
    s.stop <- now ();
    stack := List.tl !stack;
    spans := s :: !spans
  in
  match f () with
  | r ->
      finish ();
      (r, s.stop -. s.start)
  | exception e ->
      finish ();
      raise e

let time name f = snd (timed name f)

(* The fastest of [reps] runs of [f], each under its own span: on a shared
   host noise only ever adds time.  [setup ()] makes each run's input
   outside the timed region.  Returns the last result, the fastest time,
   and the minor words the last run allocated on this domain. *)
let fastest ?(reps = 3) name setup f =
  let best = ref infinity and last = ref None in
  for _ = 1 to reps do
    let x = setup () in
    let w0 = Gc.minor_words () in
    let r, dt = timed name (fun () -> f x) in
    best := Float.min !best dt;
    last := Some (r, Gc.minor_words () -. w0)
  done;
  let r, words = Option.get !last in
  (r, !best, words)

(* The fastest of [reps] runs each of [a] and [b], alternating, so that a
   drift in the host's speed reaches both alike: for a small difference
   between two large times. *)
let fastest_pair ?(reps = 5) setup (name_a, a) (name_b, b) =
  let ta = ref infinity and tb = ref infinity in
  for _ = 1 to reps do
    let x = setup () in
    ta := Float.min !ta (time name_a (fun () -> a x));
    let x = setup () in
    tb := Float.min !tb (time name_b (fun () -> b x))
  done;
  (!ta, !tb)

let duration s = s.stop -. s.start

(* The largest the OCaml heap has been in this process, in MiB.  Unlike
   the resident set it leaves out what the C allocator keeps after a free,
   which flips the resident peak of one run by a whole 4 MiB machine
   state. *)
let peak_heap_mb () =
  float_of_int ((Gc.quick_stat ()).top_heap_words * (Sys.word_size / 8))
  /. 1048576.0

(* Self time per span name: duration minus the part its child spans
   cover (children of one span run one after another). *)
let self_times () =
  let covered = Hashtbl.create 256 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace covered s.parent
          (duration s
          +. Option.value ~default:0.0 (Hashtbl.find_opt covered s.parent)))
    !spans;
  let by_name = Hashtbl.create 64 in
  List.iter
    (fun s ->
      let self =
        duration s -. Option.value ~default:0.0 (Hashtbl.find_opt covered s.id)
      in
      let calls, total, selft =
        Option.value ~default:(0, 0.0, 0.0) (Hashtbl.find_opt by_name s.name)
      in
      Hashtbl.replace by_name s.name
        (calls + 1, total +. duration s, selft +. self))
    !spans;
  Hashtbl.fold (fun n v acc -> (n, v) :: acc) by_name []
  |> List.sort (fun (_, (_, _, a)) (_, (_, _, b)) -> compare b a)

let pp_self_times ppf () =
  Format.fprintf ppf "%-44s %6s %11s %11s@." "span" "calls" "total ms"
    "self ms";
  List.iter
    (fun (name, (calls, total, self)) ->
      Format.fprintf ppf "%-44s %6d %11.3f %11.3f@." name calls (total *. 1e3)
        (self *. 1e3))
    (self_times ())

let write_trace path ~workload ~seed =
  let spans = List.sort (fun a b -> compare a.id b.id) !spans in
  let t0 = match spans with s :: _ -> s.start | [] -> 0.0 in
  let us t = (t -. t0) *. 1e6 in
  Out_channel.with_open_text path (fun oc ->
      Printf.fprintf oc
        "{\"workload\": \"%s\", \"seed\": %d, \"unit\": \"us\", \"spans\": [\n"
        workload seed;
      List.iteri
        (fun i s ->
          Printf.fprintf oc
            "  {\"id\": %d, \"name\": \"%s\", \"op\": %d, \"parent\": %s, \
             \"start\": %.3f, \"end\": %.3f}%s\n"
            s.id s.name s.op
            (if s.parent < 0 then "null" else string_of_int s.parent)
            (us s.start) (us s.stop)
            (if i = List.length spans - 1 then "" else ","))
        spans;
      output_string oc "]}\n")

(* ---- layer probes ------------------------------------------------------- *)

(* Everything that determines one evaluate besides the program. *)
type config = {
  ks : int list;
  tt : int;
  mask : int;
  selection : E.selection;
  optimal : bool;
}

let default ks =
  {
    ks;
    tt = 16;
    mask = Powercode.Subset.paper_eight_mask;
    selection = `Hot_blocks;
    optimal = false;
  }

let of_point (pt : Workload.point) =
  {
    ks = [ pt.k ];
    tt = pt.tt;
    mask = snd pt.subset;
    selection = pt.selection;
    optimal = pt.optimal;
  }

let eval ?(attribution = false) ?ledger ?(scheme = `Tt) c
    (p : Workload.program) =
  E.evaluate ~ks:c.ks ~tt_capacity:c.tt ~subset_mask:c.mask
    ~selection:c.selection ~optimal_chain:c.optimal ~scheme ~attribution
    ?ledger ~name:p.pname p.program

let uncached f =
  E.Plan_cache.set_enabled false;
  Fun.protect ~finally:(fun () -> E.Plan_cache.set_enabled true) f

(* Running sums over every probe of the run, by name. *)
let sums : (string, float) Hashtbl.t = Hashtbl.create 64

let add name v =
  Hashtbl.replace sums name
    (v +. Option.value ~default:0.0 (Hashtbl.find_opt sums name))

let sum name = Option.value ~default:0.0 (Hashtbl.find_opt sums name)

(* Probe results that contradict the program: a decoded word that differs
   from the stored instruction, or two observers that disagree. *)
let probe_failures = ref 0

(* The block selection [Pipeline.Evaluate] makes, rebuilt from the cfg
   layer so that planning can be timed on its own. *)
let candidates c program profile =
  let words = Isa.Program.words program in
  let blocks = Cfg.Block.partition (Isa.Program.insns program) in
  let hot =
    List.filter
      (fun b -> Cfg.Profile.block_weight profile b > 0)
      (Array.to_list blocks)
  in
  let selected =
    match c.selection with
    | `Hot_blocks -> hot
    | `Hot_loops ->
        let loops = Cfg.Loop.detect blocks (Cfg.Dominator.compute blocks) in
        List.filter
          (fun (b : Cfg.Block.t) ->
            List.exists (fun l -> Cfg.Loop.contains l b.index) loops)
          hot
  in
  ( blocks,
    List.map
      (fun (b : Cfg.Block.t) ->
        {
          Powercode.Program_encoder.start_index = b.start;
          body = Bitutil.Bitmat.of_words ~width:32 (Array.sub words b.start b.len);
          weight = Cfg.Profile.block_weight profile b;
        })
      selected )

let fetch_path_backends () =
  Buspower.Backends.ensure ();
  List.filter
    (fun b ->
      let module B = (val b : Buspower.Encoder.S) in
      B.max_width >= 32 && (B.cost ~width:32).latency_words = 0)
    (Buspower.Encoder.all ())

(* Backend streams are encoded from a prefix of the fetch stream this
   long: enough words for a steady per-word cost. *)
let backend_words = 65_536

let probe (w : Workload.t) c (p : Workload.program) =
  Gc.full_major ();
  let program = p.program in
  let words = Isa.Program.words program in
  let nk = List.length c.ks in
  (* machine *)
  let _, t_state, _ = fastest "machine.create_state" ignore Cpu.create_state in
  add "create_state" t_state;
  let n = (Cpu.run program (Cpu.create_state ())).instructions in
  let t_cpu, t_hook =
    fastest_pair Cpu.create_state
      ("machine.cpu_run", fun st -> ignore (Cpu.run program st))
      ( "machine.on_fetch_hook",
        fun st -> ignore (Cpu.run ~on_fetch:(fun ~pc:_ -> ()) program st) )
  in
  add "fetches" (float_of_int n);
  add "cpu_run" t_cpu;
  add "hook" t_hook;
  (* the dynamic pc sequence, which the stream layers below replay *)
  let trace = Array.make n 0 and i = ref 0 in
  ignore
    (Cpu.run
       ~on_fetch:(fun ~pc ->
         trace.(!i) <- pc;
         incr i)
       program (Cpu.create_state ()));
  (* replaying it costs this much; the stream layers below subtract it *)
  let _, t_replay, _ =
    fastest "bench.replay" ignore (fun () ->
        Array.iter (fun pc -> ignore (Sys.opaque_identity words.(pc))) trace)
  in
  (* cfg, powercode, hardware *)
  let (profile, _), t_profile, _ =
    fastest "cfg.profile" ignore (fun () -> Cfg.Profile.collect program)
  in
  add "profile" t_profile;
  let blocks, cands = candidates c program profile in
  let static =
    List.fold_left
      (fun s (cd : Powercode.Program_encoder.candidate) ->
        s + Bitutil.Bitmat.rows cd.body)
      0 cands
  in
  add "static_insns" (float_of_int (nk * static));
  let plans, t_plan, _ =
    fastest "powercode.plan" ignore (fun () ->
        List.map
          (fun k ->
            Powercode.Program_encoder.plan
              {
                k;
                subset_mask = c.mask;
                tt_capacity = c.tt;
                optimal_chain = c.optimal;
              }
              cands)
          c.ks)
  in
  add "plan" t_plan;
  let functions = Array.of_list (Powercode.Boolfun.list_of_mask c.mask) in
  let bbit_capacity = max 16 (List.length cands) in
  let systems, t_build, _ =
    fastest "hardware.reprogram_build" ignore (fun () ->
        List.map
          (Hardware.Reprogram.build ~tt_capacity:c.tt ~bbit_capacity ~functions
             program)
          plans)
  in
  add "build" t_build;
  add "builds" (float_of_int nk);
  let system = List.hd systems in
  let decoder () = Hardware.Reprogram.decoder system in
  let _, t, _ =
    fastest ~reps:1 "machine.fetch_word"
      (fun () -> (Cpu.create_state (), decoder ()))
      (fun (st, dec) ->
        Cpu.run
          ~fetch_word:(fun ~pc -> snd (Hardware.Fetch_decoder.fetch dec ~pc))
          program st)
  in
  add "fetch_word" t;
  let _, t, _ =
    fastest ~reps:1 "hardware.fetch_decoder" decoder (fun dec ->
        Array.iter
          (fun pc ->
            if snd (Hardware.Fetch_decoder.fetch dec ~pc) <> words.(pc) then
              incr probe_failures)
          trace)
  in
  add "fetch_decoder" (t -. t_replay);
  (* buspower *)
  let _, t, _ =
    fastest "buspower.businvert"
      (fun () -> Buspower.Businvert.create ~width:32 ())
      (fun bi ->
        Array.iter (fun pc -> ignore (Buspower.Businvert.encode bi words.(pc))) trace)
  in
  let t_businvert = t -. t_replay in
  add "businvert" t_businvert;
  let stream = Array.init (min n backend_words) (fun i -> words.(trace.(i))) in
  let backends = fetch_path_backends () in
  let _, t, _ =
    fastest ~reps:1 "buspower.backends" ignore (fun () ->
        List.iter
          (fun b -> ignore (Buspower.Encoder.stream_transitions b ~width:32 stream))
          backends)
  in
  add "backends" t;
  add "backend_words" (float_of_int (Array.length stream));
  (* trace, ledger: the per-fetch observers, fed the stored words *)
  let images =
    Array.of_list
      (List.map (fun (s : Hardware.Reprogram.system) -> s.image) systems)
  in
  let scratch = Array.make nk 0 in
  let fill pc = Array.iteri (fun v img -> scratch.(v) <- img.(pc)) images in
  let npc = Array.length words in
  let block_of_pc = Array.make npc (-1) in
  Array.iteri
    (fun bi (b : Cfg.Block.t) -> Array.fill block_of_pc b.start b.len bi)
    blocks;
  let attr, t, _ =
    fastest ~reps:1 "trace.attribution.record"
      (fun () ->
        Trace.Attribution.create
          ~labels:(Array.of_list (List.map (Printf.sprintf "k%d") c.ks))
          ~block_starts:(Array.map (fun (b : Cfg.Block.t) -> b.start) blocks)
          ~block_of_pc:(fun pc ->
            if pc >= 0 && pc < npc then block_of_pc.(pc) else -1))
      (fun attr ->
        Array.iter
          (fun pc ->
            fill pc;
            Trace.Attribution.record attr ~pc ~baseline:words.(pc)
              ~encoded:scratch)
          trace;
        attr)
  in
  add "attribution_record" (t -. t_replay);
  let encoded = Array.map (fun _ -> Array.make npc false) images in
  List.iteri
    (fun v (plan : Powercode.Program_encoder.plan) ->
      List.iter
        (fun (pl : Powercode.Program_encoder.placement) ->
          Option.iter
            (fun (e : Powercode.Program_encoder.block_encoding) ->
              Array.fill encoded.(v) pl.cand.start_index
                (Bitutil.Bitmat.rows e.encoded) true)
            pl.encoding)
        plan.placements)
    plans;
  let meter, t, _ =
    fastest ~reps:1 "ledger.meter.record"
      (fun () ->
        Ledger.Meter.create ~name:p.pname ~model:Ledger.Model.on_chip
          ~ks:(Array.of_list c.ks)
          ~encoded_region:(fun ~image ~pc -> encoded.(image).(pc)))
      (fun meter ->
        Array.iter
          (fun pc ->
            fill pc;
            Ledger.Meter.record meter ~pc ~baseline:words.(pc) ~encoded:scratch)
          trace;
        meter)
  in
  add "meter_record" (t -. t_replay);
  (* the two observers count the same baseline stream *)
  if
    (Trace.Attribution.summarize attr).total_baseline
    <> Ledger.Meter.baseline_transitions meter
  then incr probe_failures;
  (* pipeline: whole evaluates; the fastest of three is warm, since the
     first fills the plan cache for its key *)
  let evaluate name ?attribution ?ledger ?scheme c =
    fastest name ignore (fun () -> eval ?attribution ?ledger ?scheme c p)
  in
  let _, t_warm, a_warm = evaluate "pipeline.evaluate_warm" c in
  add "eval_warm" t_warm;
  add "alloc_warm" a_warm;
  let observer name ?attribution ?ledger ?scheme () =
    let _, t, _ =
      evaluate ("pipeline.observer." ^ name) ?attribution ?ledger ?scheme c
    in
    add ("obs_" ^ name) (t -. t_warm);
    t -. t_warm
  in
  let t_attr = observer "attribution" ~attribution:true () in
  let t_ledger = observer "ledger" ~ledger:Ledger.Model.on_chip () in
  let t_auto = observer "auto" ~scheme:`Auto () in
  let _, t_observed, a_observed =
    evaluate "pipeline.evaluate_observed" ~attribution:true
      ~ledger:Ledger.Model.on_chip ~scheme:`Auto c
  in
  add "alloc_observed" a_observed;
  let _, t_cold, a_cold =
    fastest "pipeline.evaluate_cold" ignore (fun () -> uncached (fun () -> eval c p))
  in
  add "eval_cold" t_cold;
  add "alloc_cold" a_cold;
  (* one more image costs a third of the difference between four images
     and one *)
  let four () = ignore (eval (default [ 4; 5; 6; 7 ]) p)
  and one () = ignore (eval (default [ 5 ]) p) in
  four ();
  one ();
  let t4, t1 =
    fastest_pair ignore ("pipeline.count.ks4567", four) ("pipeline.count.ks5", one)
  in
  let per_image = (t4 -. t1) /. 3.0 in
  add "per_image" per_image;
  let prepare () =
    E.prepare ~ks:c.ks ~tt_capacity:c.tt ~subset_mask:c.mask
      ~optimal_chain:c.optimal ~selection:c.selection program
  in
  let _, t, _ =
    fastest "pipeline.prepare_cold" ignore (fun () -> uncached prepare)
  in
  add "prepare_cold" t;
  let _, t, _ = fastest "pipeline.prepare_warm" ignore prepare in
  add "prepare_warm" t;
  add "probes" 1.0;
  (* The layers the workload's own evaluate is made of: one machine state,
     the CPU with its fetch hook, the per-fetch count of the baseline and
     of every encoded image (the baseline costs what an image does), the
     bus-invert counter and the decode-system builds; plus the observers
     when they are on, and profile and plan when the plan is cold. *)
  let layers =
    t_state +. t_hook
    +. (float_of_int (nk + 1) *. per_image)
    +. t_businvert +. t_build
  in
  let layers, own =
    match w.kind with
    | Reproduce -> (layers +. t_attr +. t_ledger +. t_auto, t_observed)
    | Sweep -> (layers +. t_profile +. t_plan, t_cold)
    | Count | Campaign -> (layers, t_warm)
  in
  add "layer_sum" layers;
  add "own" own

let targets (w : Workload.t) programs = function
  | Workload.Pass progs -> List.map (fun p -> (default w.ks, p)) progs
  | Point pt -> List.map (fun p -> (of_point pt, p)) programs
  | Seed _ -> List.map (fun p -> (default w.ks, p)) programs

(* ---- observability tax and the fault layer ----------------------------- *)

(* Warm bare evaluates of the workload's programs with one observability
   layer on, over the same with everything off. *)
let obs_tax (w : Workload.t) programs =
  let c = default w.ks in
  let run () = List.iter (fun p -> ignore (eval c p)) programs in
  run ();
  let scoped on off f =
    on ();
    Fun.protect ~finally:off f
  in
  let layers =
    [
      ( "metrics",
        scoped
          (fun () -> Telemetry.Metrics.set_enabled true)
          (fun () -> Telemetry.Metrics.set_enabled false) );
      ( "log",
        scoped
          (fun () -> Telemetry.Log.set_enabled true)
          (fun () ->
            Telemetry.Log.set_enabled false;
            Telemetry.Log.clear ()) );
      ("trace", scoped (fun () -> Trace.Collector.start ()) Trace.Collector.clear);
      ( "sampler",
        fun f ->
          let s = Telemetry.Sampler.start ~interval_s:0.01 ~sink:ignore () in
          Fun.protect ~finally:(fun () -> Telemetry.Sampler.stop s) f );
    ]
  in
  List.map
    (fun (name, scope) ->
      let off, on =
        fastest_pair ~reps:3 ignore ("obs.off", run)
          ("obs." ^ name, fun () -> scope run)
      in
      (Printf.sprintf "obs.%s.tax_ratio" name, on /. off))
    layers

(* One campaign op at width 1 and at the pinned width, with the pool's
   busy counter on. *)
let fault_layer ~domains =
  let config = Workload.campaign_config Workload.campaign_seeds.(0) in
  let injections = float_of_int config.injections in
  let width n f =
    Unix.putenv "POWERCODE_DOMAINS" (string_of_int n);
    Fun.protect
      ~finally:(fun () ->
        Unix.putenv "POWERCODE_DOMAINS" (string_of_int domains))
      f
  in
  let campaign () = ignore (Fault.Campaign.run config) in
  campaign ();
  Telemetry.Metrics.set_enabled true;
  Fun.protect ~finally:(fun () -> Telemetry.Metrics.set_enabled false)
  @@ fun () ->
  let _, d1, words =
    width 1 (fun () -> fastest ~reps:2 "fault.campaign.d1" ignore campaign)
  in
  let busy () =
    Telemetry.Metrics.counter_total Telemetry.Registry.parpool_busy_ns
  in
  let b0 = busy () in
  let _, dn, _ = fastest ~reps:1 "fault.campaign.dN" ignore campaign in
  let busy_s = float_of_int (busy () - b0) /. 1e9 in
  [
    ("fault.campaign.ms_per_injection.d1", d1 *. 1e3 /. injections);
    ("fault.campaign.width_speedup", d1 /. dn);
    (* pool busy time over the domain time the campaign had; one domain
       has no pool and does all the work itself *)
    ( "parpool.utilization_pct",
      if domains = 1 then 100.0
      else 100.0 *. busy_s /. (float_of_int domains *. dn) );
    ("alloc.campaign.minor_words_per_injection", words /. injections);
  ]

(* ---- the traced run ---------------------------------------------------- *)

type result = {
  attempted : int;
  failed : int;
  values : (string * float) list;
}

(* [run w ~programs ~seq ~exec ~domains ~budget ~ops] traces a prefix of
   the op sequence: [ops] ops when given, otherwise as many as fit in
   [budget] seconds at the pace of the last one (at least one).  [exec op]
   runs one op exactly
   as the timed run does and returns whether it matched its golden lines,
   and its plan-cache (hits, misses). *)
let run (w : Workload.t) ~programs ~seq ~exec ~domains ~budget ~ops =
  let t_start = now () in
  let attempted = ref 0 and failed = ref 0 in
  let check ok =
    incr attempted;
    if not ok then incr failed
  in
  let tax = obs_tax w programs in
  let fault = fault_layer ~domains in
  let plain = ref 0.0 and traced = ref 0.0 in
  let hits = ref 0 and misses = ref 0 in
  let i = ref 0 and last = ref 0.0 in
  while
    match ops with
    | Some n -> !i < n
    | None -> !i = 0 || now () -. t_start +. !last < budget
  do
    let t_op = now () in
    let op = seq !i in
    Gc.full_major ();
    let t0 = now () in
    let ok, (h, m) = exec op in
    plain := !plain +. (now () -. t0);
    check ok;
    hits := !hits + h;
    misses := !misses + m;
    Gc.full_major ();
    current_op := !i;
    let (ok, _), t = timed "op" (fun () -> exec op) in
    traced := !traced +. t;
    check ok;
    ignore
      (timed "probe" (fun () ->
           List.iter (fun (c, p) -> probe w c p) (targets w programs op)));
    current_op := -1;
    last := now () -. t_op;
    incr i
  done;
  let f = sum "fetches" and probes = sum "probes" in
  let per_fetch name = sum name /. f *. 1e9 in
  {
    attempted = !attempted;
    failed = !failed + !probe_failures;
    values =
      [
        ("machine.cpu_run.ns_per_fetch", per_fetch "cpu_run");
        ("machine.create_state.us", sum "create_state" /. probes *. 1e6);
        ( "machine.on_fetch_hook.ns_per_fetch",
          (sum "hook" -. sum "cpu_run") /. f *. 1e9 );
        ( "machine.fetch_word.ns_per_fetch",
          (sum "fetch_word" -. sum "cpu_run") /. f *. 1e9 );
        ("cfg.profile.ns_per_fetch", per_fetch "profile");
        ( "powercode.plan.us_per_static_insn",
          sum "plan" /. sum "static_insns" *. 1e6 );
        ("hardware.reprogram_build.us", sum "build" /. sum "builds" *. 1e6);
        ("hardware.fetch_decoder.ns_per_fetch", per_fetch "fetch_decoder");
        ("buspower.businvert.ns_per_word", per_fetch "businvert");
        ( "buspower.backends.ns_per_word",
          sum "backends" /. sum "backend_words" *. 1e9 );
        ("pipeline.evaluate_warm.ns_per_fetch", per_fetch "eval_warm");
        ("pipeline.evaluate_cold.ns_per_fetch", per_fetch "eval_cold");
        ("pipeline.count.ns_per_fetch_per_image", per_fetch "per_image");
        ("pipeline.prepare_cold.ms", sum "prepare_cold" /. probes *. 1e3);
        ("pipeline.prepare_warm.us", sum "prepare_warm" /. probes *. 1e6);
        ( "pipeline.observer.attribution.ns_per_fetch",
          per_fetch "obs_attribution" );
        ("pipeline.observer.ledger.ns_per_fetch", per_fetch "obs_ledger");
        ("pipeline.observer.auto.ns_per_fetch", per_fetch "obs_auto");
        ("pipeline.plan_cache.hits", float_of_int !hits);
        ("pipeline.plan_cache.misses", float_of_int !misses);
        ("pipeline.layer_sum_ratio", sum "layer_sum" /. sum "own");
        ("trace.attribution.record.ns_per_call", per_fetch "attribution_record");
        ("ledger.meter.record.ns_per_call", per_fetch "meter_record");
        ("alloc.evaluate_warm.minor_words_per_fetch", sum "alloc_warm" /. f);
        ( "alloc.evaluate_observed.minor_words_per_fetch",
          sum "alloc_observed" /. f );
        ("alloc.evaluate_cold.minor_words_per_op", sum "alloc_cold" /. probes);
        ("gc.top_heap_mb", peak_heap_mb ());
        ("bench.trace_overhead_pct", 100.0 *. (!traced -. !plain) /. !plain);
      ]
      @ fault @ tax;
  }
