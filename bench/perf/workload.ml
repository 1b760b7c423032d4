(* The four benchmark workloads: what one op is, the seeded op sequence,
   and the canonical result line each op is checked against.

   Every op draws from a fixed, committed space (programs, design points,
   campaign seeds), so each result has a golden line in
   bench/perf/golden/<workload>.jsonl; the seed only permutes the order. *)

module E = Pipeline.Evaluate

type kind = Reproduce | Count | Sweep | Campaign

type t = {
  name : string;
  kind : kind;
  sources : Workloads.t list;  (** the programs the workload compiles *)
  ks : int list;  (** block sizes of the workload's evaluate *)
}

type program = { pname : string; program : Isa.Program.t }

(* One design point of the sweep: block size x TT capacity x
   transformation universe x block selection x chain encoder. *)
type point = {
  k : int;
  tt : int;
  subset : string * int;
  selection : E.selection;
  optimal : bool;
}

type op =
  | Pass of program list  (** reproduce, count: one evaluate per program *)
  | Point of point  (** sweep: the point evaluated cold on every kernel *)
  | Seed of int  (** campaign: one seeded fault campaign *)

let scaled = List.map (Workloads.by_name Workloads.scaled)
let extended = List.map (Workloads.by_name Workloads.extended)
let kernels = scaled [ "mmul"; "sor"; "ej"; "fft"; "tri"; "lu" ]
let campaign_injections = 24
let campaign_ks = [ 4; 5 ]

let all =
  [
    {
      name = "reproduce";
      kind = Reproduce;
      sources = kernels @ extended [ "fir"; "iir" ];
      ks = [ 4; 5; 6; 7 ];
    };
    {
      name = "count";
      kind = Count;
      sources = extended [ "fir"; "iir"; "dct" ];
      ks = [ 4; 5; 6; 7 ];
    };
    { name = "sweep"; kind = Sweep; sources = kernels; ks = [ 4; 5; 6; 7 ] };
    {
      name = "campaign";
      kind = Campaign;
      sources = scaled [ "sor"; "fft"; "tri" ];
      ks = campaign_ks;
    };
  ]

let find name = List.find_opt (fun w -> w.name = name) all
let campaign = List.find (fun w -> w.kind = Campaign) all

let compile w =
  List.map
    (fun (s : Workloads.t) ->
      { pname = s.name; program = (Workloads.compile s).program })
    w.sources

(* The 4 x 6 x 3 x 2 x 2 = 288 committed design points. *)
let points =
  lazy
    (let subsets =
       [
         ("all16", Powercode.Boolfun.full_mask);
         ("paper8", Powercode.Subset.paper_eight_mask);
         ("minimal6", Powercode.Subset.canonical_mask ());
       ]
     in
     let ( let* ) l f = List.concat_map f l in
     Array.of_list
       (let* k = [ 4; 5; 6; 7 ] in
        let* tt = [ 2; 4; 8; 16; 32; 64 ] in
        let* subset = subsets in
        let* selection = [ `Hot_blocks; `Hot_loops ] in
        let* optimal = [ false; true ] in
        [ { k; tt; subset; selection; optimal } ]))

(* The committed pool of campaign seeds.  Campaign costs cluster by
   outcome (a hang runs four times longer), so a quantile over a random
   part of a large pool jumps between clusters; 32 seeds make about five
   whole rounds in a 25 s run. *)
let campaign_seeds = Array.init 32 (fun i -> 1000 + i)

let campaign_config seed =
  {
    Fault.Campaign.seed;
    injections = campaign_injections;
    ks = campaign_ks;
    benches = campaign.sources;
  }

(* ---- the seeded op sequence ------------------------------------------- *)

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

(* [sequence w ~seed programs] is op [i] of the workload.  Ops come in
   rounds over the committed space, each round a fresh seeded
   permutation, so whole rounds have the same mix whatever the seed. *)
let sequence w ~seed programs =
  let space =
    match w.kind with
    | Reproduce | Count -> List.length programs
    | Sweep -> Array.length (Lazy.force points)
    | Campaign -> Array.length campaign_seeds
  in
  let cached = ref (-1, [||]) in
  let perm round =
    if fst !cached <> round then
      cached :=
        ( round,
          shuffle (Random.State.make [| seed; round |]) (Array.init space Fun.id) );
    snd !cached
  in
  let progs = Array.of_list programs in
  fun i ->
    match w.kind with
    | Reproduce | Count ->
        Pass (Array.to_list (Array.map (fun j -> progs.(j)) (perm i)))
    | Sweep -> Point (Lazy.force points).((perm (i / space)).(i mod space))
    | Campaign -> Seed campaign_seeds.((perm (i / space)).(i mod space))

(* ---- canonical result lines -------------------------------------------- *)

let point_key pt =
  Printf.sprintf "k%d.tt%d.%s.%s.%s" pt.k pt.tt (fst pt.subset)
    (match pt.selection with
    | `Hot_blocks -> "hot_blocks"
    | `Hot_loops -> "hot_loops")
    (if pt.optimal then "optimal" else "greedy")

let seed_key seed = Printf.sprintf "seed-%d" seed
let list f l = String.concat "," (List.map f l)

(* One JSON object per line with its fields in a fixed order: a result is
   correct iff its line equals the golden line byte for byte. *)
let eval_line ~key (r : E.report) =
  let b = Buffer.create 512 in
  let p fmt = Printf.bprintf b fmt in
  p {|{"key":"%s","instructions":%d,"baseline":%d,"businvert":%d,"runs":[%s],"output":"%s"|}
    key r.instructions r.baseline_transitions r.businvert_transitions
    (list
       (fun (run : E.encoded_run) ->
         Printf.sprintf
           {|{"k":%d,"transitions":%d,"tt_used":%d,"blocks_encoded":%d}|}
           run.k run.transitions run.tt_used run.blocks_encoded)
       r.runs)
    (Digest.to_hex (Digest.string r.output));
  Option.iter
    (fun (a : Trace.Attribution.summary) ->
      p {|,"attribution":{"fetches":%d,"baseline":%d,"encoded":[%s]}|}
        a.fetches a.total_baseline
        (list string_of_int (Array.to_list a.total_encoded)))
    r.attribution;
  Option.iter
    (fun (s : Ledger.Sheet.t) ->
      let n (it : Ledger.Sheet.item) = it.count in
      p {|,"ledger":{"fetches":%d,"baseline_bus":%d,"entries":[%s]}|}
        s.fetches (n s.baseline_bus)
        (list
           (fun (e : Ledger.Sheet.entry) ->
             Printf.sprintf
               {|{"k":%d,"encoded_bus":%d,"tt_reads":%d,"bbit_probes":%d,"gate_toggles":%d,"reprogram_writes":%d}|}
               e.k (n e.encoded_bus) (n e.tt_reads) (n e.bbit_probes)
               (n e.gate_toggles) (n e.reprogram_writes))
           s.entries))
    r.ledger;
  if r.schemes <> [] then
    p {|,"schemes":[%s]|}
      (list
         (fun (s : E.scheme_run) ->
           Printf.sprintf
             {|{"k":%d,"transitions":%d,"reverted":%b,"regions":{%s}}|}
             s.srun_k s.auto_transitions s.reverted
             (list (fun (n, c) -> Printf.sprintf {|"%s":%d|} n c) s.scheme_counts))
         r.schemes);
  p "}";
  Buffer.contents b

let campaign_line ~key (r : Fault.Campaign.report) =
  Printf.sprintf {|{"key":"%s","injections":%d,"totals":{%s}}|} key r.requested
    (list (fun (c, n) -> Printf.sprintf {|"%s":%d|} c n) r.totals)

(* ---- running one op ---------------------------------------------------- *)

type outcome = {
  fetches : int;  (** dynamic fetches the op evaluated or injected through *)
  lines : (string * string) list;  (** (golden key, canonical result line) *)
  cache : int * int;  (** plan-cache (hits, misses) the op caused *)
}

let cache_delta f =
  let h0, m0 = E.Plan_cache.stats () in
  let r = f () in
  let h1, m1 = E.Plan_cache.stats () in
  (r, (h1 - h0, m1 - m0))

(* The workload's own evaluate of one program. *)
let evaluate w ?point { pname; program } =
  match (w.kind, point) with
  | Reproduce, _ ->
      E.evaluate ~ks:w.ks ~attribution:true ~scheme:`Auto
        ~ledger:Ledger.Model.on_chip ~name:pname program
  | _, Some pt ->
      E.evaluate ~ks:[ pt.k ] ~tt_capacity:pt.tt ~subset_mask:(snd pt.subset)
        ~selection:pt.selection ~optimal_chain:pt.optimal ~name:pname program
  | _ -> E.evaluate ~ks:w.ks ~name:pname program

let evaluate_all w ?point ~key progs =
  List.fold_left
    (fun acc p ->
      (* a sweep point is cold: its plan is computed on every op *)
      if point <> None then E.Plan_cache.clear ();
      let r, (h, m) = cache_delta (fun () -> evaluate w ?point p) in
      {
        fetches = acc.fetches + r.instructions;
        lines = (key p, eval_line ~key:(key p) r) :: acc.lines;
        cache = (fst acc.cache + h, snd acc.cache + m);
      })
    { fetches = 0; lines = []; cache = (0, 0) }
    progs

(* Fetches one campaign op drives through the hardened fetch path: every
   injection runs its (bench, k) pair's program, whose fault-free length
   the reference runs give.  The same for every seed. *)
let campaign_fetches programs =
  let lengths =
    List.concat_map
      (fun { program; _ } ->
        let r = Machine.Cpu.run program (Machine.Cpu.create_state ()) in
        List.map (fun _ -> r.instructions) campaign_ks)
      programs
  in
  let pairs = Array.of_list lengths in
  let total = ref 0 in
  for id = 0 to campaign_injections - 1 do
    total := !total + pairs.(id mod Array.length pairs)
  done;
  !total

(* [run w ~programs ~campaign_fetches op] executes one op.  An op that
   raises fails, like one whose result differs from its golden line. *)
let run w ~programs ~campaign_fetches = function
  | Pass progs -> evaluate_all w ~key:(fun p -> p.pname) progs
  | Point pt ->
      evaluate_all w ~point:pt
        ~key:(fun p -> point_key pt ^ "/" ^ p.pname)
        programs
  | Seed seed ->
      let r, cache =
        cache_delta (fun () -> Fault.Campaign.run (campaign_config seed))
      in
      {
        fetches = campaign_fetches;
        lines = [ (seed_key seed, campaign_line ~key:(seed_key seed) r) ];
        cache;
      }

(* Every (key, line) of the workload's committed space, in a fixed order,
   for [--write-golden]. *)
let golden_lines w ~programs ~campaign_fetches =
  let ops =
    match w.kind with
    | Reproduce | Count -> [ Pass programs ]
    | Sweep -> Array.to_list (Array.map (fun p -> Point p) (Lazy.force points))
    | Campaign -> Array.to_list (Array.map (fun s -> Seed s) campaign_seeds)
  in
  List.concat_map
    (fun op -> List.rev (run w ~programs ~campaign_fetches op).lines)
    ops
