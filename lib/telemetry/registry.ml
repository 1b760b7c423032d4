(* Every metric the system emits, declared here and nowhere else: the
   instrumented modules reference these values, test/test_telemetry.ml pins
   the resulting schema, and the README's telemetry section documents it.
   Stability classes matter: Stable totals must be identical between
   POWERCODE_SEQ=1 and parallel runs of the same workload (asserted by
   test/test_differential.ml); Runtime totals describe how the run executed
   and may legitimately differ (cache warmth, pool scheduling, time). *)

let counter = Metrics.counter
let runtime = Metrics.Runtime

(* ---- encode pipeline (stable) ---------------------------------------- *)

let encode_blocks =
  counter ~doc:"Basic blocks encoded by Program_encoder.encode_block"
    "encode.blocks"

let encode_lines =
  counter ~doc:"Per-line chain encodes fanned out by encode_block (32/block)"
    "encode.lines"

let plan_blocks_considered =
  counter ~doc:"Candidate blocks offered to Program_encoder.plan"
    "plan.blocks_considered"

let plan_blocks_encoded =
  counter ~doc:"Candidates that received a TT allocation and an encoding"
    "plan.blocks_encoded"

let plan_blocks_skipped =
  counter ~doc:"Candidates left verbatim (cold, too short, or no TT space)"
    "plan.blocks_skipped"

let plan_tt_entries =
  counter ~doc:"Transformation Table entries allocated across all plans"
    "plan.tt_entries"

(* Stable, not runtime: the hit/miss sequence depends only on the order of
   prepare/evaluate calls and their arguments, which POWERCODE_SEQ and the
   domain count do not change. *)
let plan_cache_hits =
  counter ~doc:"prepare/evaluate front halves served from the plan cache"
    "plan.cache_hits"

let plan_cache_misses =
  counter ~doc:"prepare/evaluate front halves that had to profile and plan"
    "plan.cache_misses"

let chain_streams =
  counter ~doc:"Bit streams encoded by the chain encoder (greedy or DP)"
    "chain.streams"

let chain_code_blocks =
  counter ~doc:"k-bit code blocks chosen across all chain encodes"
    "chain.code_blocks"

let chain_decodes =
  counter ~doc:"Bit streams decoded by Chain.decode" "chain.decodes"

(* The 16 two-input boolean functions in truth-table order; must match
   Boolfun.name (cross-checked in test/test_telemetry.ml). *)
let tau_names =
  [|
    "0"; "!(x|y)"; "!x&y"; "!x"; "x&!y"; "!y"; "x^y"; "!(x&y)"; "x&y";
    "!(x^y)"; "y"; "!(x&!y)"; "x"; "!(!x&y)"; "x|y"; "1";
  |]

let tau_selected =
  Metrics.histogram
    ~doc:
      "Transformations selected per code block per line, by truth-table \
       index"
    ~buckets:16
    ~label:(fun i -> tau_names.(i))
    "encode.tau_selected"

let block_bits =
  Metrics.histogram
    ~doc:"encode_block matrix sizes (rows x width bits), log2 buckets"
    ~buckets:24
    ~label:(fun i -> Printf.sprintf "2^%d" i)
    "encode.block_bits"

(* ---- machine (stable) ------------------------------------------------- *)

let cpu_instructions =
  counter
    ~doc:
      "Instructions executed (= fetch bus words) by Machine.Cpu.run; real \
       runs only, so a warm evaluate (replayed, no run) adds none"
    "cpu.instructions"

let icache_accesses =
  counter ~doc:"I-cache lookups" "icache.accesses"

let icache_hits = counter ~doc:"I-cache hits" "icache.hits"
let icache_misses = counter ~doc:"I-cache misses" "icache.misses"

let icache_refill_words =
  counter ~doc:"Words streamed from memory on I-cache refills"
    "icache.refill_words"

(* ---- hardened fetch path (stable) -------------------------------------
   Stable: injections are replayed from a seeded plan and detections derive
   from the deterministic fetch stream, so sequential and parallel runs of
   the same campaign report identical totals. *)

let fault_injections =
  counter ~doc:"Upsets injected into live systems by fault campaigns"
    "fault.injections"

let fault_tt_parity =
  counter ~doc:"TT entry parity mismatches detected on the fetch path"
    "fault.tt_parity_detected"

let fault_bbit_parity =
  counter ~doc:"BBIT slot parity mismatches detected on the fetch path"
    "fault.bbit_parity_detected"

let fault_fallback_fetches =
  counter
    ~doc:"Fetches served raw by the identity-decode fallback of a degraded \
          region"
    "fault.fallback_fetches"

let fault_recoveries =
  counter
    ~doc:"Campaign runs where detection + fallback restored baseline output"
    "fault.recoveries"

let fault_fetches_skipped =
  counter
    ~doc:"Fetches a campaign did not run because the injection had rejoined \
          the fault-free reference run"
    "fault.fetches_skipped"

(* Runtime: a traced campaign sends every fetch through the decoder. *)
let fault_fast_forward_fetches =
  counter ~stability:runtime
    ~doc:"Campaign fetches delivered without the decoder because they come \
          before the first fetch the injected upset can affect"
    "fault.fast_forward_fetches"

(* ---- pipeline (stable) ------------------------------------------------ *)

let pipeline_evaluations =
  counter ~doc:"Pipeline.Evaluate.evaluate calls" "pipeline.evaluations"

let pipeline_fetches =
  counter ~doc:"Dynamic instruction fetches counted by evaluate runs"
    "pipeline.fetches"

let pipeline_images =
  counter ~doc:"Encoded images whose transitions one evaluate run counted"
    "pipeline.images"

(* ---- energy ledger (stable) ------------------------------------------- *)

let ledger_meters =
  counter ~doc:"Ledger meters created (one per metered evaluate run)"
    "ledger.meters"

let ledger_fetches =
  counter ~doc:"Dynamic fetches accounted by ledger meters" "ledger.fetches"

let ledger_entries =
  counter ~doc:"(benchmark, k) ledger entries finalized into sheets"
    "ledger.entries"

let ledger_reports =
  counter ~doc:"Ledger dashboards rendered (Markdown or HTML)"
    "ledger.reports"

(* ---- caches and search spaces (runtime: depend on cache warmth) ------- *)

let codetable_hits =
  counter ~stability:runtime ~doc:"Codetable.get served from the cache"
    "codetable.hits"

let codetable_misses =
  counter ~stability:runtime ~doc:"Codetable.get that had to build a table"
    "codetable.misses"

let blockword_memo_hits =
  counter ~stability:runtime
    ~doc:"codewords_by_transitions served from the memo" "blockword.memo_hits"

let blockword_memo_misses =
  counter ~stability:runtime
    ~doc:"codewords_by_transitions that had to sort the universe"
    "blockword.memo_misses"

let solver_words =
  counter ~stability:runtime
    ~doc:"Words solved for an optimal code (table builds only)"
    "solver.words_solved"

let solver_codes_scanned =
  counter ~stability:runtime
    ~doc:"Candidate codes examined across Solver.solve scans"
    "solver.codes_scanned"

let subset_requirements =
  counter ~stability:runtime
    ~doc:"Per-word requirement masks enumerated by Subset.requirements"
    "subset.requirements"

let subset_masks_tested =
  counter ~stability:runtime
    ~doc:"Candidate subsets tested by the hitting-set search"
    "subset.masks_tested"

(* ---- domain pool (runtime: scheduling-dependent) ---------------------- *)

let parpool_jobs =
  counter ~stability:runtime ~doc:"parallel_init calls that used the pool"
    "parpool.jobs"

let parpool_chunks =
  counter ~stability:runtime
    ~doc:"Work chunks executed (by workers and the helping caller)"
    "parpool.chunks"

let parpool_seq_fallbacks =
  counter ~stability:runtime
    ~doc:"parallel_init calls that ran sequentially (env, size, or no pool)"
    "parpool.seq_fallbacks"

let parpool_idle_ns =
  counter ~stability:runtime
    ~doc:"Wall nanoseconds worker domains spent waiting for work"
    "parpool.idle_ns"

let parpool_busy_ns =
  counter ~stability:runtime
    ~doc:"Wall nanoseconds spent executing chunks, pool-wide (workers and \
          the helping caller)"
    "parpool.busy_ns"

(* Per-slot pool gauges: slot 0 is the calling domain (it runs chunk 0 and
   helps drain the queue), slots 1..8 are the lazily spawned workers —
   1 + Parpool.max_workers slots, fixed at declaration so the frozen shape
   never depends on how wide this machine happened to run.  The per-slot
   busy/idle/task levels sum to the pool-wide parpool.busy_ns /
   parpool.idle_ns / parpool.chunks counters (pinned by
   test/test_parallel.ml). *)

let pool_slots = 9
let pool_slot_label i = if i = 0 then "caller" else Printf.sprintf "w%d" i

let parpool_worker_busy_ns =
  Metrics.gauge ~slots:pool_slots ~slot_label:pool_slot_label
    ~doc:"Wall nanoseconds each pool slot spent executing chunks"
    "parpool.worker_busy_ns"

let parpool_worker_idle_ns =
  Metrics.gauge ~slots:pool_slots ~slot_label:pool_slot_label
    ~doc:"Wall nanoseconds each worker slot spent waiting for work"
    "parpool.worker_idle_ns"

let parpool_worker_tasks =
  Metrics.gauge ~slots:pool_slots ~slot_label:pool_slot_label
    ~doc:"Chunks each pool slot executed" "parpool.worker_tasks"

let parpool_queue_depth =
  Metrics.gauge ~doc:"Chunks currently enqueued and not yet claimed"
    "parpool.queue_depth"

let parpool_width =
  Metrics.gauge
    ~doc:"Current pool width: 1 caller + spawned worker domains"
    "parpool.width"

(* ---- GC, per evaluate phase (runtime: allocation depends on cache and
   scheduling state) ----------------------------------------------------- *)

type gc_phase = {
  minor_words : Metrics.counter;
  major_words : Metrics.counter;
  minor_collections : Metrics.counter;
  major_collections : Metrics.counter;
}

let gc_phase name ~during =
  let c stat doc =
    counter ~stability:runtime ~doc:(doc ^ " during " ^ during)
      (Printf.sprintf "gc.%s.%s" name stat)
  in
  {
    minor_words = c "minor_words" "Minor-heap words allocated";
    major_words = c "major_words" "Major-heap words allocated";
    minor_collections = c "minor_collections" "Minor collections";
    major_collections = c "major_collections" "Major collections";
  }

let gc_profile = gc_phase "profile" ~during:"profiling passes"
let gc_plan = gc_phase "plan" ~during:"planning + encoding"

let gc_count =
  gc_phase "count" ~during:"count phases (replay and any live run)"

let gc_heap_words =
  Metrics.gauge ~doc:"Major heap size in words at the last phase boundary"
    "gc.heap_words"

let gc_top_heap_words =
  Metrics.gauge
    ~doc:"Largest major heap size in words the process has reached, as \
          read at the last phase boundary"
    "gc.top_heap_words"

(* ---- spans (always runtime) ------------------------------------------- *)

let span_evaluate =
  Metrics.span ~doc:"One Pipeline.Evaluate.evaluate call end to end"
    "pipeline.evaluate"

let span_profile =
  Metrics.span
    ~doc:"The recording run (Cfg.Profile.run): profile, pc pairs and the \
          bus-invert tie count"
    "pipeline.profile"

let span_plan =
  Metrics.span ~doc:"Planning + encoding + hardware build, all block sizes"
    "pipeline.plan"

let span_count =
  Metrics.span ~doc:"Counting over all images: pair replay, plus any live run"
    "pipeline.count"

let span_encode_plan =
  Metrics.span ~doc:"One Program_encoder.plan call" "encode.plan"

let span_encode_block =
  Metrics.span ~doc:"One Program_encoder.encode_block call" "encode.block"

let span_encode_fanout =
  Metrics.span ~doc:"Per-line chain encodes of one block (pool or inline)"
    "encode.fanout"

let span_codetable_build =
  Metrics.span ~doc:"Building one (k, subset) code table" "codetable.build"
