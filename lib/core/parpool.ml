module Metrics = Telemetry.Metrics
module Tel = Telemetry.Registry
module Log = Telemetry.Log

let sequential_mode () = Sys.getenv_opt "POWERCODE_SEQ" = Some "1"

(* Workers beyond ~8 stop paying for themselves on 32-line fan-outs and the
   blocks are short; cap the pool rather than grabbing every core. *)
let max_workers = 8

(* POWERCODE_DOMAINS pins the *total* domain count (caller + workers) so
   the bench domains sweep and CI can request deterministic widths on any
   machine.  Values above the physical core count deliberately
   oversubscribe — single-core CI runners still need to exercise the
   multi-domain code paths — and the pool cap still applies. *)
let requested_domains () =
  match Sys.getenv_opt "POWERCODE_DOMAINS" with
  | None -> None
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some n when n >= 1 -> Some n
      | _ -> None)

let worker_count () =
  match requested_domains () with
  | Some n -> min max_workers (n - 1)
  | None -> max 0 (min max_workers (Domain.recommended_domain_count () - 1))

(* Each [parallel_init] call is one job: a shared task queue plus a
   per-call remaining-chunk counter so that concurrent callers (should they
   ever appear) wait only for their own chunks. *)
type job = {
  mutable remaining : int;
  mutable failure : exn option;
}

type pool = {
  mutex : Mutex.t;
  work_available : Condition.t;
  job_finished : Condition.t;
  mutable queue : (job * (unit -> unit)) list;
  mutable stop : bool;
  mutable domains : unit Domain.t list;
}

(* Which per-worker gauge slot this domain reports under: 0 is the calling
   domain (it runs chunk 0 and helps drain), workers get 1..max_workers at
   spawn.  The slot is stable for the domain's lifetime, so per-slot
   busy/idle/task levels partition the pool-wide counters exactly
   (asserted by test/test_parallel.ml). *)
let pool_slot = Domain.DLS.new_key (fun () -> 0)

let finish_chunk pool job =
  (* called with [pool.mutex] held *)
  job.remaining <- job.remaining - 1;
  if job.remaining = 0 then Condition.broadcast pool.job_finished

let run_chunk pool job thunk =
  (* called with [pool.mutex] held; runs the chunk unlocked *)
  let slot = Domain.DLS.get pool_slot in
  Metrics.incr Tel.parpool_chunks;
  Metrics.add_gauge Tel.parpool_worker_tasks slot 1;
  Mutex.unlock pool.mutex;
  let timed = Metrics.enabled () in
  let t0 = if timed then Metrics.now_ns () else 0.0 in
  (try thunk ()
   with exn ->
     Mutex.lock pool.mutex;
     if job.failure = None then job.failure <- Some exn;
     Mutex.unlock pool.mutex);
  if timed then begin
    let busy = int_of_float (Float.max 0.0 (Metrics.now_ns () -. t0)) in
    Metrics.add Tel.parpool_busy_ns busy;
    Metrics.add_gauge Tel.parpool_worker_busy_ns slot busy
  end;
  Mutex.lock pool.mutex;
  finish_chunk pool job

let rec worker_loop pool =
  (* entered with [pool.mutex] held *)
  if pool.stop then begin
    Mutex.unlock pool.mutex;
    (* Runtime stability: exit order depends on scheduling, and the pool
       only stops at process exit, so the event never lands in a bench
       window. *)
    if Log.enabled () then
      Log.debug ~stability:Metrics.Runtime "parpool.worker_exit"
        [ ("slot", Log.Int (Domain.DLS.get pool_slot)) ]
  end
  else
    match pool.queue with
    | (job, thunk) :: rest ->
        pool.queue <- rest;
        Metrics.add_gauge Tel.parpool_queue_depth 0 (-1);
        run_chunk pool job thunk;
        worker_loop pool
    | [] ->
        (* the wait below is exactly the domain's idle time *)
        if Metrics.enabled () then begin
          let t0 = Metrics.now_ns () in
          Condition.wait pool.work_available pool.mutex;
          let idle = int_of_float (Float.max 0.0 (Metrics.now_ns () -. t0)) in
          Metrics.add Tel.parpool_idle_ns idle;
          Metrics.add_gauge Tel.parpool_worker_idle_ns
            (Domain.DLS.get pool_slot) idle
        end
        else Condition.wait pool.work_available pool.mutex;
        worker_loop pool

let shutdown pool =
  Mutex.lock pool.mutex;
  pool.stop <- true;
  Condition.broadcast pool.work_available;
  Mutex.unlock pool.mutex;
  List.iter Domain.join pool.domains;
  pool.domains <- []

let the_pool = ref None
let pool_mutex = Mutex.create ()

(* Nested parallelism guard: a worker domain that calls [parallel_init]
   (e.g. a fault-campaign injection whose rebuild encodes a large block)
   must not enqueue onto the pool it is itself draining — with every
   worker busy on outer chunks the inner job could wait forever.  Workers
   mark their domain and nested calls run sequentially; the outer fan-out
   already owns all the parallelism there is. *)
let in_worker_domain = Domain.DLS.new_key (fun () -> false)

let spawn_worker pool slot =
  Domain.spawn (fun () ->
      Domain.DLS.set in_worker_domain true;
      Domain.DLS.set pool_slot slot;
      if Log.enabled () then
        Log.debug ~stability:Metrics.Runtime "parpool.worker_start"
          [ ("slot", Log.Int slot) ];
      Mutex.lock pool.mutex;
      worker_loop pool)

(* The pool grows lazily to the currently requested worker count, so a
   POWERCODE_DOMAINS sweep within one process (the bench does this) gets
   the width it asks for.  Domains are never retired below the high-water
   mark — idle workers just sleep on the condition variable. *)
let get_pool () =
  let want = worker_count () in
  if want = 0 then None
  else begin
    Mutex.lock pool_mutex;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock pool_mutex)
      (fun () ->
        let pool =
          match !the_pool with
          | Some p -> p
          | None ->
              let pool =
                {
                  mutex = Mutex.create ();
                  work_available = Condition.create ();
                  job_finished = Condition.create ();
                  queue = [];
                  stop = false;
                  domains = [];
                }
              in
              at_exit (fun () -> shutdown pool);
              the_pool := Some pool;
              pool
        in
        let have = List.length pool.domains in
        if want > have then
          pool.domains <-
            pool.domains
            @ List.init (want - have) (fun i ->
                  spawn_worker pool (have + i + 1));
        Metrics.set_gauge Tel.parpool_width 0 (1 + List.length pool.domains);
        Some pool)
  end

let parallel_init n f =
  if n < 0 then invalid_arg "Parpool.parallel_init: negative length";
  if n <= 1 || sequential_mode () || Domain.DLS.get in_worker_domain then begin
    Metrics.incr Tel.parpool_seq_fallbacks;
    Array.init n f
  end
  else
    match get_pool () with
    | None ->
        Metrics.incr Tel.parpool_seq_fallbacks;
        Array.init n f
    | Some pool ->
        Metrics.incr Tel.parpool_jobs;
        let results = Array.make n None in
        let nchunks = min n (worker_count () + 1) in
        let job = { remaining = nchunks; failure = None } in
        (* every chunk claims its next index from one counter, so a domain
           that drew cheap indices takes more of them and uneven per-index
           cost evens out across domains *)
        let next = Atomic.make 0 in
        let chunk () =
          let rec claim () =
            let i = Atomic.fetch_and_add next 1 in
            if i < n then begin
              results.(i) <- Some (f i);
              claim ()
            end
          in
          claim ()
        in
        Mutex.lock pool.mutex;
        for _ = 1 to nchunks - 1 do
          pool.queue <- pool.queue @ [ (job, chunk) ]
        done;
        Metrics.add_gauge Tel.parpool_queue_depth 0 (nchunks - 1);
        Condition.broadcast pool.work_available;
        (* the caller runs one chunk itself, then helps drain the queue *)
        run_chunk pool job chunk;
        let rec help () =
          match pool.queue with
          | (j, thunk) :: rest when j == job ->
              pool.queue <- rest;
              Metrics.add_gauge Tel.parpool_queue_depth 0 (-1);
              run_chunk pool job thunk;
              help ()
          | _ -> ()
        in
        help ();
        while job.remaining > 0 do
          Condition.wait pool.job_finished pool.mutex
        done;
        Mutex.unlock pool.mutex;
        (match job.failure with Some exn -> raise exn | None -> ());
        Array.map
          (function Some v -> v | None -> assert false)
          results
