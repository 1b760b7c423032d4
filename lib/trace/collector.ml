module Ring = Telemetry.Ring

let enabled_flag = Atomic.make false
let enabled () = Atomic.get enabled_flag

let default_capacity = 65536

(* One mutex covers the ring and the fetch clock: fetch events are emitted
   by the single simulating domain, span events by pool workers; recording
   is opt-in, so the lock is never on a default-configuration hot path. *)
let mutex = Mutex.create ()
let dummy = Event.Tt_program { time = 0; index = -1 }
let ring : Event.t Ring.t option ref = ref None
let fetch_count = ref 0

let locked f =
  Mutex.lock mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock mutex) f

let emit ev =
  if Atomic.get enabled_flag then
    locked (fun () -> match !ring with Some r -> Ring.push r ev | None -> ())

let fetch ~pc ~word =
  if Atomic.get enabled_flag then
    locked (fun () ->
        let time = !fetch_count in
        fetch_count := time + 1;
        match !ring with
        | Some r -> Ring.push r (Event.Fetch { time; pc; word })
        | None -> ())

(* Read without the lock: a single-word read, and only the simulating
   domain both ticks the clock and stamps events with it. *)
let now () = max 0 (!fetch_count - 1)
let fetches () = !fetch_count

let start ?(capacity = default_capacity) () =
  locked (fun () ->
      ring := Some (Ring.create ~capacity ~dummy);
      fetch_count := 0);
  Telemetry.Metrics.set_span_hook
    (Some
       (fun ~path ~start_ns ~stop_ns ->
         emit
           (Event.Span
              { path; tid = (Domain.self () :> int); start_ns; stop_ns })));
  Atomic.set enabled_flag true

let stop () =
  Atomic.set enabled_flag false;
  Telemetry.Metrics.set_span_hook None

let clear () =
  stop ();
  locked (fun () ->
      ring := None;
      fetch_count := 0)

let events () =
  locked (fun () -> match !ring with Some r -> Ring.to_list r | None -> [])

let dropped () =
  locked (fun () -> match !ring with Some r -> Ring.dropped r | None -> 0)
