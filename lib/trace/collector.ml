module Ring = Telemetry.Ring

let enabled_flag = Atomic.make false
let enabled () = Atomic.get enabled_flag

let default_capacity = 65536

(* One mutex covers the ring and the fetch clock; recording is opt-in, so
   the lock is never on a default-configuration hot path. *)
let mutex = Mutex.create ()
let dummy = Event.Tt_program { time = 0; index = -1 }
let ring : Event.t Ring.t option ref = ref None
let fetch_count = ref 0

(* Per bus of the session (0 the baseline, [1 + i] encoded image [i]): its
   last word and running transitions, stamped on each Fetch and Bus event
   so that an export of a wrapped ring still reads exact totals. *)
let buses : (int, int * int) Hashtbl.t = Hashtbl.create 8

let transitions bus word =
  let total =
    match Hashtbl.find_opt buses bus with
    | Some (last, total) -> total + Bitutil.Popcount.count32 (last lxor word)
    | None -> 0
  in
  Hashtbl.replace buses bus (word, total);
  total

let locked f =
  Mutex.lock mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock mutex) f

let push ev = match !ring with Some r -> Ring.push r ev | None -> ()
let emit ev = if Atomic.get enabled_flag then locked (fun () -> push ev)

(* Read without the lock: a single-word read, and only the simulating
   domain both ticks the clock and stamps events with it. *)
let now () = max 0 (!fetch_count - 1)
let fetches () = !fetch_count

let fetch ~pc ~word =
  if Atomic.get enabled_flag then
    locked (fun () ->
        let time = !fetch_count in
        fetch_count := time + 1;
        push (Event.Fetch { time; pc; word; transitions = transitions 0 word }))

let bus ~pc ~encoded =
  if Atomic.get enabled_flag then
    locked (fun () ->
        let transitions =
          Array.mapi (fun i word -> transitions (1 + i) word) encoded
        in
        push (Event.Bus { time = now (); pc; encoded; transitions }))

let start ?(capacity = default_capacity) () =
  locked (fun () ->
      ring := Some (Ring.create ~capacity ~dummy);
      fetch_count := 0;
      Hashtbl.reset buses;
      Atomic.set enabled_flag true)

let stop () = Atomic.set enabled_flag false

let clear () =
  locked (fun () ->
      stop ();
      ring := None;
      fetch_count := 0)

let events () =
  locked (fun () -> match !ring with Some r -> Ring.to_list r | None -> [])

let dropped () =
  locked (fun () -> match !ring with Some r -> Ring.dropped r | None -> 0)
