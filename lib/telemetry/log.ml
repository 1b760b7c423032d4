(* Leveled structured event log over per-domain bounded rings.

   Domain-safety model: each of the [shards] is owned by the domains that
   hash to it ([Metrics] uses the same sharding for counters), and every
   shard carries its own mutex and [Ring].  Distinct domains normally land
   on distinct shards, so the lock is uncontended in practice; a shard
   collision costs contention, never correctness.  [events] locks each
   shard in turn and merge-sorts, exactly as [Metrics.freeze] sums shards. *)

type level = Debug | Info | Warn | Error

let level_name = function
  | Debug -> "debug"
  | Info -> "info"
  | Warn -> "warn"
  | Error -> "error"

let level_of_name = function
  | "debug" -> Some Debug
  | "info" -> Some Info
  | "warn" -> Some Warn
  | "error" -> Some Error
  | _ -> None

let level_rank = function Debug -> 0 | Info -> 1 | Warn -> 2 | Error -> 3

type value = Int of int | Float of float | Str of string | Bool of bool

type event = {
  seq : int;
  t_ns : float;
  domain : int;
  level : level;
  stability : Metrics.stability;
  event : string;
  span : string option;
  fields : (string * value) list;
}

(* ---- state ------------------------------------------------------------ *)

let enabled_flag = Atomic.make false
let enabled () = Atomic.get enabled_flag
let set_enabled b = Atomic.set enabled_flag b

let shard_count = 16
let shard_index () = (Domain.self () :> int) land (shard_count - 1)
let default_capacity = 8192

(* The rings hold [event option] so an unfilled slot is an immediate
   [None], which the major GC skips without a pointer to follow. *)
type shard = {
  mutex : Mutex.t;
  mutable ring : event option Ring.t;  (* [Ring.pushed] is the next seq *)
  levels : int array;  (* cumulative per-level emission counts *)
  slugs : (string, int) Hashtbl.t;  (* cumulative per-slug counts *)
}

let capacity = ref default_capacity
let fresh_ring () = Ring.create ~capacity:!capacity ~dummy:None

let shards =
  Array.init shard_count (fun _ ->
      {
        mutex = Mutex.create ();
        ring = fresh_ring ();
        levels = Array.make 4 0;
        slugs = Hashtbl.create 16;
      })

let with_shard s f =
  Mutex.lock s.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock s.mutex) f

let clear () =
  Array.iter
    (fun s ->
      with_shard s (fun () ->
          s.ring <- fresh_ring ();
          Array.fill s.levels 0 4 0;
          Hashtbl.reset s.slugs))
    shards

let set_capacity n =
  if n < 1 then invalid_arg "Telemetry.Log.set_capacity: capacity must be >= 1";
  capacity := n;
  clear ()

(* ---- run id ----------------------------------------------------------- *)

(* FNV-1a over pid and clock: unique enough to correlate one process's
   artifacts (log lines, sampler series, profiles), cheap, no extra
   dependency on a randomness source. *)
let fresh_run_id () =
  let fnv_prime = 0x100000001b3 in
  let step h x = (h lxor x) * fnv_prime land max_int in
  let h = step 0x3bf29ce484222325 (Unix.getpid ()) in
  let h = step h (int_of_float (Unix.gettimeofday () *. 1e6)) in
  Printf.sprintf "r%012x" (h land 0xffffffffffff)

let run_id_cell = ref None
let run_id_mutex = Mutex.create ()

let run_id () =
  Mutex.lock run_id_mutex;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock run_id_mutex)
    (fun () ->
      match !run_id_cell with
      | Some id -> id
      | None ->
          let id = fresh_run_id () in
          run_id_cell := Some id;
          id)

let set_run_id id =
  Mutex.lock run_id_mutex;
  run_id_cell := Some id;
  Mutex.unlock run_id_mutex

(* ---- emission --------------------------------------------------------- *)

let emit ?(stability = Metrics.Stable) level slug fields =
  if Atomic.get enabled_flag then begin
    let t_ns = Metrics.now_ns () and span = Metrics.current_span_path () in
    let s = shards.(shard_index ()) in
    with_shard s (fun () ->
        Ring.push s.ring
          (Some
             {
               seq = Ring.pushed s.ring;
               t_ns;
               domain = (Domain.self () :> int);
               level;
               stability;
               event = slug;
               span;
               fields;
             });
        s.levels.(level_rank level) <- s.levels.(level_rank level) + 1;
        Hashtbl.replace s.slugs slug
          (1 + Option.value ~default:0 (Hashtbl.find_opt s.slugs slug)))
  end

let debug ?stability slug fields = emit ?stability Debug slug fields
let info ?stability slug fields = emit ?stability Info slug fields
let warn ?stability slug fields = emit ?stability Warn slug fields
let error ?stability slug fields = emit ?stability Error slug fields

let events () =
  let all =
    Array.fold_left
      (fun acc s ->
        with_shard s (fun () ->
            List.fold_left
              (fun acc -> function Some e -> e :: acc | None -> acc)
              acc (Ring.to_list s.ring)))
      [] shards
  in
  List.sort
    (fun a b ->
      match Float.compare a.t_ns b.t_ns with
      | 0 -> (
          match compare a.domain b.domain with
          | 0 -> compare a.seq b.seq
          | c -> c)
      | c -> c)
    all

let sum_shards f =
  Array.fold_left (fun acc s -> with_shard s (fun () -> acc + f s)) 0 shards

let emitted () = sum_shards (fun s -> Array.fold_left ( + ) 0 s.levels)
let dropped () = sum_shards (fun s -> Ring.dropped s.ring)

let by_level () =
  let totals = Array.make 4 0 in
  Array.iter
    (fun s ->
      with_shard s (fun () ->
          Array.iteri (fun i n -> totals.(i) <- totals.(i) + n) s.levels))
    shards;
  [
    ("debug", totals.(0)); ("error", totals.(3)); ("info", totals.(1));
    ("warn", totals.(2));
  ]

let by_event () =
  let tally = Hashtbl.create 32 in
  Array.iter
    (fun s ->
      with_shard s (fun () ->
          Hashtbl.iter
            (fun slug n ->
              Hashtbl.replace tally slug
                (n + Option.value ~default:0 (Hashtbl.find_opt tally slug)))
            s.slugs))
    shards;
  Hashtbl.fold (fun slug n acc -> (slug, n) :: acc) tally []
  |> List.sort compare

(* ---- JSON line codec -------------------------------------------------- *)

(* Floats always carry '.' or an exponent so the parser can give the
   constructor back; %.17g round-trips every finite double exactly. *)
let json_float f =
  let s = Printf.sprintf "%.17g" f in
  if
    String.exists (fun c -> c = '.' || c = 'e' || c = 'E' || c = 'n' || c = 'i')
      s
  then s
  else s ^ ".0"

let value_json = function
  | Int i -> string_of_int i
  | Float f -> json_float f
  | Str s -> "\"" ^ Json.escape s ^ "\""
  | Bool b -> string_of_bool b

let to_json e =
  let b = Buffer.create 192 in
  Printf.bprintf b
    "{\"run_id\":\"%s\",\"t_ns\":%s,\"domain\":%d,\"seq\":%d,\"level\":\"%s\",\"stability\":\"%s\",\"event\":\"%s\""
    (Json.escape (run_id ()))
    (json_float e.t_ns) e.domain e.seq (level_name e.level)
    (Metrics.stability_name e.stability)
    (Json.escape e.event);
  (match e.span with
  | Some p -> Printf.bprintf b ",\"span\":\"%s\"" (Json.escape p)
  | None -> ());
  Buffer.add_string b ",\"fields\":{";
  List.iteri
    (fun i (k, v) ->
      if i > 0 then Buffer.add_char b ',';
      Printf.bprintf b "\"%s\":%s" (Json.escape k) (value_json v))
    e.fields;
  Buffer.add_string b "}}";
  Buffer.contents b

(* Field extraction over [Json.of_string]: members in any order, the first
   of duplicate keys wins, unknown members are ignored. *)
exception Bad of string

let of_json line =
  let fail msg = raise (Bad msg) in
  try
    let doc = Json.of_string line in
    let get key =
      match Json.member key doc with
      | Some v -> v
      | None -> fail (Printf.sprintf "missing %S" key)
    in
    let str key =
      match get key with Json.Str s -> s | _ -> fail (key ^ " must be a string")
    in
    let int key =
      match get key with
      | Json.Int i -> i
      | _ -> fail (key ^ " must be an integer")
    in
    let scalar = function
      | Json.Int i -> Int i
      | Json.Float f -> Float f
      | Json.Str s -> Str s
      | Json.Bool b -> Bool b
      | Json.Null | Json.Arr _ | Json.Obj _ -> fail "expected a scalar value"
    in
    let event =
      {
        seq = int "seq";
        t_ns =
          (match get "t_ns" with
          | Json.Float f -> f
          | Json.Int i -> float_of_int i
          | _ -> fail "t_ns must be a number");
        domain = int "domain";
        level =
          (match level_of_name (str "level") with
          | Some l -> l
          | None -> fail "unknown level");
        stability =
          (match str "stability" with
          | "stable" -> Metrics.Stable
          | "runtime" -> Metrics.Runtime
          | _ -> fail "unknown stability");
        event = str "event";
        span = Option.map (fun _ -> str "span") (Json.member "span" doc);
        fields =
          (match get "fields" with
          | Json.Obj fs -> List.map (fun (k, v) -> (k, scalar v)) fs
          | _ -> fail "fields must be an object");
      }
    in
    Ok (str "run_id", event)
  with Bad msg | Json.Parse_error msg -> Error msg

let stable_key e =
  let b = Buffer.create 96 in
  Buffer.add_string b (level_name e.level);
  Buffer.add_char b '|';
  Buffer.add_string b e.event;
  Buffer.add_char b '|';
  Buffer.add_string b (Option.value ~default:"" e.span);
  List.iter
    (fun (k, v) ->
      Buffer.add_char b '|';
      Buffer.add_string b k;
      Buffer.add_char b '=';
      Buffer.add_string b (value_json v))
    e.fields;
  Buffer.contents b
