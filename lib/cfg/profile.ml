(* [seq.(pc)] counts the fetches of [pc + 1] straight after [pc]; every
   other consecutive pair is a jump, kept as three parallel arrays sorted
   by (src, dst). *)
type t = {
  counts : int array;
  total : int;
  first_pc : int;
  seq : int array;
  jump_src : int array;
  jump_dst : int array;
  jump_count : int array;
  businvert : int;
}

module Businvert = Buspower.Businvert

(* the bus the program's own words drive *)
let width = 32

let recorder program =
  let n = Isa.Program.length program in
  let words = Isa.Program.words program in
  let counts = Array.make n 0 and seq = Array.make n 0 in
  (* the first destination seen from each source gets a slot in two flat
     arrays; further ones (a return to several call sites) go to a table *)
  let jdst = Array.make n (-1) and jcnt = Array.make n 0 in
  let more = Hashtbl.create 16 in
  let jump src dst =
    let d = Array.unsafe_get jdst src in
    if d = dst then Array.unsafe_set jcnt src (Array.unsafe_get jcnt src + 1)
    else if d < 0 then begin
      jdst.(src) <- dst;
      jcnt.(src) <- 1
    end
    else
      let key = (src * n) + dst in
      Hashtbl.replace more key
        (1 + Option.value ~default:0 (Hashtbl.find_opt more key))
  in
  (* bus-invert's one path-dependent term: the invert line, walked through
     each fetch's line step (looked up for the sequential pair, one
     popcount for a jump), and the ties taken while it was high *)
  let steps =
    Array.init n (fun pc ->
        if pc + 1 < n then Businvert.line_step ~width words.(pc) words.(pc + 1)
        else Businvert.Keep)
  in
  let line = ref false and ties = ref 0 in
  let prev = ref (-2) and first = ref (-1) in
  (* the run's profile; it shares [counts] and [seq], so call it once the
     run has ended.  It is compiled before [record]: in the other order the
     same machine code for [record] moved off its 64-byte alignment, and
     cold [sweep] evaluates measured ~7 % slower on a 2-core Xeon host. *)
  let finish () =
    let jumps =
      ref
        (Hashtbl.fold (fun key c acc -> (key / n, key mod n, c) :: acc) more [])
    in
    Array.iteri
      (fun src dst ->
        if dst >= 0 then jumps := (src, dst, jcnt.(src)) :: !jumps)
      jdst;
    let jumps = Array.of_list (List.sort compare !jumps) in
    let businvert = ref !ties in
    let pair src dst count =
      businvert :=
        !businvert
        + (count * Businvert.pair_cost ~width words.(src) words.(dst))
    in
    Array.iteri (fun pc c -> if c > 0 then pair pc (pc + 1) c) seq;
    Array.iter (fun (src, dst, c) -> pair src dst c) jumps;
    {
      counts;
      total = Array.fold_left ( + ) 0 counts;
      first_pc = !first;
      seq;
      jump_src = Array.map (fun (s, _, _) -> s) jumps;
      jump_dst = Array.map (fun (_, d, _) -> d) jumps;
      jump_count = Array.map (fun (_, _, c) -> c) jumps;
      businvert = !businvert;
    }
  in
  let record ~pc =
    Array.unsafe_set counts pc (Array.unsafe_get counts pc + 1);
    let p = !prev in
    let step =
      if pc = p + 1 then begin
        Array.unsafe_set seq p (Array.unsafe_get seq p + 1);
        Array.unsafe_get steps p
      end
      else if p >= 0 then begin
        jump p pc;
        Businvert.line_step ~width (Array.unsafe_get words p)
          (Array.unsafe_get words pc)
      end
      else begin
        first := pc;
        line := Businvert.first_invert ~width (Array.unsafe_get words pc);
        Businvert.Keep
      end
    in
    (match step with
    | Keep -> ()
    | Toggle -> line := not !line
    | Tie ->
        if !line then begin
          incr ties;
          line := false
        end);
    prev := pc
  in
  (record, finish)

let run ?max_instructions program =
  let record, finish = recorder program in
  let state = Machine.Cpu.create_state () in
  let result =
    Machine.Cpu.run ?max_instructions ~on_fetch:record program state
  in
  (finish (), result, state)

let collect ?max_instructions program =
  let t, result, _ = run ?max_instructions program in
  (t, result)

let instruction_count t i = t.counts.(i)
let block_weight t (b : Block.t) = t.counts.(b.start)

let block_fetches t (b : Block.t) =
  let sum = ref 0 in
  for i = b.start to b.start + b.len - 1 do
    sum := !sum + t.counts.(i)
  done;
  !sum

let equal a b =
  a.first_pc = b.first_pc && a.businvert = b.businvert && a.counts = b.counts
  && a.seq = b.seq && a.jump_src = b.jump_src && a.jump_dst = b.jump_dst
  && a.jump_count = b.jump_count
let total t = t.total
let first_pc t = t.first_pc
let sequential_count t pc = t.seq.(pc)
let businvert_transitions t = t.businvert

let iter_jumps t f =
  Array.iteri
    (fun j src -> f ~src ~dst:t.jump_dst.(j) ~count:t.jump_count.(j))
    t.jump_src

let iter_pairs t f =
  Array.iteri
    (fun pc c -> if c > 0 then f ~src:pc ~dst:(pc + 1) ~count:c)
    t.seq;
  iter_jumps t f

let pair_transitions t image =
  let popcount = Bitutil.Popcount.count32 in
  let sum = ref 0 in
  (* seq's last slot is always 0: no pc follows the last instruction *)
  for pc = 0 to Array.length t.seq - 2 do
    let c = Array.unsafe_get t.seq pc in
    if c > 0 then sum := !sum + (c * popcount (image.(pc) lxor image.(pc + 1)))
  done;
  for j = 0 to Array.length t.jump_src - 1 do
    sum :=
      !sum
      + t.jump_count.(j)
        * popcount (image.(t.jump_src.(j)) lxor image.(t.jump_dst.(j)))
  done;
  !sum

let hot_blocks t blocks =
  Array.to_list blocks
  |> List.filter (fun b -> block_fetches t b > 0)
  |> List.stable_sort (fun a b -> Int.compare (block_fetches t b) (block_fetches t a))

let coverage t subset =
  if t.total = 0 then 0.0
  else
    let inside =
      List.fold_left (fun acc b -> acc + block_fetches t b) 0 subset
    in
    float_of_int inside /. float_of_int t.total
