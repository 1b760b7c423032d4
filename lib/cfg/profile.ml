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
}

let of_counts counts =
  {
    counts = Array.copy counts;
    total = Array.fold_left ( + ) 0 counts;
    first_pc = -1;
    seq = Array.make (Array.length counts) 0;
    jump_src = [||];
    jump_dst = [||];
    jump_count = [||];
  }

let run ?max_instructions ?on_fetch program =
  let n = Isa.Program.length program in
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
  let prev = ref (-2) and first = ref (-1) in
  let record ~pc =
    Array.unsafe_set counts pc (Array.unsafe_get counts pc + 1);
    let p = !prev in
    if pc = p + 1 then Array.unsafe_set seq p (Array.unsafe_get seq p + 1)
    else if p >= 0 then jump p pc
    else first := pc;
    prev := pc
  in
  let on_fetch =
    match on_fetch with
    | None -> record
    | Some f ->
        fun ~pc ->
          record ~pc;
          f ~pc
  in
  let state = Machine.Cpu.create_state () in
  let result = Machine.Cpu.run ?max_instructions ~on_fetch program state in
  let jumps =
    ref (Hashtbl.fold (fun key c acc -> (key / n, key mod n, c) :: acc) more [])
  in
  Array.iteri
    (fun src dst -> if dst >= 0 then jumps := (src, dst, jcnt.(src)) :: !jumps)
    jdst;
  let jumps = Array.of_list (List.sort compare !jumps) in
  let t =
    {
      counts;
      total = Array.fold_left ( + ) 0 counts;
      first_pc = !first;
      seq;
      jump_src = Array.map (fun (s, _, _) -> s) jumps;
      jump_dst = Array.map (fun (_, d, _) -> d) jumps;
      jump_count = Array.map (fun (_, _, c) -> c) jumps;
    }
  in
  (t, result, state)

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

let total t = t.total
let first_pc t = t.first_pc
let sequential_count t pc = t.seq.(pc)

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
