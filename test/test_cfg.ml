module Block = Cfg.Block
module Dominator = Cfg.Dominator
module Loop = Cfg.Loop
module Profile = Cfg.Profile
module Asm = Isa.Asm
module Program = Isa.Program

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let straight_line = "nop\nnop\nnop\nli $v0, 10\nsyscall"

let diamond =
  {|
    li $t0, 1
    beq $t0, $zero, left
    nop
    j join
  left:
    nop
  join:
    li $v0, 10
    syscall
  |}

let simple_loop =
  {|
    li $t0, 5
  head:
    addiu $t0, $t0, -1
    bgtz $t0, head
    li $v0, 10
    syscall
  |}

let nested_loops =
  {|
    li $t0, 3
  outer:
    li $t1, 3
  inner:
    addiu $t1, $t1, -1
    bgtz $t1, inner
    addiu $t0, $t0, -1
    bgtz $t0, outer
    li $v0, 10
    syscall
  |}

let blocks_of src = Block.partition (Program.insns (Asm.assemble src))

let test_straight_line () =
  let blocks = blocks_of straight_line in
  check_int "one block" 1 (Array.length blocks);
  check_int "len" 5 blocks.(0).Block.len;
  check_bool "exit terminator" true (blocks.(0).Block.terminator = Block.Exit)

let test_diamond_structure () =
  let blocks = blocks_of diamond in
  check_int "four blocks" 4 (Array.length blocks);
  Alcotest.(check (list int)) "entry succs" [ 1; 2 ] blocks.(0).Block.succs;
  Alcotest.(check (list int)) "left preds" [ 0 ] blocks.(2).Block.preds;
  Alcotest.(check (list int)) "join preds" [ 1; 2 ] blocks.(3).Block.preds

let test_blocks_tile_program () =
  List.iter
    (fun src ->
      let p = Asm.assemble src in
      let blocks = blocks_of src in
      let covered = Array.make (Program.length p) 0 in
      Array.iter
        (fun b ->
          for i = b.Block.start to b.Block.start + b.Block.len - 1 do
            covered.(i) <- covered.(i) + 1
          done)
        blocks;
      Array.iteri
        (fun i c -> if c <> 1 then Alcotest.failf "insn %d covered %d times" i c)
        covered)
    [ straight_line; diamond; simple_loop; nested_loops ]

let test_block_at () =
  let blocks = blocks_of diamond in
  check_int "insn 0 in block 0" 0 (Block.block_at blocks 0).Block.index;
  check_int "last insn in last block" 3
    (Block.block_at blocks 6).Block.index

let test_no_branch_into_middle () =
  (* by construction every branch target is a block start *)
  List.iter
    (fun src ->
      let p = Asm.assemble src in
      let insns = Program.insns p in
      let blocks = blocks_of src in
      let starts = Array.to_list (Array.map (fun b -> b.Block.start) blocks) in
      Array.iteri
        (fun i insn ->
          let target =
            match Isa.Insn.branch_offset insn with
            | Some off -> Some (i + 1 + off)
            | None -> Isa.Insn.jump_target insn
          in
          match target with
          | Some t when not (List.mem t starts) ->
              Alcotest.failf "branch at %d targets mid-block %d" i t
          | Some _ | None -> ())
        insns)
    [ diamond; simple_loop; nested_loops ]

(* ---- dominators ------------------------------------------------------------ *)

let test_dominators_diamond () =
  let blocks = blocks_of diamond in
  let doms = Dominator.compute blocks in
  check_bool "entry dominates all" true
    (List.for_all
       (fun b -> Dominator.dominates doms ~dom:0 ~sub:b)
       [ 0; 1; 2; 3 ]);
  check_bool "left does not dominate join" false
    (Dominator.dominates doms ~dom:2 ~sub:3);
  Alcotest.(check (option int)) "idom of join" (Some 0)
    (Dominator.immediate doms 3);
  Alcotest.(check (option int)) "idom of entry" None (Dominator.immediate doms 0)

let test_dominators_self () =
  let blocks = blocks_of simple_loop in
  let doms = Dominator.compute blocks in
  Array.iter
    (fun b ->
      check_bool "self-domination" true
        (Dominator.dominates doms ~dom:b.Block.index ~sub:b.Block.index))
    blocks

let test_unreachable () =
  (* the block after an unconditional jump that nothing targets *)
  let src = {|
      j out
      nop
    out:
      li $v0, 10
      syscall
    |} in
  let blocks = blocks_of src in
  let doms = Dominator.compute blocks in
  check_bool "entry reachable" true (Dominator.reachable doms 0);
  let unreachable =
    Array.to_list blocks
    |> List.filter (fun b -> not (Dominator.reachable doms b.Block.index))
  in
  check_int "one unreachable block" 1 (List.length unreachable)

(* ---- loops ------------------------------------------------------------------ *)

let test_simple_loop_detected () =
  let blocks = blocks_of simple_loop in
  let doms = Dominator.compute blocks in
  let loops = Loop.detect blocks doms in
  check_int "one loop" 1 (List.length loops);
  let l = List.hd loops in
  check_int "header is block 1" 1 l.Loop.header;
  check_int "depth" 1 l.Loop.depth

let test_nested_loops_detected () =
  let blocks = blocks_of nested_loops in
  let doms = Dominator.compute blocks in
  let loops = Loop.detect blocks doms in
  check_int "two loops" 2 (List.length loops);
  let inner =
    List.find (fun (l : Loop.t) -> l.Loop.depth = 2) loops
  in
  let outer = List.find (fun (l : Loop.t) -> l.Loop.depth = 1) loops in
  check_bool "inner inside outer" true
    (List.for_all (fun b -> Loop.contains outer b) inner.Loop.body)

let test_innermost () =
  let blocks = blocks_of nested_loops in
  let doms = Dominator.compute blocks in
  let loops = Loop.detect blocks doms in
  let inner = List.find (fun (l : Loop.t) -> l.Loop.depth = 2) loops in
  match Loop.innermost loops inner.Loop.header with
  | Some l -> check_int "innermost depth" 2 l.Loop.depth
  | None -> Alcotest.fail "expected a loop"

let test_no_loops_in_straight_line () =
  let blocks = blocks_of straight_line in
  let doms = Dominator.compute blocks in
  check_int "no loops" 0 (List.length (Loop.detect blocks doms))

(* ---- profile ----------------------------------------------------------------- *)

let test_profile_counts () =
  let p = Asm.assemble simple_loop in
  let profile, result = Profile.collect p in
  check_int "total = dynamic instructions" result.Machine.Cpu.instructions
    (Profile.total profile);
  (* loop body (block 1, two instructions) executes 5 times *)
  let blocks = Block.partition (Program.insns p) in
  check_int "loop weight" 5 (Profile.block_weight profile blocks.(1));
  check_int "loop fetches" 10 (Profile.block_fetches profile blocks.(1))

let test_hot_blocks_order () =
  let p = Asm.assemble nested_loops in
  let profile, _ = Profile.collect p in
  let blocks = Block.partition (Program.insns p) in
  match Profile.hot_blocks profile blocks with
  | hottest :: _ ->
      (* the inner loop body must be the hottest block *)
      let inner_weight = Profile.block_fetches profile hottest in
      Array.iter
        (fun b ->
          check_bool "hottest first" true
            (Profile.block_fetches profile b <= inner_weight))
        blocks
  | [] -> Alcotest.fail "no hot blocks"

(* ---- pair profile ------------------------------------------------------------ *)

(* a counted loop around a call: sequential pairs, a taken back edge, and
   the call and return jumps *)
let loop_with_call =
  {|
    li $t0, 3
  loop:
    jal f
    addiu $t0, $t0, -1
    bgtz $t0, loop
    li $v0, 10
    syscall
  f:
    addiu $t1, $t1, 1
    jr $ra
  |}

let pairs_of profile =
  let acc = ref [] in
  Profile.iter_pairs profile (fun ~src ~dst ~count ->
      acc := (src, dst, count) :: !acc);
  List.rev !acc

let test_pair_profile_sums () =
  List.iter
    (fun src ->
      let p = Asm.assemble src in
      let profile, result = Profile.collect p in
      let n = result.Machine.Cpu.instructions in
      let seq = ref 0 and jumps = ref 0 in
      for pc = 0 to Program.length p - 1 do
        seq := !seq + Profile.sequential_count profile pc
      done;
      Profile.iter_jumps profile (fun ~src ~dst ~count ->
          check_bool "a jump is non-sequential" true (dst <> src + 1);
          jumps := !jumps + count);
      check_int "sequential + jumps = instructions - 1" (n - 1) (!seq + !jumps);
      (* every fetch but the first enters its pc through exactly one pair *)
      let pairs = pairs_of profile in
      for pc = 0 to Program.length p - 1 do
        let into =
          List.fold_left (fun s (_, d, c) -> if d = pc then s + c else s) 0 pairs
        in
        check_int
          (Printf.sprintf "in-degree of pc %d" pc)
          (Profile.instruction_count profile pc)
          (into + if pc = Profile.first_pc profile then 1 else 0)
      done;
      (* the pair sum is the per-fetch count of the stream *)
      let words = Program.words p in
      let live = ref 0 and prev = ref None in
      ignore
        (Machine.Cpu.run
           ~on_fetch:(fun ~pc ->
             Option.iter
               (fun w -> live := !live + Bitutil.Popcount.count32 (w lxor words.(pc)))
               !prev;
             prev := Some words.(pc))
           p (Machine.Cpu.create_state ()));
      check_int "pair transitions = per-fetch transitions" !live
        (Profile.pair_transitions profile words))
    [ straight_line; diamond; simple_loop; nested_loops; loop_with_call ]

let test_pair_profile_pinned () =
  let p = Asm.assemble loop_with_call in
  let profile, result = Profile.collect p in
  (* 0 (1 6 7 2 3)x3 4 5 *)
  check_int "fetches" 18 result.Machine.Cpu.instructions;
  check_int "first pc" 0 (Profile.first_pc profile);
  Alcotest.(check (list (pair int int)))
    "sequential counts" [ (0, 1); (2, 3); (3, 1); (4, 1); (6, 3) ]
    (List.filter_map
       (fun pc ->
         match Profile.sequential_count profile pc with
         | 0 -> None
         | c -> Some (pc, c))
       (List.init (Program.length p) Fun.id));
  let jumps = ref [] in
  Profile.iter_jumps profile (fun ~src ~dst ~count ->
      jumps := (src, dst, count) :: !jumps);
  Alcotest.(check (list (triple int int int)))
    "call, return and back edge" [ (1, 6, 3); (3, 1, 2); (7, 2, 3) ]
    (List.rev !jumps);
  (* with pc p driving the word p: 1+3+3+1+3 sequential, 9+2+6 jumps *)
  check_int "pair transitions" 28
    (Profile.pair_transitions profile (Array.init (Program.length p) Fun.id))

(* A recorder fed a live run's fetches holds the profile [collect]
   records; the same stream with one jump more does not. *)
let test_recorder_equals_collect () =
  List.iter
    (fun (w : Workloads.t) ->
      let p = (Workloads.compile w).Minic.Compile.program in
      let collected, _ = Profile.collect p in
      let live () =
        let record, finish = Profile.recorder p in
        ignore
          (Machine.Cpu.run ~on_fetch:record p (Machine.Cpu.create_state ()));
        (record, finish)
      in
      let _, finish = live () in
      check_bool (w.name ^ ": recorder = collect") true
        (Profile.equal (finish ()) collected);
      let record, finish = live () in
      (* from the exit back to the entry *)
      record ~pc:(Profile.first_pc collected);
      check_bool (w.name ^ ": one jump more") false
        (Profile.equal (finish ()) collected))
    (Workloads.scaled @ Workloads.extended)

let test_coverage () =
  let p = Asm.assemble simple_loop in
  let profile, _ = Profile.collect p in
  let blocks = Block.partition (Program.insns p) in
  let all = Array.to_list blocks in
  Alcotest.(check (float 1e-9)) "full coverage" 1.0 (Profile.coverage profile all);
  Alcotest.(check (float 1e-9)) "empty coverage" 0.0 (Profile.coverage profile [])

let () =
  Alcotest.run "cfg"
    [
      ( "blocks",
        [
          Alcotest.test_case "straight line" `Quick test_straight_line;
          Alcotest.test_case "diamond" `Quick test_diamond_structure;
          Alcotest.test_case "tiling" `Quick test_blocks_tile_program;
          Alcotest.test_case "block_at" `Quick test_block_at;
          Alcotest.test_case "targets are leaders" `Quick
            test_no_branch_into_middle;
        ] );
      ( "dominators",
        [
          Alcotest.test_case "diamond" `Quick test_dominators_diamond;
          Alcotest.test_case "self" `Quick test_dominators_self;
          Alcotest.test_case "unreachable" `Quick test_unreachable;
        ] );
      ( "loops",
        [
          Alcotest.test_case "simple" `Quick test_simple_loop_detected;
          Alcotest.test_case "nested" `Quick test_nested_loops_detected;
          Alcotest.test_case "innermost" `Quick test_innermost;
          Alcotest.test_case "none" `Quick test_no_loops_in_straight_line;
        ] );
      ( "profile",
        [
          Alcotest.test_case "counts" `Quick test_profile_counts;
          Alcotest.test_case "hot order" `Quick test_hot_blocks_order;
          Alcotest.test_case "coverage" `Quick test_coverage;
          Alcotest.test_case "pair sums" `Quick test_pair_profile_sums;
          Alcotest.test_case "pairs of a loop with a call" `Quick
            test_pair_profile_pinned;
          Alcotest.test_case "recorder = collect" `Quick
            test_recorder_equals_collect;
        ] );
    ]
