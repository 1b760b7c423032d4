type terminator =
  | Fallthrough
  | Branch of { target : int; fallthrough : int }
  | Jump of { target : int }
  | Indirect
  | Exit

type t = {
  index : int;
  start : int;
  len : int;
  terminator : terminator;
  succs : int list;
  preds : int list;
}

let control_target insns i =
  let insn = insns.(i) in
  match Isa.Insn.branch_offset insn with
  | Some off -> Some (i + 1 + off)
  | None -> Isa.Insn.jump_target insn

let check_target n i target =
  if target < 0 || target >= n then
    invalid_arg
      (Printf.sprintf
         "Cfg.Block.partition: instruction %d targets %d outside program" i
         target)

let partition insns =
  let n = Array.length insns in
  if n = 0 then invalid_arg "Cfg.Block.partition: empty program";
  let leader = Array.make n false in
  leader.(0) <- true;
  Array.iteri
    (fun i insn ->
      (match control_target insns i with
      | Some target ->
          check_target n i target;
          leader.(target) <- true
      | None -> ());
      if Isa.Insn.is_branch insn || Isa.Insn.is_jump insn then
        if i + 1 < n then leader.(i + 1) <- true)
    insns;
  (* Collect block extents in address order. *)
  let starts = ref [] in
  for i = n - 1 downto 0 do
    if leader.(i) then starts := i :: !starts
  done;
  let starts = Array.of_list !starts in
  let nb = Array.length starts in
  let block_of_insn = Array.make n 0 in
  Array.iteri
    (fun bi s ->
      let e = if bi + 1 < nb then starts.(bi + 1) else n in
      for i = s to e - 1 do
        block_of_insn.(i) <- bi
      done)
    starts;
  let terminator_of bi =
    let e = if bi + 1 < nb then starts.(bi + 1) else n in
    let last = e - 1 in
    let insn = insns.(last) in
    if Isa.Insn.is_branch insn then
      let target =
        match control_target insns last with Some t -> t | None -> assert false
      in
      if last + 1 < n then Branch { target; fallthrough = last + 1 }
      else Jump { target }
    else if Isa.Insn.is_jump insn then
      match Isa.Insn.jump_target insn with
      | Some target -> Jump { target }
      | None -> Indirect
    else if last + 1 < n then Fallthrough
    else Exit
  in
  let succ_insns bi =
    match terminator_of bi with
    | Branch { target; fallthrough } -> [ target; fallthrough ]
    | Jump { target } -> [ target ]
    | Fallthrough ->
        assert (bi + 1 < nb);
        [ starts.(bi + 1) ]
    | Indirect | Exit -> []
  in
  let preds = Array.make nb [] in
  let succs =
    Array.init nb (fun bi ->
        let ss =
          succ_insns bi
          |> List.map (fun i -> block_of_insn.(i))
          |> List.sort_uniq Int.compare
        in
        List.iter (fun s -> preds.(s) <- bi :: preds.(s)) ss;
        ss)
  in
  Array.init nb (fun bi ->
      let s = starts.(bi) in
      let e = if bi + 1 < nb then starts.(bi + 1) else n in
      {
        index = bi;
        start = s;
        len = e - s;
        terminator = terminator_of bi;
        succs = succs.(bi);
        preds = List.sort_uniq Int.compare preds.(bi);
      })

let block_at blocks index =
  match
    Array.fold_left
      (fun acc b ->
        if index >= b.start && index < b.start + b.len then Some b else acc)
      None blocks
  with
  | Some b -> b
  | None -> raise Not_found

let pp fmt b =
  let term =
    match b.terminator with
    | Fallthrough -> "fallthrough"
    | Branch { target; fallthrough } ->
        Printf.sprintf "branch->%d/%d" target fallthrough
    | Jump { target } -> Printf.sprintf "jump->%d" target
    | Indirect -> "indirect"
    | Exit -> "exit"
  in
  Format.fprintf fmt "B%d [%d..%d] %s succs=%s" b.index b.start
    (b.start + b.len - 1) term
    (String.concat "," (List.map string_of_int b.succs))
