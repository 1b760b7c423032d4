type item =
  | Line of int
  | Label of string
  | Op of Insn.t
  | Beq_l of Reg.t * Reg.t * string
  | Bne_l of Reg.t * Reg.t * string
  | Blez_l of Reg.t * string
  | Bgtz_l of Reg.t * string
  | Bltz_l of Reg.t * string
  | Bgez_l of Reg.t * string
  | Bc1t_l of string
  | Bc1f_l of string
  | J_l of string
  | Jal_l of string

exception Undefined_label of string
exception Duplicate_label of string
exception Out_of_range of { line : int; message : string }

let instruction_count items =
  List.fold_left
    (fun n item -> match item with Line _ | Label _ -> n | _ -> n + 1)
    0 items

let resolve items =
  let labels = Hashtbl.create 64 in
  let index = ref 0 in
  List.iter
    (fun item ->
      match item with
      | Label name ->
          if Hashtbl.mem labels name then raise (Duplicate_label name);
          Hashtbl.add labels name !index
      | Line _ -> ()
      | _ -> incr index)
    items;
  let lookup name =
    match Hashtbl.find_opt labels name with
    | Some i -> i
    | None -> raise (Undefined_label name)
  in
  let insns = ref [] in
  let index = ref 0 and line = ref 0 in
  let emit i =
    insns := i :: !insns;
    incr index
  in
  (* a transfer whose resolved target does not fit is charged to its line *)
  let transfer i =
    (match Word.encode i with
    | _ -> ()
    | exception Invalid_argument message ->
        raise (Out_of_range { line = !line; message }));
    emit i
  in
  (* Branch offsets are relative to the instruction after the branch. *)
  let off name = lookup name - (!index + 1) in
  List.iter
    (fun item ->
      match item with
      | Line n -> line := n
      | Label _ -> ()
      | Op i -> emit i
      | Beq_l (s, t, l) -> transfer (Insn.Beq (s, t, off l))
      | Bne_l (s, t, l) -> transfer (Insn.Bne (s, t, off l))
      | Blez_l (s, l) -> transfer (Insn.Blez (s, off l))
      | Bgtz_l (s, l) -> transfer (Insn.Bgtz (s, off l))
      | Bltz_l (s, l) -> transfer (Insn.Bltz (s, off l))
      | Bgez_l (s, l) -> transfer (Insn.Bgez (s, off l))
      | Bc1t_l l -> transfer (Insn.Bc1t (off l))
      | Bc1f_l l -> transfer (Insn.Bc1f (off l))
      | J_l l -> transfer (Insn.J (lookup l))
      | Jal_l l -> transfer (Insn.Jal (lookup l)))
    items;
  let label_list = Hashtbl.fold (fun k v acc -> (k, v) :: acc) labels [] in
  let label_list = List.sort (fun (_, a) (_, b) -> Int.compare a b) label_list in
  (Array.of_list (List.rev !insns), label_list)
