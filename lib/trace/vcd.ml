type var = { id : string; name : string; width : int }

type parsed = {
  timescale : string;
  vars : var list;
  changes : (int * (string * int) list) list;
}

exception Parse_error of string

(* Identifier codes: printable ASCII from '!' up, one char per wire (we
   never declare more than ~90). *)
let ident i =
  if i > 90 then invalid_arg "Trace.Vcd: too many wires";
  String.make 1 (Char.chr (33 + i))

let binary v =
  if v = 0 then "0"
  else begin
    let b = Buffer.create 32 in
    let started = ref false in
    for bit = 62 downto 0 do
      let one = (v lsr bit) land 1 = 1 in
      if one then started := true;
      if !started then Buffer.add_char b (if one then '1' else '0')
    done;
    Buffer.contents b
  end

let to_string ?(date = "powercode trace") ~encoded_names events =
  let timed = List.filter (fun e -> Event.time e <> None) events in
  let has p = List.exists p timed in
  let has_block = has (function Event.Block_entry _ -> true | _ -> false) in
  let has_bbit = has (function Event.Bbit_probe _ -> true | _ -> false) in
  let has_decode = has (function Event.Decode _ -> true | _ -> false) in
  let has_tt = has (function Event.Tt_program _ -> true | _ -> false) in
  let vars = ref [] in
  let count = ref 0 in
  let add name width =
    let id = ident !count in
    incr count;
    vars := { id; name; width } :: !vars;
    id
  in
  let id_baseline = add "baseline" 32 in
  let id_encoded = List.map (fun n -> add n 32) encoded_names in
  let opt cond name = if cond then Some (add name 1) else None in
  let id_block = opt has_block "block_entry" in
  let id_bbit = opt has_bbit "bbit_hit" in
  let id_decode = opt has_decode "decode" in
  let id_tt = opt has_tt "tt_program" in
  let vars = List.rev !vars in
  let b = Buffer.create 4096 in
  let p fmt = Printf.bprintf b fmt in
  p "$date %s $end\n" date;
  p "$version powercode trace $end\n";
  p "$timescale 1 ns $end\n";
  p "$scope module powercode $end\n";
  List.iter (fun v -> p "$var wire %d %s %s $end\n" v.width v.id v.name) vars;
  p "$upscope $end\n";
  p "$enddefinitions $end\n";
  (* Per tick: the value wires set by this tick's events, and each pulse
     wire high iff its event fired at this tick.  Changes are elided
     against the last written value, so quiet wires stay quiet. *)
  let pulse_ids =
    List.filter_map Fun.id [ id_block; id_bbit; id_decode; id_tt ]
  in
  let last : (string, int) Hashtbl.t = Hashtbl.create 16 in
  let changed id v =
    match Hashtbl.find_opt last id with Some v0 when v0 = v -> false | _ -> true
  in
  let write_value id width v =
    if changed id v then begin
      Hashtbl.replace last id v;
      if width = 1 then p "%d%s\n" (v land 1) id else p "b%s %s\n" (binary v) id
    end
  in
  (* group the (time-sorted) events by tick *)
  let by_time = Hashtbl.create 256 in
  let times = ref [] in
  List.iter
    (fun e ->
      match Event.time e with
      | None -> ()
      | Some t ->
          (match Hashtbl.find_opt by_time t with
          | Some l -> l := e :: !l
          | None ->
              Hashtbl.add by_time t (ref [ e ]);
              times := t :: !times))
    timed;
  let times = List.sort compare !times in
  List.iter
    (fun t ->
      let evs = List.rev !(Hashtbl.find by_time t) in
      p "#%d\n" t;
      let fired = Hashtbl.create 8 in
      List.iter
        (fun e ->
          match e with
          | Event.Fetch { word; _ } -> write_value id_baseline 32 word
          | Event.Bus { encoded; _ } ->
              List.iteri
                (fun i id ->
                  if i < Array.length encoded then write_value id 32 encoded.(i))
                id_encoded
          | Event.Block_entry _ ->
              Option.iter (fun id -> Hashtbl.replace fired id ()) id_block
          | Event.Bbit_probe { hit; _ } ->
              if hit then
                Option.iter (fun id -> Hashtbl.replace fired id ()) id_bbit
          | Event.Decode _ ->
              Option.iter (fun id -> Hashtbl.replace fired id ()) id_decode
          | Event.Tt_program _ ->
              Option.iter (fun id -> Hashtbl.replace fired id ()) id_tt
          | Event.Span _ -> ())
        evs;
      List.iter
        (fun id -> write_value id 1 (if Hashtbl.mem fired id then 1 else 0))
        pulse_ids)
    times;
  Buffer.contents b

(* ---- parser ----------------------------------------------------------- *)

let parse s =
  let tokens =
    String.split_on_char '\n' s
    |> List.concat_map (String.split_on_char ' ')
    |> List.concat_map (String.split_on_char '\t')
    |> List.filter (fun t -> t <> "")
  in
  let timescale = ref "" in
  let vars = ref [] in
  let changes = ref [] in
  let current : (int * (string * int) list ref) option ref = ref None in
  let record id v =
    match !current with
    | Some (_, l) -> l := (id, v) :: !l
    | None -> raise (Parse_error "value change before any #time")
  in
  let rec skip_to_end = function
    | [] -> raise (Parse_error "unterminated $ section")
    | "$end" :: rest -> rest
    | _ :: rest -> skip_to_end rest
  in
  let rec collect_to_end acc = function
    | [] -> raise (Parse_error "unterminated $ section")
    | "$end" :: rest -> (List.rev acc, rest)
    | t :: rest -> collect_to_end (t :: acc) rest
  in
  let rec go = function
    | [] -> ()
    | "$timescale" :: rest ->
        let words, rest = collect_to_end [] rest in
        timescale := String.concat " " words;
        go rest
    | "$var" :: rest ->
        let words, rest = collect_to_end [] rest in
        (match words with
        | _type :: width :: id :: name ->
            let width =
              try int_of_string width
              with _ -> raise (Parse_error ("bad $var width " ^ width))
            in
            vars := { id; name = String.concat " " name; width } :: !vars
        | _ -> raise (Parse_error "short $var declaration"));
        go rest
    | tok :: rest
      when String.length tok > 0 && tok.[0] = '$' ->
        (* $date, $version, $scope, $upscope, $enddefinitions, $dumpvars:
           skip the section body ($end-terminated); bare "$end" has already
           been consumed by the section openers we care about *)
        if tok = "$end" then go rest else go (skip_to_end rest)
    | tok :: rest when tok.[0] = '#' ->
        let t =
          try int_of_string (String.sub tok 1 (String.length tok - 1))
          with _ -> raise (Parse_error ("bad timestamp " ^ tok))
        in
        (match !current with
        | Some (t0, l) -> changes := (t0, List.rev !l) :: !changes
        | None -> ());
        current := Some (t, ref []);
        go rest
    | tok :: rest when tok.[0] = 'b' || tok.[0] = 'B' -> (
        let bits = String.sub tok 1 (String.length tok - 1) in
        let v =
          String.fold_left
            (fun acc c ->
              match c with
              | '0' -> acc * 2
              | '1' -> (acc * 2) + 1
              | _ -> raise (Parse_error ("bad binary digit in " ^ tok)))
            0 bits
        in
        match rest with
        | id :: rest ->
            record id v;
            go rest
        | [] -> raise (Parse_error "binary value without identifier"))
    | tok :: rest when tok.[0] = '0' || tok.[0] = '1' ->
        if String.length tok < 2 then
          raise (Parse_error ("scalar change without identifier: " ^ tok));
        record
          (String.sub tok 1 (String.length tok - 1))
          (Char.code tok.[0] - Char.code '0');
        go rest
    | tok :: _ -> raise (Parse_error ("unexpected token " ^ tok))
  in
  go tokens;
  (match !current with
  | Some (t0, l) -> changes := (t0, List.rev !l) :: !changes
  | None -> ());
  { timescale = !timescale; vars = List.rev !vars; changes = List.rev !changes }

let changes_for p ~name =
  let v = List.find (fun v -> v.name = name) p.vars in
  List.concat_map
    (fun (t, chs) ->
      List.filter_map (fun (id, value) -> if id = v.id then Some (t, value) else None) chs)
    p.changes
