(* The golden oracle: one committed result line per (program, config) and
   per campaign seed, under bench/perf/golden/<workload>.jsonl. *)

let file dir (w : Workload.t) = Filename.concat dir (w.name ^ ".jsonl")

let read_lines path =
  In_channel.with_open_text path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter (( <> ) "")

let field k o = Option.value ~default:Json_min.Null (Json_min.member k o)

let key_of line =
  match field "key" (Json_min.of_string line) with
  | Json_min.Str k -> k
  | _ -> failwith ("golden line without a key: " ^ line)

let load dir w =
  let tbl = Hashtbl.create 2048 in
  List.iter
    (fun line -> Hashtbl.replace tbl (key_of line) line)
    (read_lines (file dir w));
  tbl

(* The keys of [outcome] whose line differs from (or is missing in) the
   golden table. *)
let mismatches golden (o : Workload.outcome) =
  List.filter_map
    (fun (k, line) ->
      if Hashtbl.find_opt golden k = Some line then None else Some k)
    o.lines

let write dir w lines =
  Out_channel.with_open_text (file dir w) (fun oc ->
      List.iter (fun (_, line) -> output_string oc (line ^ "\n")) lines)

(* [check_baseline ~dir baseline] compares every reproduce golden line
   with the matching evaluations / schemes / ledger leaves of the bench
   baseline (bench/baseline.json), which pins the same evaluations.
   Returns the number of leaves compared and the paths that differ. *)
let check_baseline ~dir baseline =
  let open Json_min in
  let base = of_string (In_channel.with_open_text baseline In_channel.input_all) in
  let named section name =
    match field section base with
    | Arr l ->
        Option.value ~default:Null
          (List.find_opt (fun o -> field "name" o = Str name) l)
    | _ -> Null
  in
  let items o k = match field k o with Arr l -> l | _ -> [] in
  let compared = ref 0 and bad = ref [] in
  let cmp path g b =
    incr compared;
    if g <> b then bad := path :: !bad
  in
  let each path gs bs f =
    if List.length gs <> List.length bs then bad := (path ^ " length") :: !bad
    else
      List.iteri
        (fun i (g, b) -> f (Printf.sprintf "%s[%d]" path i) g b)
        (List.combine gs bs)
  in
  let fields path g b pairs =
    List.iter (fun (gk, bk) -> cmp (path ^ "." ^ bk) (field gk g) (field bk b)) pairs
  in
  let count path g b = cmp path g (field "count" b) in
  List.iter
    (fun line ->
      let g = of_string line in
      let name = match field "key" g with Str s -> s | _ -> "?" in
      let ev = named "evaluations" name in
      fields name g ev
        [
          ("instructions", "instructions");
          ("baseline", "baseline_transitions");
          ("businvert", "businvert_transitions");
        ];
      each (name ^ ".runs") (items g "runs") (items ev "runs") (fun p g b ->
          fields p g b
            [
              ("k", "k");
              ("transitions", "transitions");
              ("tt_used", "tt_used");
              ("blocks_encoded", "blocks_encoded");
            ]);
      each (name ^ ".schemes") (items g "schemes")
        (items (named "schemes" name) "runs")
        (fun p g b ->
          fields p g b
            [
              ("k", "k");
              ("transitions", "transitions");
              ("reverted", "reverted");
              ("regions", "regions");
            ]);
      let gl = field "ledger" g and bl = named "ledger" name in
      cmp (name ^ ".ledger.fetches") (field "fetches" gl) (field "fetches" bl);
      count (name ^ ".ledger.baseline_bus") (field "baseline_bus" gl)
        (field "baseline_bus" bl);
      each (name ^ ".ledger.entries") (items gl "entries") (items bl "entries")
        (fun p g b ->
          cmp (p ^ ".k") (field "k" g) (field "k" b);
          List.iter
            (fun c -> count (p ^ "." ^ c) (field c g) (field c b))
            [
              "encoded_bus"; "tt_reads"; "bbit_probes"; "gate_toggles";
              "reprogram_writes";
            ]))
    (read_lines (file dir (Option.get (Workload.find "reproduce"))));
  (!compared, List.rev !bad)
