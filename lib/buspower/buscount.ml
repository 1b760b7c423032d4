type t = {
  width : int;
  line_counts : int array;
  mutable previous : int;
  mutable observed : int;
  mutable total : int;
}

let create ?(width = 32) () =
  Width.check ~scheme:"buscount" width;
  {
    width;
    line_counts = Array.make width 0;
    previous = 0;
    observed = 0;
    total = 0;
  }

let observe t word =
  if word < 0 || word lsr t.width <> 0 then
    invalid_arg "Buscount.observe: word wider than bus";
  if t.observed > 0 then begin
    let diff = word lxor t.previous in
    t.total <- t.total + Bitutil.Popcount.count32 diff;
    let rec mark d line =
      if d <> 0 then begin
        if d land 1 = 1 then
          t.line_counts.(line) <- t.line_counts.(line) + 1;
        mark (d lsr 1) (line + 1)
      end
    in
    mark diff 0
  end;
  t.previous <- word;
  t.observed <- t.observed + 1

let total t = t.total
let per_line t = Array.copy t.line_counts
let words_observed t = t.observed

let reset t =
  Array.fill t.line_counts 0 t.width 0;
  t.previous <- 0;
  t.observed <- 0;
  t.total <- 0

let count_stream ?width words =
  let t = create ?width () in
  Array.iter (observe t) words;
  total t
