(** Dynamic execution profiles.

    The paper's flow analyses the application offline, pinpoints the major
    loops and encodes only those; the profile supplies the block weights
    that drive that selection.

    A collected profile also records the run's {e pair profile}: how often
    each consecutive [(pc, next_pc)] pair of the fetch stream occurred.
    When every pc drives one fixed word on the bus — the baseline image and
    every TT-encoded image — the bus transitions of the whole run are a sum
    over those pairs ({!pair_transitions}), so the run need not be
    repeated to count them.  Bus-invert coding keeps one bit of state, its
    invert line, so the run also tracks that line and counts the ties that
    find it high; with those, the bus-invert cost of the program's own
    words is a pair sum too ({!businvert_transitions}). *)

type t

(** [collect ?max_instructions program] runs the program to completion on a
    fresh machine state of its own, counting fetches per instruction and
    per consecutive pc pair.  The state's memory is paged, so the run pays
    for the pages the program writes, not for a zeroed 4 MiB. *)
val collect :
  ?max_instructions:int -> Isa.Program.t -> t * Machine.Cpu.result

(** [run ?max_instructions program] is {!collect} that also returns the
    final machine state, for the program's output. *)
val run :
  ?max_instructions:int ->
  Isa.Program.t ->
  t * Machine.Cpu.result * Machine.Cpu.state

(** [recorder program] is [(record, finish)]: [record ~pc] takes one fetch
    of [program] in execution order, the hook {!run} hands
    {!Machine.Cpu.run}, and [finish ()], called once the fetches have
    ended, is their profile.  Feeding a second, live run's fetches to a
    recorder and comparing with {!equal} checks that the run retraced a
    recorded one pair for pair. *)
val recorder : Isa.Program.t -> (pc:int -> unit) * (unit -> t)

(** [equal a b] holds when two profiles record the same fetch stream up to
    its pc pairs: the same per-pc counts, sequential and jump pair counts,
    first pc and bus-invert tie count. *)
val equal : t -> t -> bool

(** [instruction_count t i] is the number of times instruction [i] was
    fetched. *)
val instruction_count : t -> int -> int

(** [block_weight t block] is the execution count of the block (the fetch
    count of its first instruction). *)
val block_weight : t -> Block.t -> int

(** [block_fetches t block] is the total fetches spent inside the block. *)
val block_fetches : t -> Block.t -> int

(** [total t] is the total dynamic instruction count. *)
val total : t -> int

(** [first_pc t] is the pc of the run's first fetch, [-1] when no fetch was
    recorded. *)
val first_pc : t -> int

(** [sequential_count t pc] is how often [pc + 1] was fetched straight
    after [pc]. *)
val sequential_count : t -> int -> int

(** [iter_jumps t f] calls [f ~src ~dst ~count] for every non-sequential
    consecutive pair ([dst <> src + 1]) that occurred, [count] times, in
    increasing [(src, dst)] order. *)
val iter_jumps : t -> (src:int -> dst:int -> count:int -> unit) -> unit

(** [iter_pairs t f] calls [f ~src ~dst ~count] for every consecutive pair
    that occurred: the sequential ones in pc order, then {!iter_jumps}.
    The counts sum to [total t - 1] on a non-empty run. *)
val iter_pairs : t -> (src:int -> dst:int -> count:int -> unit) -> unit

(** [pair_transitions t image] is the sum over consecutive pairs of
    [count * popcount (image.(src) lxor image.(dst))]: the bus transitions
    of the recorded fetch stream when pc [p] drives the 32-bit word
    [image.(p)] (the first fetch counts nothing, the {!Buspower}
    convention).  O(static pcs + jumps). *)
val pair_transitions : t -> int array -> int

(** [businvert_transitions t] is what
    {!Buspower.Businvert.count_stream} [~width:32] counts over the words
    the run fetched, pc [p] driving the program's own word [p]: the sum
    over consecutive pairs of [count * Buspower.Businvert.pair_cost], plus
    the ties the run took while the invert line was high (the derivation
    is in {!Buspower.Businvert}).  The run walks the invert line with one
    array load per sequential fetch and one popcount per jump. *)
val businvert_transitions : t -> int

(** [hot_blocks t blocks] sorts blocks by {!block_fetches}, hottest first;
    never-executed blocks are dropped. *)
val hot_blocks : t -> Block.t array -> Block.t list

(** [coverage t blocks subset] is the fraction of all fetches spent in
    [subset] — how much of the run the encoded region captures. *)
val coverage : t -> Block.t list -> float
