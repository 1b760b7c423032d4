(** Bus-invert coding (Stan & Burleson, 1995) — the general-purpose
    low-power baseline the paper contrasts with.

    Before driving a word, the encoder compares its Hamming distance to the
    previous bus value; if more than half the lines would flip, it drives
    the complement and asserts a dedicated invert line.  The invert line's
    own transitions are charged to the total, as in the original paper. *)

type t

(** [create ?width ()] is an encoder for a [width]-line data bus (default
    32); the invert line is extra.  Raises {!Width.Out_of_range} when
    [width] falls outside {!Width.min_width}..{!Width.max_width}. *)
val create : ?width:int -> unit -> t

(** [encode t word] is [(bus_word, invert)] actually driven. *)
val encode : t -> int -> int * bool

(** [decode ~width (bus_word, invert)] restores the original word. *)
val decode : width:int -> int * bool -> int

(** [transitions t] is the running total including the invert line. *)
val transitions : t -> int

(** [reset t] clears bus history and the running total. *)
val reset : t -> unit

(** [count_stream ?width words] encodes a whole stream and returns its
    total transitions (data lines + invert line). *)
val count_stream : ?width:int -> int array -> int

(** {2 Counting from a pair profile}

    Bus-invert keeps one bit of memory, the invert line, so its cost is
    almost a sum over consecutive word pairs: a recorded pair profile
    (how often each pair of words followed each other) plus one counter
    gives {!count_stream} without replaying the stream.

    Let [w'] be the previous word, [I'] the invert line it left and [d]
    the Hamming distance from [w'] to the next word [w] on a [width]-line
    bus.  The bus holds [w'] complemented when [I'] is high, so [w] is
    [flips = d] lines from it when [I'] is low and [width - d] when high.
    The encoder inverts when [2 * flips > width]; the data lines then pay
    [width - flips], otherwise [flips], and the invert line pays 1 when
    it changes.  The four cases:

    - [I'] low, [2d < width]: keep, pay [d]; the line stays low.
    - [I'] low, [2d > width]: invert, pay [width - d] plus 1; the line
      goes high.
    - [I'] high, [2d < width]: invert, pay [d]; the line stays high.
    - [I'] high, [2d > width]: drive verbatim, pay [width - d] plus 1;
      the line goes low.

    So outside a tie each pair pays [min d (width - d) + [2d > width]]
    ({!pair_cost}) whatever [I'] held, and the line keeps its value when
    [2d < width] and toggles when [2d > width].  A {e tie}, [2d = width],
    flips exactly half the lines either way, so the encoder drives
    verbatim: it pays [d] ({!pair_cost} again), plus 1 only when [I'] was
    high, and always leaves the line low.  The first word costs nothing
    and leaves the line at {!first_invert}.  Hence

    [count_stream words = sum over pairs of count * pair_cost + ties]

    where [ties] counts the ties taken while the line was high — the one
    path-dependent term, tracked by walking the stream's {!line_step}s.
    Only an even [width] can tie. *)

(** What one step does to the invert line: [Keep] it ([2d < width]),
    [Toggle] it ([2d > width]), or [Tie] ([2d = width]): clear it, paying
    one extra transition when it was high. *)
type line_step = Keep | Toggle | Tie

(** [pair_cost ~width a b] is [min d (width - d) + (if 2 * d > width then 1
    else 0)] for [d = popcount (a lxor b)]: what driving [b] after [a]
    costs, data lines plus invert line, outside the tie's extra. *)
val pair_cost : width:int -> int -> int -> int

(** [line_step ~width a b] is the invert line's {!line_step} when [b]
    follows [a]. *)
val line_step : width:int -> int -> int -> line_step

(** [first_invert ~width word] is the invert line after the stream's first
    word: high when more than half of [word]'s lines are set. *)
val first_invert : width:int -> int -> bool
