(** Built-in {!Encoder} backends.

    Calling {!ensure} (idempotent, domain-safe) registers, in this
    deterministic order:

    - ["identity"] — the unencoded bus, the baseline every scheme is
      judged against and the auto-selector's neutral choice;
    - ["businvert"] — Bus-invert coding (Stan & Burleson 1995): drive
      the complement when more than half the lines would flip, one
      redundant invert line ({!Businvert} does the counting);
    - ["t0"] — T0 coding (Benini et al. 1997): freeze the lines and
      assert a redundant INC line on sequential addresses (word stride
      1; {!T0} does the counting);
    - ["gray"] — reflected-binary Gray code, zero redundant lines;
    - ["lowweight"] — a Valentini–Chiani-style practical low-weight
      code: the complement-flag construction bounds every codeword's
      weight by [ceil (width / 2)] using one redundant line;
    - ["ballcode"] — a Chee–Colbourn-style optimal memoryless code for
      small widths (at most 12 lines): the image set is the
      [2^width] lowest-weight vectors of [{0,1}^(width+1)] (a Hamming
      ball around 0), minimizing expected pairwise bus distance over
      memoryless sources at the price of one redundant line and two
      lookup ROMs.

    The paper's TT scheme registers separately from the core library
    ([Powercode.Tt_backend.ensure]) because it depends on the
    transformation tables. *)

val ensure : unit -> unit
