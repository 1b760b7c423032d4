(** The typed events of the fetch/decode path.

    One sink records them: [Pipeline.Evaluate]'s trace sink, for the one
    run being exported ([simulate] records only [Fetch] events).  The
    decode hardware model emits nothing; the sink reads the TT writes off
    the plans and each decoder's BBIT match and state before the decoder
    advances.

    Times are in fetch ticks: the collector assigns one tick per dynamic
    instruction fetch of that run ({!Collector.fetch}); every other event
    is stamped with the tick of the fetch it happened under, so the whole
    trace lives on one discrete timeline — the x axis of the VCD export.
    [Span] is the exception: it carries wall-clock nanoseconds, bridged
    from {!Telemetry.Metrics} span exits for the Perfetto export. *)

type t =
  | Fetch of { time : int; pc : int; word : int; transitions : int }
      (** One dynamic instruction fetch: the baseline bus word, and the
          baseline bus transitions of the collector session through this
          fetch. *)
  | Bus of {
      time : int;
      pc : int;
      encoded : int array;
      transitions : int array;
    }
      (** The same fetch seen on each encoded image's bus (one word per
          image, in the evaluation's block-size order), and each image's
          bus transitions of the collector session through this fetch. *)
  | Block_entry of { time : int; pc : int; block : int }
      (** The fetch entered a basic block ([block] indexes the CFG
          partition). *)
  | Bbit_probe of { time : int; pc : int; hit : bool }
      (** The Basic Block Identification Table matched ([hit]) or passed
          on this PC. *)
  | Decode of { time : int; pc : int }
      (** The fetch decoder gated this fetch's word through a TT entry. *)
  | Tt_program of { time : int; index : int }
      (** A Transformation Table entry was (re)programmed. *)
  | Span of { path : string; tid : int; start_ns : float; stop_ns : float }
      (** A completed telemetry span ([path] is the nested span path,
          [tid] the recording domain). *)

(** [time e] is the fetch tick of [e], or [None] for wall-clock events
    ([Span]). *)
val time : t -> int option
