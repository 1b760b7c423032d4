(** The typed events of the fetch/decode path.

    Times are in fetch ticks: the collector assigns one tick per dynamic
    instruction fetch of the one run being exported ({!Collector.fetch},
    called by that run's fetch hook, never by the simulator); every other
    event is stamped with the tick of the fetch it happened under, so the
    whole trace lives on one discrete timeline — the x axis of the VCD
    export.  [Span] is the
    exception: it carries wall-clock nanoseconds, bridged from
    {!Telemetry.Metrics} span exits for the Perfetto export. *)

type t =
  | Fetch of { time : int; pc : int; word : int }
      (** One dynamic instruction fetch: the baseline bus word. *)
  | Bus of { time : int; pc : int; encoded : int array }
      (** The same fetch seen on each encoded image's bus (one word per
          image, in the evaluation's block-size order). *)
  | Block_entry of { time : int; pc : int; block : int }
      (** The fetch entered a basic block ([block] indexes the CFG
          partition). *)
  | Bbit_probe of { time : int; pc : int; hit : bool }
      (** The Basic Block Identification Table matched ([hit]) or passed
          on this PC. *)
  | Decode of { time : int; pc : int; entry : int; taus : int array }
      (** The fetch decoder applied TT entry [entry]; [taus] are the
          per-line transformation indices it gated the word through. *)
  | Tt_program of { time : int; index : int }
      (** A Transformation Table entry was (re)programmed. *)
  | Span of { path : string; tid : int; start_ns : float; stop_ns : float }
      (** A completed telemetry span ([path] is the nested span path,
          [tid] the recording domain). *)

(** [time e] is the fetch tick of [e], or [None] for wall-clock events
    ([Span]). *)
val time : t -> int option
