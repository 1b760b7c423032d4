(** Per-event energy model for the full fetch path.

    The bus side reuses {!Buspower.Energy} (dynamic switching energy per
    line transition); this record adds a price for every piece of support
    hardware the paper's §7.2 introduces, so a ledger can charge the
    overhead side of the net-savings claim: TT SRAM reads, BBIT probes,
    decode-gate output toggles, and the one-time table-programming writes.

    The presets are order-of-magnitude figures for the paper's 2003-era
    0.18 um process, chosen so the components sit in the right relation to
    each other (an SRAM read costs a few bus-line toggles, a single gate
    toggle costs almost nothing).  Absolute joules are parameters, not
    claims — override any field from the CLI with
    [--set field=value] (see {!override}). *)

type t = {
  bus : Buspower.Energy.t;  (** per bus-line transition *)
  tt_read_j : float;
      (** per Transformation Table SRAM read — one per fetch whose pc lies
          inside an encoded block *)
  bbit_probe_j : float;
      (** per BBIT associative probe — one per non-sequential fetch
          (branches and the first fetch of the run) *)
  gate_toggle_j : float;
      (** per decode-gate output-line toggle while the decoder is active *)
  table_write_j : float;
      (** per peripheral programming write into the TT or BBIT *)
}

(** On-chip instruction bus (0.5 pF at 1.8 V); tables and gates on die. *)
val on_chip : t

(** Off-chip program store (30 pF at 3.3 V board traces).  The decode
    hardware still sits on die, so only the bus term changes. *)
val off_chip : t

(** [by_name s] resolves ["on-chip"] / ["off-chip"] (also accepts
    [on_chip] / [off_chip]). *)
val by_name : string -> t option

(** [override m field value] functionally updates one parameter by name:
    [capacitance_per_line_f], [vdd_v], [tt_read_j], [bbit_probe_j],
    [gate_toggle_j] or [table_write_j].  [Error] names the unknown field. *)
val override : t -> string -> float -> (t, string) result

val pp : Format.formatter -> t -> unit

(** One JSON object with every parameter in scientific notation. *)
val to_json : t -> string
