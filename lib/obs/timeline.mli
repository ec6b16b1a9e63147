(** Exporters for flight-recorder traces ({!Event}).

    [chrome_json] renders a trace in the Chrome trace-event format
    (viewable in Perfetto or chrome://tracing): one track per vCPU plus a
    scheduler track, with syscalls as duration events and everything else
    as instants.  Timestamps are the virtual clock (instructions
    retired) rebased to the first buffered event, so the JSON is
    byte-stable across re-executions of the same interleaving.

    [interleaving] renders the classic two-column plain-text report (one
    column per vCPU, scheduler events full-width) and draws the PMC
    write→read edge when both hint hits are present. *)

val chrome_json : ?extra:(string * Export.json) list -> Event.t list -> Export.json
(** The whole trace as a [{"traceEvents": [...]}] document
    (schema tag [snowboard-trace/1]); [extra] adds top-level fields. *)

val interleaving : ?width:int -> Event.t list -> string
(** Plain-text interleaving report, one column of [width] characters per
    vCPU.  Lines carrying a PMC hint hit are marked with [*] and the
    write→read edge between the columns is drawn when both sides
    appear. *)
