(** Machine-readable trace export.

    Two formats: Chrome trace-event JSON (loadable in [chrome://tracing]
    / Perfetto: spans as complete "X" events on one track per party,
    instant events as "i" marks) and a compact JSONL stream (one JSON
    object per line: a [clock] header, then every span and event), meant
    for downstream tooling.

    Both formats take a list of {!process}es.  A process is one
    participant of a distributed run: its Chrome [pid] lane, its display
    name, and the spans and events its collector gathered (already
    rebased into the merged id/time space by the caller — see
    [Secmed_net.Trace_wire]).  A local run is the one-element list
    [[process_of_trace t]]. *)

type process = {
  pr_pid : int;
  pr_name : string;  (** [""] omits the process_name metadata entry *)
  pr_spans : Trace.span list;
  pr_events : Trace.event list;
}

val process_of_trace : ?pid:int -> ?name:string -> Trace.t -> process
(** Defaults: [pid 1], anonymous — the single-process identity. *)

val chrome_json_processes : process list -> string
(** One Chrome trace — a JSON array, parseable with {!Json.parse} — with
    a pid lane per process, each with its own party -> tid table
    (deterministic: order of first appearance, "run" = tid 0).  An
    anonymous process gets no process_name entry.  A process with no
    spans and no events is omitted entirely — an empty span batch must
    not leave a dangling lane. *)

val jsonl_processes : process list -> string
(** The clock header, then per process: a [{"type":"process",...}] line
    followed by its span and event lines, each carrying the process
    [pid].  Empty processes are omitted, like the Chrome flavour. *)

val write_file : string -> string -> unit

val format_of_path : string -> [ `Chrome | `Jsonl ]
(** [.jsonl] selects the JSONL stream; anything else the Chrome format. *)
