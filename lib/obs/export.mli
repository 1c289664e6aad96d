(** Deterministic exporters over a collector's retained stream and
    metrics: Chrome [trace_event] JSON (chrome://tracing / Perfetto),
    line-oriented JSONL, and a metrics summary document. *)

(** Chrome trace_event document: actors as tracks, spans as "X" duration
    events, instant events as "i".  One virtual delay = 1000 trace µs. *)
val chrome_json : Obs.t -> Json.t

val chrome : Obs.t -> string

(** One JSON object per line per entry. *)
val jsonl : Obs.t -> string

(** One event's line in the human-readable I/O log, formatted
    ["[%6.2f] %-12s %s"] from [at], [actor] and a label; [None] for the
    events the log leaves out.  It keeps memory writes (ack or nak),
    permission changes (applied or refused), sends, process and memory
    crashes and restarts, and the Cheap Quorum hand-off (COMMIT or ABORT,
    value, evidence class). *)
val io_line : at:float -> actor:string -> Event.t -> string option

(** The I/O log of a recorded collector: {!io_line} of every retained
    event that has one, in chronological order. *)
val io_log : Obs.t -> string list

(** Histogram summaries (count/sum/min/max/p50/p90/p99), counters and
    gauges. *)
val metrics_json : Obs.t -> Json.t

val metrics : Obs.t -> string

(** Perf-snapshot schema version (see tools/perfdiff). *)
val perf_snapshot_version : int

(** One profiler as a versioned snapshot document: the deterministic
    plane (counters + per-scope attribution, byte-stable for a seed,
    diffed exactly) and the timing plane (wall-clock seconds, diffed
    with noise thresholds).  [wall_clock] marks snapshots of wall-clock
    experiments whose deterministic plane is intentionally empty. *)
val perf_snapshot_json : ?wall_clock:bool -> id:string -> Prof.t -> Json.t

val perf_snapshot : ?wall_clock:bool -> id:string -> Prof.t -> string

(** Collapsed-stack rendering of one deterministic counter (default
    ["sim.events.popped"]): one [path weight] line per scope, the input
    format of flamegraph.pl / speedscope. *)
val flamegraph : ?counter:string -> Prof.t -> string

(** Render the trace that {!write_trace} would write to [file]: a
    [.jsonl] suffix selects the JSONL exporter, anything else the
    Chrome format.  Pooled tasks use this to return export blobs as
    plain strings. *)
val render_trace : Obs.t -> file:string -> string

(** Write the trace to [file]; a [.jsonl] suffix selects the JSONL
    exporter, anything else the Chrome format. *)
val write_trace : Obs.t -> file:string -> unit

val write_metrics : Obs.t -> file:string -> unit

(** Structurally validate an exported Chrome trace; [Ok (events, tracks)]
    on success. *)
val validate_chrome : string -> (int * int, string) result
