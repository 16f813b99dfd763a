(** Process-wide metrics registry: counters, gauges, and log-scale
    histograms with quantile estimates.

    Handles are interned by name, so any layer can say
    [Metrics.counter "transcript.messages"] and get the same cell.
    Always on: there is no off switch, and a bump is a field update.
    Hot paths intern their cells once at module init and keep the
    handle. *)

type counter

val counter : string -> counter
(** Interned by name; repeated calls return the same counter. *)

val incr : ?by:int -> counter -> unit
val counter_value : counter -> int

type gauge

val gauge : string -> gauge
val set_gauge : gauge -> float -> unit
val gauge_value : gauge -> float

type histogram
(** Log-scale buckets (4 per octave, covering ~1e-9 .. 1e12 with an
    underflow bucket for zero/negative observations), so a quantile
    estimate is within one bucket — a factor of [2^(1/4)] — of exact. *)

val histogram : string -> histogram

val private_histogram : unit -> histogram
(** A fresh cell outside the registry: never interned, never reset by
    {!reset}.  Give one to each concurrent
    recorder (a loadgen worker, a worker domain) so the hot observe path
    needs no synchronisation, then fold them together with
    {!merge_into}. *)

val observe : histogram -> float -> unit
val histogram_count : histogram -> int
val histogram_sum : histogram -> float

val histogram_min : histogram -> float
val histogram_max : histogram -> float
(** Observed extrema; [0.0] on an empty histogram. *)

val merge_into : into:histogram -> histogram -> unit
(** Bucket-wise addition of [src] into [into] (count, sum, and extrema
    included).  Exact: quantiles of the merged histogram equal those of a
    single histogram that observed every sample itself, because each
    observation occupies exactly one bucket.  [src] is unchanged. *)

val quantile : histogram -> float -> float
(** [quantile h q] for [q] in [0,1]: the geometric midpoint of the bucket
    holding the q-th observation; [0.0] on an empty histogram. *)

val percentiles : histogram -> float * float * float
(** (p50, p90, p99). *)

val reset : unit -> unit
(** Zero every registered metric (handles stay valid). *)
