(** Span-based tracing.

    A trace is a tree of timed spans — protocol → phase → party-labelled
    work → operation — plus instant events (messages, injected faults,
    retries) anchored to the span that was open when they fired.  All
    timestamps come from the monotonic {!Clock}.

    The tracer is null-guarded like [Fault]: with no collector installed
    or bound ({!enabled} [= false]), {!with_span} is a direct call of the
    thunk and {!event}/{!add_attr} are two-load no-ops, so instrumented
    code pays nothing in ordinary runs.

    Concurrency: a collector is internally locked — span-id allocation
    and span/event appends are serialized, and each (domain, thread)
    keeps its own open-span stack — so one collector may be shared by a
    worker pool.  Which collector a thread records into is decided per
    thread: {!with_collector} binds one to the calling thread (shadowing
    the process-global sink of {!install}), which is how a server gives
    every concurrent session its own trace. *)

type kind =
  | Protocol   (** one root per protocol attempt *)
  | Phase      (** a driver phase, usually labelled with its party *)
  | Operation  (** finer-grained work inside a phase *)

val kind_name : kind -> string

type span = {
  id : int;
  parent : int option;
  name : string;
  kind : kind;
  start_ns : int64;             (** relative to the collector's epoch *)
  mutable stop_ns : int64;      (** equals [start_ns] while still open *)
  mutable rev_attrs : (string * Json.t) list;
}

type event = {
  ev_name : string;
  ev_span : int option;  (** innermost span open when the event fired *)
  ev_ns : int64;
  ev_attrs : (string * Json.t) list;
}

type t
(** A collector: accumulates the spans and events of one or more runs. *)

val create : unit -> t

val epoch_ns : t -> int64
(** The monotonic-clock instant the collector was created: the zero
    point of every span timestamp.  Comparable across processes on one
    host, which is what lets a merged multi-process trace share a
    timeline. *)

val install : t -> unit
(** Make the collector the process-global trace sink (replacing any
    previous one).  Threads with a {!with_collector} binding are
    unaffected. *)

val uninstall : unit -> unit
val enabled : unit -> bool

val with_collector : t -> (unit -> 'a) -> 'a
(** Run the thunk with the collector bound to the calling thread only:
    spans and events from this thread land in it regardless of the
    global sink, and other threads are unaffected.  Nests; restored on
    exceptions.  The binding does not propagate to threads or domains
    spawned inside the thunk. *)

val collect : (unit -> 'a) -> 'a * t
(** Run the thunk under a fresh collector — installed globally {e and}
    bound to the calling thread — restoring the previous sink (if any)
    afterwards, even on exceptions. *)

val with_span : ?kind:kind -> ?attrs:(string * Json.t) list -> string -> (unit -> 'a) -> 'a
(** Opens a child of the calling thread's innermost open span (or a
    root), runs the thunk and closes the span — also on exceptions.
    The span's duration is observed into the ["span.<name>.seconds"]
    histogram as it closes. *)

val add_attr : string -> Json.t -> unit
(** Attach an attribute to the innermost open span (no-op without one). *)

val event : ?attrs:(string * Json.t) list -> string -> unit
(** Record an instant event anchored to the innermost open span. *)

val current_span_id : unit -> int option
(** The id of the calling thread's innermost open span, if any — what a
    distributed caller embeds in a frame so a remote process can parent
    its spans under this one. *)

val spans : t -> span list
(** In opening order.  Only closed spans have a meaningful duration. *)

val events : t -> event list
(** In firing order. *)

val duration_ns : span -> int64

val attrs : span -> (string * Json.t) list
(** In attachment order. *)

val find_attr : span -> string -> Json.t option

val roots : t -> span list
val children : t -> span -> span list

val coverage : t -> span -> float
(** Fraction of the span's duration covered by its direct children
    (1.0 for a zero-duration span): the "no untraced gaps" check. *)
