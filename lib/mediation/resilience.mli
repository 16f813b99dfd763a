(** Resilient mediation sessions: deadlines, backoff, circuit breakers.

    The mediator combines answers from autonomous datasources it does not
    control, so a production deployment needs more recovery moves than
    "restart the whole protocol a bounded number of times".  This module
    supplies the policy layer the protocol driver composes with
    (DESIGN.md §10):

    - {b deadline budgets} — a per-query wall-clock budget on a monotonic
      (and injectable) clock, checked between attempts and by the
      transport after every send and receive, so a stalled or delayed
      link trips a typed {!Deadline_exceeded} instead of hanging;
    - {b exponential backoff} with deterministic, seeded jitter between
      retry attempts;
    - {b per-party circuit breakers} (closed → open → half-open) over a
      sliding failure window, so a datasource that keeps producing faults
      is short-circuited instead of re-queried;
    - a generic {!execute} attempt engine tying the three together, used
      by [Protocol.run] / [Protocol.run_session] in [lib/core] (this
      library sits below [lib/core], so the engine is parametric in the
      attempt function rather than calling the drivers directly).

    Everything is deterministic under test: jitter is seeded, and every
    time source is a {!clock} value, so unit tests drive a {!manual}
    clock and never sleep.  State transitions are surfaced as
    [Secmed_obs] trace events and metrics (null-guarded: free when no
    collector is installed). *)

(* ------------------------------------------------------------------ *)
(** {1 Clocks} *)

type clock = {
  now : unit -> float;     (** monotonic seconds since an arbitrary origin *)
  sleep : float -> unit;   (** block for the given number of seconds *)
}

val monotonic : clock
(** The process clock: [Secmed_obs.Clock] for [now], [Unix.sleepf] for
    [sleep]. *)

val manual : ?start:float -> unit -> clock * (float -> unit)
(** A virtual clock for tests: [sleep d] advances the clock by [d]
    without blocking; the returned function advances it externally
    (e.g. to expire a breaker cooldown).  Never sleeps for real. *)

(* ------------------------------------------------------------------ *)
(** {1 Backoff} *)

type backoff
(** An exponential-backoff schedule: the delay after failed attempt [n]
    is [min max_delay (base * factor^(n-1))], scaled by a deterministic
    jitter factor drawn uniformly from [[1-jitter, 1+jitter)] using a
    {!Secmed_crypto.Prng} stream derived from [(seed, n)] — so the
    schedule is a pure function of the configuration. *)

val backoff :
  ?base:float ->
  ?factor:float ->
  ?max_delay:float ->
  ?jitter:float ->
  ?seed:int ->
  unit ->
  backoff
(** [base] — first delay in seconds, [<= 0.] disables (default 0.05);
    [factor] — growth per attempt (default 2.0); [max_delay] — pre-jitter
    cap in seconds (default 2.0); [jitter] — jitter fraction in [0,1]
    (default 0.2); [seed] — jitter seed (default 0). *)

val no_backoff : backoff
(** Zero delay everywhere: the pre-resilience immediate-retry behaviour. *)

val backoff_delay : backoff -> attempt:int -> float
(** Delay (seconds) to wait after failed attempt [attempt] (1-based). *)

val backoff_schedule : backoff -> attempts:int -> float list
(** [backoff_delay] for attempts [1..attempts]. *)

(* ------------------------------------------------------------------ *)
(** {1 Deadlines} *)

type deadline
(** A wall-clock budget for one query, measured on a {!clock} from the
    moment of creation. *)

exception Deadline_exceeded of { phase : string; elapsed : float; budget : float }
(** The typed failure a deadline trips with. *)

val deadline : clock -> budget:float -> deadline
val unlimited : clock -> deadline
(** An infinite budget: {!check} never raises. *)

val elapsed : deadline -> float
val remaining : deadline -> float
(** Seconds left, clamped to [>= 0.] ([infinity] for {!unlimited}). *)

val expired : deadline -> bool

val check : deadline -> phase:string -> unit
(** Raise {!Deadline_exceeded} (and emit a [deadline-exceeded] trace
    event / metric) if the budget is spent. *)

val phase_budget : deadline -> fraction:float -> float
(** Apportionment rule: a phase may spend at most [fraction] of the
    budget still remaining when it starts (DESIGN.md §10). *)

(* ------------------------------------------------------------------ *)
(** {1 Circuit breakers} *)

type breaker_state = Closed | Open | Half_open

val breaker_state_name : breaker_state -> string

type breaker_config = {
  window : int;              (** sliding window of recent attempt outcomes *)
  failure_threshold : float; (** failure rate in the window that trips the breaker *)
  min_samples : int;         (** no tripping before this many samples *)
  cooldown : float;          (** seconds open before admitting a half-open probe *)
  half_open_probes : int;    (** consecutive probe successes required to close *)
}

val default_breaker : breaker_config
(** [{ window = 16; failure_threshold = 0.5; min_samples = 4;
      cooldown = 1.0; half_open_probes = 1 }] *)

val replica_breaker : cooldown:float -> breaker_config
(** The health breaker of one source replica endpoint (DESIGN.md §15):
    [{ window = 1; failure_threshold = 1.0; min_samples = 1; cooldown;
       half_open_probes = 1 }] — one failed dial or probe marks the
    replica down, it is not tried again before [cooldown] has passed,
    and then one successful probe brings it back. *)

type breaker
(** One breaker guards one {!Transcript.party} (normally a datasource).
    State machine: [Closed] admits everything and trips [Open] when the
    windowed failure rate reaches the threshold; [Open] rejects until
    [cooldown] has elapsed, then admits probes as [Half_open];
    [Half_open] closes after [half_open_probes] successes and re-opens on
    any failure.  Every transition is logged, emitted as a [breaker]
    trace event and counted in metrics. *)

val breaker : ?config:breaker_config -> clock -> Transcript.party -> breaker
val breaker_party : breaker -> Transcript.party
val breaker_state : breaker -> breaker_state

val breaker_allow : breaker -> bool
(** May a request to this party proceed right now?  On an [Open] breaker
    whose cooldown has elapsed this transitions to [Half_open] and
    admits the probe. *)

val breaker_record : breaker -> ok:bool -> unit
(** Feed one attempt outcome into the state machine. *)

val breaker_close : breaker -> unit
(** Close the breaker now, whatever its state (a no-op when [Closed]):
    a request made without the breaker's consent succeeded, which
    proves the party reachable. *)

type transition = { at : float; from_state : breaker_state; to_state : breaker_state }

val breaker_transitions : breaker -> transition list
(** The newest 64 transitions, in occurrence order, timestamped on the
    breaker's clock. *)

val breaker_transition_count : breaker -> int
(** Every transition since creation, including those
    {!breaker_transitions} no longer keeps. *)

(* ------------------------------------------------------------------ *)
(** {1 Policies and sessions} *)

type policy = {
  deadline_budget : float option;  (** per-query budget, seconds; [None] = unlimited *)
  retry_backoff : backoff;
  breaker_config : breaker_config;
}

val default_policy : policy
(** No deadline, default backoff, default breakers. *)

type session
(** Long-lived resilience state shared across many queries: the policy,
    the clock, and one lazily-created breaker per party — so a source
    that keeps failing across successive queries trips its breaker and
    later queries short-circuit instead of re-probing it. *)

val session : ?policy:policy -> ?clock:clock -> unit -> session
val session_policy : session -> policy
val session_clock : session -> clock

val breaker_for : session -> Transcript.party -> breaker
(** The party's breaker, created [Closed] on first use. *)

val breakers : session -> breaker list
(** All breakers created so far, in no particular order. *)

val breakers_json : session -> Secmed_obs.Json.t
(** Every breaker as [{party; state; transitions}] ([transitions] is
    {!breaker_transition_count}), sorted by party name
    — the ops-surface view a running mediator serves in its stats
    snapshot. *)

val new_deadline : session -> deadline
(** A fresh per-query deadline from the session policy and clock. *)

(* ------------------------------------------------------------------ *)
(** {1 The attempt engine} *)

type 'a verdict =
  | Served of { value : 'a; attempts : int }
  | Exhausted of { failure : Fault.failure; attempts : int }
      (** every admitted attempt failed and the retry budget is spent *)
  | Timed_out of { phase : string; elapsed : float; budget : float; attempts : int }
      (** the deadline tripped (before an attempt, or mid-attempt at a
          transport's {!check}) *)
  | Short_circuited of { party : Transcript.party; attempts : int }
      (** an open breaker refused the request without contacting the party *)

val execute :
  ?session:session ->
  deadline:deadline ->
  label:string ->
  retryable:bool ->
  budget:int ->
  parties_of:('a -> Transcript.party list) ->
  (int -> ('a, Fault.failure) result) ->
  'a verdict
(** Run up to [budget] attempts of the given function (called with the
    1-based attempt number).  Before each attempt: consult the session
    breakers (any breaker refusing yields [Short_circuited]) and the
    deadline.  After a failure: record it on the blamed party's breaker,
    emit the [retry] trace event, wait out the backoff delay on the
    session clock (capped at the remaining deadline), and try again —
    only while [retryable] holds and budget remains.  After a success:
    record it on the breakers of every party [parties_of] reports
    involved.  Breakers are kept for datasource parties only — a failure
    blamed on the client or the mediator never opens a circuit, since
    there is nobody else to serve the query.  Without a [session] there
    are no breakers and no backoff (the engine behaves exactly like the
    legacy immediate-retry loop, retry tracing included). *)
