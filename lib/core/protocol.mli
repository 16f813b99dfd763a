(** Uniform entry point over the three delivery protocols and the two
    baselines. *)

type scheme =
  | Das of Das_partition.strategy * Das.server_eval
  | Commutative of { use_ids : bool }
  | Private_matching of Pm_join.variant
  | Mobile_code
  | Plain

val default_das : scheme
(** [Das (Equi_depth 4, Pair_index)] — the configuration used throughout
    the paper's figures. *)

val all_schemes : scheme list
(** One representative configuration of each protocol/baseline. *)

val paper_schemes : scheme list
(** The paper's three protocols (DAS, commutative, PM) in default
    configurations. *)

val scheme_name : scheme -> string
val scheme_of_name : string -> scheme option
(** Accepts the short CLI aliases (["das"], ["das-singleton"],
    ["das-nested-loop"], ["commutative"], ["commutative-ids"], ["pm"],
    ["pm-direct"], ["mobile-code"], ["plain"]) and the canonical
    {!scheme_name} spelling of each of those configurations, so
    [scheme_of_name (scheme_name s) = Some s] for every nameable scheme.
    Anything else is [None]. *)

(** Typed outcome of a protocol execution under a fault model: which
    phase, at which party, detected the fault, and after how many
    end-to-end attempts the mediator gave up. *)
type failure = {
  phase : string;
  party : Secmed_mediation.Transcript.party;
  reason : string;
  attempts : int;
}

type run_result =
  | Ok of Outcome.t
  | Fault of failure

exception Faulted of failure

(** {2 Distributed coordination}

    In a distributed run ([Secmed_net]) every process executes the same
    driver, computing only its own parties' steps ([Link.computes]); the
    mediator process drives the retry/degradation policy and keeps the
    processes in lockstep through a [coordinator]: [begin_attempt] announces the (scheme,
    attempt) pair before the replica executes, [end_attempt] exchanges
    end-of-attempt reports and may override a locally-successful result
    when a peer faulted (the typed failure travels back).  In-process
    runs pass no coordinator and the hooks cost nothing. *)
type coordinator = {
  begin_attempt : scheme:string -> attempt:int -> unit;
  end_attempt :
    scheme:string ->
    attempt:int ->
    (Outcome.t, Secmed_mediation.Fault.failure) result ->
    (Outcome.t, Secmed_mediation.Fault.failure) result;
}

val attempt :
  ?fault:Secmed_mediation.Fault.plan ->
  ?endpoint:Secmed_mediation.Link.transport ->
  scheme ->
  Env.t ->
  Env.client ->
  query:string ->
  attempt:int ->
  (Outcome.t, Secmed_mediation.Fault.failure) result
(** One end-to-end attempt, exactly as the resilience engine runs it:
    [Fault.start_attempt] bookkeeping, a protocol-rooted trace span, and
    typed failures instead of exceptions ([Wire.Malformed] fails
    closed).  This is what a non-mediator replica executes when the
    mediator's coordinator announces an attempt. *)

val run :
  ?fault:Secmed_mediation.Fault.plan ->
  ?endpoint:Secmed_mediation.Link.transport ->
  scheme -> Env.t -> Env.client -> query:string -> run_result
(** Runs the protocol end to end.  Detected faults surface as [Fault]
    rather than exceptions.  Transient channel faults trigger a bounded
    retry with a fresh request (the plan's [max_retries]; rule counters
    persist across attempts, so a [times]-bounded fault is consumed and
    the retry succeeds); byzantine plans are not retried — a fresh
    request reaches the same misbehaving source.  Without a plan this
    never returns [Fault] on honest inputs. *)

val run_exn :
  ?fault:Secmed_mediation.Fault.plan ->
  ?endpoint:Secmed_mediation.Link.transport ->
  scheme -> Env.t -> Env.client -> query:string -> Outcome.t
(** Like {!run} but raises {!Faulted} — for call sites that treat a
    fault as fatal (benches, examples, the legacy CLI paths). *)

(** {2 Resilient sessions}

    {!run_session} wraps the retry loop of {!run} in the
    {!Secmed_mediation.Resilience} layer: a per-query deadline, seeded
    exponential backoff between attempts, per-party circuit breakers
    that persist across queries of the same session, and a graceful
    degradation chain — when a scheme exhausts its retry/deadline
    budget, the next scheme in the chain is tried and a served outcome
    is annotated with [degraded_from] (DESIGN.md §10). *)

type session_result =
  | Served of Outcome.t
      (** the query was answered; [Outcome.degraded_from] tells whether a
          fallback scheme served it *)
  | Unserved of (string * failure) list
      (** every chain entry failed: scheme name and terminal failure, in
          the order tried *)

val degradation_chain : scheme -> scheme list
(** The default fallback order: [pm → commutative → das → fail]; DAS and
    the baselines have no cheaper fallback.  Every step preserves result
    exactness — degradation trades disclosure and cost, not correctness
    (see the table in DESIGN.md §10). *)

val run_session :
  ?fault:Secmed_mediation.Fault.plan ->
  ?endpoint:Secmed_mediation.Link.transport ->
  ?coordinator:coordinator ->
  ?on_deadline:(Secmed_mediation.Resilience.deadline -> unit) ->
  ?session:Secmed_mediation.Resilience.session ->
  ?chain:scheme list ->
  scheme -> Env.t -> Env.client -> query:string -> session_result
(** Serve one query under the session's resilience policy.  [chain]
    defaults to {!degradation_chain}; pass [[]] to disable fallback.
    Reusing the same [session] across calls carries breaker state over,
    so a datasource that keeps failing is eventually short-circuited
    ([phase = "breaker"]) without being contacted.  A spent deadline
    ([phase = "deadline"]) aborts the remaining chain.  Without an
    [endpoint] the query runs over one {!Secmed_mediation.Memory}
    transport that checks the deadline after every send and receive, so
    an injected [Delay] — which really waits — trips the budget
    mid-attempt.  [on_deadline] hands the freshly-created deadline to the
    caller — the network layer points its per-socket-I/O deadline checks
    at it, so blocking time on a real link trips the budget the same
    way. *)

val pp_failure : Format.formatter -> failure -> unit
val pp_session_failures : Format.formatter -> (string * failure) list -> unit
