open Secmed_crypto
module Obs = Secmed_obs

(* ------------------------------------------------------------------ *)
(* Clocks. *)

type clock = { now : unit -> float; sleep : float -> unit }

let monotonic = { now = Secmed_obs.Clock.now; sleep = Unix.sleepf }

let manual ?(start = 0.0) () =
  let t = ref start in
  let advance d = if d > 0.0 then t := !t +. d in
  ({ now = (fun () -> !t); sleep = advance }, advance)

(* ------------------------------------------------------------------ *)
(* Backoff. *)

type backoff = {
  base : float;
  growth : float;
  max_delay : float;
  jitter : float;
  seed : int;
}

let backoff ?(base = 0.05) ?(factor = 2.0) ?(max_delay = 2.0) ?(jitter = 0.2) ?(seed = 0) ()
    =
  { base; growth = factor; max_delay; jitter; seed }

let no_backoff = backoff ~base:0.0 ~jitter:0.0 ()

let backoff_delay b ~attempt =
  if b.base <= 0.0 then 0.0
  else begin
    let raw = Float.min b.max_delay (b.base *. (b.growth ** float_of_int (attempt - 1))) in
    if b.jitter <= 0.0 then raw
    else begin
      (* A fresh child stream per (seed, attempt): the n-th delay is a pure
         function of the configuration, independent of draw order. *)
      let prng =
        Prng.split (Prng.of_int_seed b.seed) (Printf.sprintf "backoff-%d" attempt)
      in
      let u = float_of_int (Prng.uniform_int prng 1_000_000) /. 1_000_000.0 in
      raw *. (1.0 -. b.jitter +. (2.0 *. b.jitter *. u))
    end
  end

let backoff_schedule b ~attempts = List.init attempts (fun i -> backoff_delay b ~attempt:(i + 1))

(* ------------------------------------------------------------------ *)
(* Deadlines. *)

type deadline = { d_clock : clock; budget : float; start : float }

exception Deadline_exceeded of { phase : string; elapsed : float; budget : float }

let deadline clock ~budget = { d_clock = clock; budget; start = clock.now () }
let unlimited clock = deadline clock ~budget:infinity

let elapsed d = d.d_clock.now () -. d.start
let remaining d = Float.max 0.0 (d.budget -. elapsed d)
let expired d = elapsed d > d.budget

(* Interned eagerly at module init: these are bumped from concurrent
   session workers, and [Lazy.force] is not reentrancy-safe across
   threads. *)
let deadline_trips = Obs.Metrics.counter "resilience.deadline.trips"

let check d ~phase =
  if expired d then begin
    let elapsed = elapsed d in
    Obs.Metrics.incr deadline_trips;
    if Obs.Trace.enabled () then
      Obs.Trace.event "deadline-exceeded"
        ~attrs:
          [
            ("phase", Obs.Json.Str phase);
            ("elapsed_s", Obs.Json.Float elapsed);
            ("budget_s", Obs.Json.Float d.budget);
          ];
    raise (Deadline_exceeded { phase; elapsed; budget = d.budget })
  end

let phase_budget d ~fraction = fraction *. remaining d

(* ------------------------------------------------------------------ *)
(* Circuit breakers. *)

type breaker_state = Closed | Open | Half_open

let breaker_state_name = function
  | Closed -> "closed"
  | Open -> "open"
  | Half_open -> "half-open"

type breaker_config = {
  window : int;
  failure_threshold : float;
  min_samples : int;
  cooldown : float;
  half_open_probes : int;
}

let default_breaker =
  { window = 16; failure_threshold = 0.5; min_samples = 4; cooldown = 1.0;
    half_open_probes = 1 }

let replica_breaker ~cooldown =
  { window = 1; failure_threshold = 1.0; min_samples = 1; cooldown; half_open_probes = 1 }

type transition = { at : float; from_state : breaker_state; to_state : breaker_state }

type breaker = {
  config : breaker_config;
  b_clock : clock;
  b_party : Transcript.party;
  samples : bool Queue.t;  (* true = failure; newest at the back *)
  mutable failures : int;
  mutable state : breaker_state;
  mutable opened_at : float;
  mutable probes_left : int;
  transitions : transition Queue.t;  (* the newest [kept_transitions], oldest first *)
  mutable transition_count : int;
}

let kept_transitions = 64

let breaker ?(config = default_breaker) clock party =
  {
    config;
    b_clock = clock;
    b_party = party;
    samples = Queue.create ();
    failures = 0;
    state = Closed;
    opened_at = 0.0;
    probes_left = 0;
    transitions = Queue.create ();
    transition_count = 0;
  }

let breaker_party b = b.b_party
let breaker_state b = b.state
let breaker_transitions b = List.of_seq (Queue.to_seq b.transitions)
let breaker_transition_count b = b.transition_count

(* Pre-interned per target state: [transition] runs inside concurrent
   session workers, and the metrics registry itself is unsynchronised. *)
let transition_counters =
  List.map
    (fun st -> (st, Obs.Metrics.counter ("resilience.breaker." ^ breaker_state_name st)))
    [ Closed; Open; Half_open ]

let transition_counter to_state = List.assoc to_state transition_counters

let transition b to_state =
  let from_state = b.state in
  b.state <- to_state;
  Queue.push { at = b.b_clock.now (); from_state; to_state } b.transitions;
  if Queue.length b.transitions > kept_transitions then ignore (Queue.pop b.transitions);
  b.transition_count <- b.transition_count + 1;
  Obs.Metrics.incr (transition_counter to_state);
  if Obs.Trace.enabled () then
    Obs.Trace.event "breaker"
      ~attrs:
        [
          ("party", Obs.Json.Str (Transcript.party_name b.b_party));
          ("from", Obs.Json.Str (breaker_state_name from_state));
          ("to", Obs.Json.Str (breaker_state_name to_state));
        ]

let reset_window b =
  Queue.clear b.samples;
  b.failures <- 0

let breaker_allow b =
  match b.state with
  | Closed | Half_open -> true
  | Open ->
    if b.b_clock.now () -. b.opened_at >= b.config.cooldown then begin
      b.probes_left <- Stdlib.max 1 b.config.half_open_probes;
      transition b Half_open;
      true
    end
    else false

let trip b =
  b.opened_at <- b.b_clock.now ();
  transition b Open

let breaker_close b =
  if b.state <> Closed then begin
    reset_window b;
    transition b Closed
  end

let breaker_record b ~ok =
  match b.state with
  | Open -> ()  (* a short-circuited request never reached the party *)
  | Half_open ->
    if ok then begin
      b.probes_left <- b.probes_left - 1;
      if b.probes_left <= 0 then breaker_close b
    end
    else trip b
  | Closed ->
    Queue.push (not ok) b.samples;
    if not ok then b.failures <- b.failures + 1;
    if Queue.length b.samples > b.config.window then
      if Queue.pop b.samples then b.failures <- b.failures - 1;
    let n = Queue.length b.samples in
    if
      n >= b.config.min_samples
      && float_of_int b.failures >= b.config.failure_threshold *. float_of_int n
    then trip b

(* ------------------------------------------------------------------ *)
(* Policies and sessions. *)

type policy = {
  deadline_budget : float option;
  retry_backoff : backoff;
  breaker_config : breaker_config;
}

let default_policy =
  { deadline_budget = None; retry_backoff = backoff (); breaker_config = default_breaker }

(* A session may be shared by concurrent queries (the mediator server
   funnels every query without a private deadline through one long-lived
   session so breaker history accumulates across clients), so the
   breaker table and every breaker state transition are guarded by
   [s_mu].  The lock is held only around table lookups and the short
   pure state-machine steps — never across an attempt. *)
type session = {
  s_policy : policy;
  s_clock : clock;
  s_breakers : (Transcript.party, breaker) Hashtbl.t;
  s_mu : Mutex.t;
}

let session ?(policy = default_policy) ?(clock = monotonic) () =
  { s_policy = policy; s_clock = clock; s_breakers = Hashtbl.create 7; s_mu = Mutex.create () }

let session_policy s = s.s_policy
let session_clock s = s.s_clock

let breaker_for_unlocked s party =
  match Hashtbl.find_opt s.s_breakers party with
  | Some b -> b
  | None ->
    let b = breaker ~config:s.s_policy.breaker_config s.s_clock party in
    Hashtbl.add s.s_breakers party b;
    b

let breaker_for s party = Mutex.protect s.s_mu (fun () -> breaker_for_unlocked s party)

let breakers s =
  Mutex.protect s.s_mu (fun () -> Hashtbl.fold (fun _ b acc -> b :: acc) s.s_breakers [])

let breakers_json s =
  let sorted =
    List.sort
      (fun a b -> compare (Transcript.party_name a.b_party) (Transcript.party_name b.b_party))
      (breakers s)
  in
  Obs.Json.List
    (List.map
       (fun b ->
         Obs.Json.Obj
           [
             ("party", Obs.Json.Str (Transcript.party_name b.b_party));
             ("state", Obs.Json.Str (breaker_state_name b.state));
             ("transitions", Obs.Json.Int b.transition_count);
           ])
       sorted)

let new_deadline s =
  match s.s_policy.deadline_budget with
  | None -> unlimited s.s_clock
  | Some budget -> deadline s.s_clock ~budget

(* ------------------------------------------------------------------ *)
(* The attempt engine. *)

type 'a verdict =
  | Served of { value : 'a; attempts : int }
  | Exhausted of { failure : Fault.failure; attempts : int }
  | Timed_out of { phase : string; elapsed : float; budget : float; attempts : int }
  | Short_circuited of { party : Transcript.party; attempts : int }

let retries_counter = Obs.Metrics.counter "resilience.retries"
let short_circuits = Obs.Metrics.counter "resilience.short_circuits"
let backoff_hist = Obs.Metrics.histogram "resilience.backoff.seconds"

let execute ?session ~deadline ~label ~retryable ~budget ~parties_of attempt =
  let clock, backoff_cfg =
    match session with
    | None -> (monotonic, no_backoff)
    | Some s -> (s.s_clock, s.s_policy.retry_backoff)
  in
  (* An open breaker refuses the whole query up front: all parties are
     contacted in the request fan-out, so one silenced source means the
     attempt cannot serve anyway. *)
  let refused () =
    match session with
    | None -> None
    | Some s ->
      Mutex.protect s.s_mu (fun () ->
          Hashtbl.fold
            (fun party b acc ->
              match acc with
              | Some _ -> acc
              | None -> if breaker_allow b then None else Some party)
            s.s_breakers None)
  in
  (* Breakers guard datasources only: a fault blamed on the client or the
     mediator is not a reason to stop talking to either — there is nobody
     else to serve the query. *)
  let record ~ok parties =
    match session with
    | None -> ()
    | Some s ->
      Mutex.protect s.s_mu (fun () ->
          List.iter
            (fun party ->
              match (party : Transcript.party) with
              | Transcript.Source _ -> breaker_record (breaker_for_unlocked s party) ~ok
              | Transcript.Client | Transcript.Mediator | Transcript.Authority -> ())
            parties)
  in
  let rec go n =
    match refused () with
    | Some party ->
      Obs.Metrics.incr short_circuits;
      if Obs.Trace.enabled () then
        Obs.Trace.event "short-circuit"
          ~attrs:
            [
              ("scheme", Obs.Json.Str label);
              ("party", Obs.Json.Str (Transcript.party_name party));
            ];
      Short_circuited { party; attempts = n - 1 }
    | None -> (
      match check deadline ~phase:label with
      | exception Deadline_exceeded { phase; elapsed; budget = b } ->
        Timed_out { phase; elapsed; budget = b; attempts = n - 1 }
      | () -> (
        match attempt n with
        | Ok value ->
          record ~ok:true (parties_of value);
          Served { value; attempts = n }
        | Error (f : Fault.failure) ->
          record ~ok:false [ f.Fault.party ];
          if n < budget && retryable then begin
            (* The one retry path: every re-attempt is traced, whatever
               kind of fault provoked it. *)
            Obs.Metrics.incr retries_counter;
            Obs.Trace.event "retry"
              ~attrs:
                [
                  ("phase", Obs.Json.Str f.Fault.phase);
                  ("reason", Obs.Json.Str f.Fault.reason);
                  ("attempt", Obs.Json.Int n);
                ];
            let delay = backoff_delay backoff_cfg ~attempt:n in
            if delay > 0.0 then begin
              Obs.Metrics.observe backoff_hist delay;
              if Obs.Trace.enabled () then
                Obs.Trace.event "backoff"
                  ~attrs:
                    [ ("attempt", Obs.Json.Int n); ("delay_s", Obs.Json.Float delay) ];
              clock.sleep (Float.min delay (remaining deadline))
            end;
            go (n + 1)
          end
          else Exhausted { failure = f; attempts = n }
        | exception Deadline_exceeded { phase; elapsed; budget = b } ->
          (* A mid-attempt trip: a transport's after-I/O check found the
             budget spent (a stalled or delayed link). *)
          Timed_out { phase; elapsed; budget = b; attempts = n }))
  in
  go 1
