type scheme =
  | Das of Das_partition.strategy * Das.server_eval
  | Commutative of { use_ids : bool }
  | Private_matching of Pm_join.variant
  | Mobile_code
  | Plain

let default_das = Das (Das_partition.Equi_depth 4, Das.Pair_index)

let all_schemes =
  [ default_das; Commutative { use_ids = false }; Private_matching Pm_join.Session_keys;
    Mobile_code; Plain ]

let paper_schemes =
  [ default_das; Commutative { use_ids = false }; Private_matching Pm_join.Session_keys ]

let scheme_name = function
  | Das (strategy, eval) ->
    let eval_tag = match eval with Das.Pair_index -> "" | Das.Nested_loop -> "/nested-loop" in
    Printf.sprintf "das[%s%s]" (Das_partition.strategy_name strategy) eval_tag
  | Commutative { use_ids } -> if use_ids then "commutative[ids]" else "commutative"
  | Private_matching v -> "pm[" ^ Pm_join.variant_name v ^ "]"
  | Mobile_code -> "mobile-code"
  | Plain -> "plain"

(* Every configuration reachable by a CLI alias; also the search space
   for parsing canonical [scheme_name] spellings back. *)
let named_schemes =
  all_schemes
  @ [
      Das (Das_partition.Singleton, Das.Pair_index);
      Das (Das_partition.Equi_depth 4, Das.Nested_loop);
      Commutative { use_ids = true };
      Private_matching Pm_join.Direct_payload;
    ]

let scheme_of_name = function
  | "das" -> Some default_das
  | "das-singleton" -> Some (Das (Das_partition.Singleton, Das.Pair_index))
  | "das-nested-loop" -> Some (Das (Das_partition.Equi_depth 4, Das.Nested_loop))
  | "commutative" -> Some (Commutative { use_ids = false })
  | "commutative-ids" -> Some (Commutative { use_ids = true })
  | "pm" -> Some (Private_matching Pm_join.Session_keys)
  | "pm-direct" -> Some (Private_matching Pm_join.Direct_payload)
  | "mobile-code" -> Some Mobile_code
  | "plain" -> Some Plain
  | other -> List.find_opt (fun s -> String.equal (scheme_name s) other) named_schemes

open Secmed_mediation

type failure = {
  phase : string;
  party : Transcript.party;
  reason : string;
  attempts : int;
}

type run_result =
  | Ok of Outcome.t
  | Fault of failure

exception Faulted of failure

let dispatch ?fault ?endpoint scheme env client ~query =
  match scheme with
  | Das (strategy, server_eval) ->
    Das.run ?fault ?endpoint ~strategy ~server_eval env client ~query
  | Commutative { use_ids } -> Commutative_join.run ?fault ?endpoint ~use_ids env client ~query
  | Private_matching variant -> Pm_join.run ?fault ?endpoint ~variant env client ~query
  | Mobile_code -> Mobile_code.run ?fault ?endpoint env client ~query
  | Plain -> Plain_join.run ?fault ?endpoint env client ~query

(* Distributed coordination hooks (Secmed_net): the mediator announces
   each attempt to the replicas and collects their end-of-attempt
   reports, possibly overriding a locally-Ok result when a peer
   faulted.  In-process runs have no coordinator. *)
type coordinator = {
  begin_attempt : scheme:string -> attempt:int -> unit;
  end_attempt :
    scheme:string ->
    attempt:int ->
    (Outcome.t, Fault.failure) result ->
    (Outcome.t, Fault.failure) result;
}

module R = Resilience

(* One end-to-end attempt of one scheme, as the resilience engine sees
   it: a typed result, never an exception.  [Wire.Malformed] escaping a
   driver's own handling is belt and braces — it fails closed here and
   goes down the same (traced) retry path as a detected fault. *)
let one_attempt ?fault ?endpoint ?coordinator scheme env client ~query n =
  let module Obs = Secmed_obs in
  Fault.start_attempt fault ~attempt:n;
  (match coordinator with
   | None -> ()
   | Some c -> c.begin_attempt ~scheme:(scheme_name scheme) ~attempt:n);
  let traced_dispatch () =
    Obs.Trace.with_span ~kind:Obs.Trace.Protocol
      ~attrs:
        [
          ("scheme", Obs.Json.Str (scheme_name scheme));
          ("attempt", Obs.Json.Int n);
        ]
      (scheme_name scheme)
      (fun () -> dispatch ?fault ?endpoint scheme env client ~query)
  in
  let local =
    match traced_dispatch () with
    | outcome -> Stdlib.Ok outcome
    | exception Fault.Fault_detected f -> Stdlib.Error f
    | exception Wire.Malformed msg ->
      Stdlib.Error { Fault.phase = "wire-decode"; party = Transcript.Mediator; reason = msg }
  in
  let result =
    match coordinator with
    | None -> local
    | Some c -> c.end_attempt ~scheme:(scheme_name scheme) ~attempt:n local
  in
  (match result with Stdlib.Error f -> Fault.record_failure fault f | Stdlib.Ok _ -> ());
  result

let attempt ?fault ?endpoint scheme env client ~query ~attempt =
  one_attempt ?fault ?endpoint scheme env client ~query attempt

let failure_of_verdict : Outcome.t R.verdict -> failure = function
  | R.Served _ -> invalid_arg "failure_of_verdict: served"
  | R.Exhausted { failure = f; attempts } ->
    { phase = f.Fault.phase; party = f.Fault.party; reason = f.Fault.reason; attempts }
  | R.Timed_out { phase; elapsed; budget; attempts } ->
    {
      phase = "deadline";
      party = Transcript.Mediator;
      reason =
        Printf.sprintf "deadline exceeded in %s after %.3fs (budget %.3fs)" phase elapsed
          budget;
      attempts;
    }
  | R.Short_circuited { party; attempts } ->
    {
      phase = "breaker";
      party;
      reason =
        Printf.sprintf "circuit open for %s: request short-circuited"
          (Transcript.party_name party);
      attempts;
    }

let execute_scheme ?fault ?endpoint ?coordinator ?session ~deadline scheme env client ~query =
  R.execute ?session ~deadline ~label:(scheme_name scheme)
    ~retryable:(Fault.retryable fault)
    ~budget:(1 + Fault.max_retries fault)
    ~parties_of:(fun outcome -> Transcript.parties outcome.Outcome.transcript)
    (one_attempt ?fault ?endpoint ?coordinator scheme env client ~query)

(* The mediator's recovery policy: a transient channel fault is worth a
   bounded number of fresh requests (the rule counters on the plan are
   consumed across attempts, so a [times]-bounded fault clears); a
   byzantine source is not — a fresh request reaches the same liar. *)
let run ?fault ?endpoint scheme env client ~query =
  let deadline = R.unlimited R.monotonic in
  match execute_scheme ?fault ?endpoint ~deadline scheme env client ~query with
  | R.Served { value; _ } -> Ok value
  | verdict -> Fault (failure_of_verdict verdict)

let run_exn ?fault ?endpoint scheme env client ~query =
  match run ?fault ?endpoint scheme env client ~query with
  | Ok outcome -> outcome
  | Fault f -> raise (Faulted f)

(* ------------------------------------------------------------------ *)
(* Resilient sessions: deadline, backoff, breakers, degradation. *)

type session_result =
  | Served of Outcome.t
  | Unserved of (string * failure) list

let degradation_chain = function
  | Private_matching _ -> [ Commutative { use_ids = false }; default_das ]
  | Commutative _ -> [ default_das ]
  | Das _ | Mobile_code | Plain -> []

let degradations = Secmed_obs.Metrics.counter "resilience.degradations"

let run_session ?fault ?endpoint ?coordinator ?on_deadline ?session ?chain scheme env client
    ~query =
  let module Obs = Secmed_obs in
  let session = match session with Some s -> s | None -> R.session () in
  let deadline = R.new_deadline session in
  (match on_deadline with None -> () | Some f -> f deadline);
  let chain = match chain with Some c -> c | None -> degradation_chain scheme in
  (* A run in this process checks the query budget after every delivery,
     as the mediator does on its sockets: a delayed or stalled link trips
     it mid-attempt, on real time. *)
  let endpoint =
    match endpoint with
    | Some transport -> transport
    | None -> Memory.transport ~after_io:(fun ~phase -> R.check deadline ~phase) ()
  in
  let serve_degraded outcome last_failure =
    let from_scheme = scheme_name scheme in
    Obs.Metrics.incr degradations;
    Obs.Trace.event "degraded"
      ~attrs:
        [
          ("from", Obs.Json.Str from_scheme);
          ("to", Obs.Json.Str outcome.Outcome.scheme);
          ("reason", Obs.Json.Str last_failure.reason);
        ];
    Outcome.mark_degraded outcome ~from_scheme ~reason:last_failure.reason
  in
  let rec serve rev_tried = function
    | [] -> Unserved (List.rev rev_tried)
    | candidate :: rest -> (
      match
        execute_scheme ?fault ~endpoint ?coordinator ~session ~deadline candidate env client
          ~query
      with
      | R.Served { value = outcome; _ } -> (
        match rev_tried with
        | [] -> Served outcome
        | (_, last_failure) :: _ -> Served (serve_degraded outcome last_failure))
      | verdict ->
        let f = failure_of_verdict verdict in
        let rev_tried = (scheme_name candidate, f) :: rev_tried in
        (* A spent deadline also covers every scheme further down. *)
        if R.expired deadline then Unserved (List.rev rev_tried) else serve rev_tried rest)
  in
  serve [] (scheme :: chain)

let pp_failure fmt f =
  Format.fprintf fmt "fault at %s (%s) after %d attempt%s: %s" f.phase
    (Transcript.party_name f.party) f.attempts
    (if f.attempts = 1 then "" else "s")
    f.reason

let pp_session_failures fmt tried =
  List.iter
    (fun (scheme, f) -> Format.fprintf fmt "%s: %a@." scheme pp_failure f)
    tried
