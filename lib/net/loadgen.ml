open Secmed_core
module Prng = Secmed_crypto.Prng
module Counters = Secmed_crypto.Counters
module Clock = Secmed_obs.Clock

(* ------------------------------------------------------------------ *)
(* Configuration *)

type arrival = Closed | Poisson of float

type config = {
  workers : int;
  sessions_per_worker : int;
  domains : int;
  mix : (string * int) list;
  arrival : arrival;
  seed : string;
  fault_spec : string;
  deadline : float;
  fallback : bool;
  io_timeout : float;
  verify : bool;
  retry_connect : int;
}

let default_config =
  {
    workers = 8;
    sessions_per_worker = 4;
    domains = 1;
    mix = [ ("das", 1); ("commutative", 1); ("pm", 1) ];
    arrival = Closed;
    seed = "loadgen";
    fault_spec = "";
    deadline = 0.;
    fallback = true;
    io_timeout = 10.;
    verify = false;
    retry_connect = 0;
  }

(* ------------------------------------------------------------------ *)
(* The deterministic plan *)

(* Everything randomized about a run — which scheme each session uses,
   and (open loop) when it is posed — derives from pure [Prng.split]s
   of the master seed, keyed by worker index.  The plan is computed
   before any I/O happens, so two runs with the same seed and config
   drive byte-identical workloads whatever the cluster does with
   them. *)

let weighted_pick g mix total =
  let roll = Prng.uniform_int g total in
  let rec go acc = function
    | [] -> invalid_arg "Loadgen: empty scheme mix"
    | (scheme, w) :: rest -> if roll < acc + w then scheme else go (acc + w) rest
  in
  go 0 mix

(* Inverse-CDF exponential inter-arrival draw on a [0,1) grid; the grid
   is fine enough (1e-6) that the rate error is invisible next to
   session latency. *)
let exp_draw g ~rate =
  let u = float_of_int (Prng.uniform_int g 1_000_000) /. 1_000_000. in
  -.Float.log (1. -. u) /. rate

type planned = { p_worker : int; p_index : int; p_scheme : string; p_at : float }

let plan config =
  let mix = List.filter (fun (_, w) -> w > 0) config.mix in
  let total = List.fold_left (fun acc (_, w) -> acc + w) 0 mix in
  if total <= 0 then invalid_arg "Loadgen.plan: scheme mix has no positive weight";
  let master = Prng.create ~seed:config.seed in
  List.init config.workers (fun w ->
      let schemes_g = Prng.split master (Printf.sprintf "worker-%d" w) in
      let arrivals_g = Prng.split master (Printf.sprintf "arrival-%d" w) in
      let at = ref 0. in
      List.init config.sessions_per_worker (fun i ->
          (match config.arrival with
          | Closed -> ()
          | Poisson rate ->
            let per_worker = rate /. float_of_int config.workers in
            at := !at +. exp_draw arrivals_g ~rate:per_worker);
          {
            p_worker = w;
            p_index = i;
            p_scheme = weighted_pick schemes_g mix total;
            p_at = !at;
          }))

(* ------------------------------------------------------------------ *)
(* Outcomes and the report *)

type outcome_kind = Served | Degraded | Unserved | Refused | Failed

let kind_name = function
  | Served -> "served"
  | Degraded -> "degraded"
  | Unserved -> "unserved"
  | Refused -> "refused"
  | Failed -> "failed"

type record = {
  r_worker : int;
  r_index : int;
  r_scheme : string;
  r_kind : outcome_kind;
  r_latency : float;  (** seconds, [Query] (or dial) to verdict *)
  r_epochs : int;
  r_started : float;
  r_finished : float;
  r_retries : int;
}

type report = {
  records : record list;  (** per worker, in issue order *)
  elapsed : float;  (** wall-clock of the whole fleet *)
  verify_failures : string list;
}

let count kind report =
  List.length (List.filter (fun r -> r.r_kind = kind) report.records)

let qps report =
  if report.elapsed <= 0. then 0.
  else float_of_int (List.length report.records) /. report.elapsed

(* Nearest-rank quantile: the smallest sample with at least a share [q]
   of all samples at or below it, so every reported value was measured;
   0 with no samples.  The epsilon keeps [0.9 *. 140.] from rounding up
   to rank 127. *)
let quantile q samples =
  match List.sort Float.compare samples with
  | [] -> 0.0
  | sorted ->
    let n = List.length sorted in
    let rank = int_of_float (Float.ceil ((q *. float_of_int n) -. 1e-9)) in
    List.nth sorted (max 1 (min n rank) - 1)

(* ------------------------------------------------------------------ *)
(* The fleet *)

type target = {
  host : string;
  port : int;
  scenario : string;
  env : Env.t;
  client : Env.client;
  query : string;
}

let retry_backoff = Secmed_mediation.Resilience.backoff ~base:0.25 ~max_delay:2. ~jitter:0. ()

(* [retry_connect] bounds how many times a session that never started —
   the peer was unreachable, the link died before the verdict, or it
   answered with a typed [Draining] — is re-posed, with exponential
   backoff between tries.  A [Busy] refusal is never retried (that is
   backpressure, not death); an exhausted [Draining] counts as Refused
   (the peer answered, typed) while an exhausted transport error stays
   Failed.  This is what lets a fleet ride out a process restart
   without losing sessions.  [peer] is the worker's client: its
   connection is dialed inside the first session's clock, and again
   after a link death, so a session that dialed pays the connect and
   [Hello] in its latency. *)
let run_one config target peer ~t0 scheme =
  let first_started = Clock.now () in
  let rec go k =
    let started = Clock.now () in
    let finish kind epochs =
      let now = Clock.now () in
      { r_worker = 0; r_index = 0; r_scheme = scheme; r_kind = kind;
        r_latency = now -. started; r_epochs = epochs; r_started = first_started -. t0;
        r_finished = now -. t0; r_retries = k }
    in
    let backoff_retry () =
      Thread.delay (Secmed_mediation.Resilience.backoff_delay retry_backoff ~attempt:(k + 1));
      go (k + 1)
    in
    match
      let client =
        match !peer with
        | Some client -> client
        | None ->
          let client =
            Peer.connect ~host:target.host ~port:target.port ~scenario:target.scenario
              ~io_timeout:config.io_timeout ()
          in
          peer := Some client;
          client
      in
      Peer.query client ~scheme ~query:target.query ~fault_spec:config.fault_spec
        ~deadline:config.deadline ~fallback:config.fallback target.env target.client
    with
    | response ->
      let kind =
        match response.Peer.result with
        | Protocol.Served o ->
          if Option.is_some o.Outcome.degraded_from then Degraded else Served
        | Protocol.Unserved _ -> Unserved
      in
      (finish kind response.Peer.epochs, Some response)
    | exception Peer.Refused _ -> (finish Refused 0, None)
    | exception Peer.Draining _ ->
      if k < config.retry_connect then backoff_retry () else (finish Refused 0, None)
    | exception (Io.Transport_error _ | Secmed_mediation.Wire.Malformed _) ->
      if k < config.retry_connect then backoff_retry () else (finish Failed 0, None)
  in
  go 0

(* One worker: its slice of the plan, one session at a time (closed
   loop), or paced by the planned arrival times (open loop — a session
   that outlives the next arrival is simply late, the open-loop
   property loadgen exists to measure), all on one client connection,
   closed at the end.  [t0] is the fleet's start instant, the common
   timebase every record's start/finish offsets are relative to. *)
let run_worker config target ~t0 planned results =
  let peer = ref None in
  Fun.protect ~finally:(fun () -> Option.iter Peer.close !peer) (fun () ->
      List.iter
        (fun p ->
          (match config.arrival with
          | Closed -> ()
          | Poisson _ ->
            let wait = p.p_at -. (Clock.now () -. t0) in
            if wait > 0. then Thread.delay wait);
          let record, response = run_one config target peer ~t0 p.p_scheme in
          results :=
            ({ record with r_worker = p.p_worker; r_index = p.p_index }, response) :: !results)
        planned);
  Counters.release ()

(* Workers are grouped onto [domains] OCaml domains, each running its
   group as systhreads: threads overlap on I/O waits, domains add real
   crypto parallelism for the client replicas.  Every worker writes
   only its own accumulator, so the fleet needs no locks; domains are
   joined before anything is read. *)
let run config target =
  let started = Clock.now () in
  let worker_plans = plan config in
  let accumulators = List.map (fun _ -> ref []) worker_plans in
  let jobs = List.combine worker_plans accumulators in
  let domains = max 1 (min config.domains config.workers) in
  let groups = Array.make domains [] in
  List.iteri (fun i job -> groups.(i mod domains) <- job :: groups.(i mod domains)) jobs;
  let run_group jobs =
    let threads =
      List.map
        (fun (planned, results) ->
          Thread.create (fun () -> run_worker config target ~t0:started planned results) ())
        jobs
    in
    List.iter Thread.join threads
  in
  (match Array.to_list groups with
  | [] -> ()
  | first :: rest ->
    let spawned = List.map (fun jobs -> Domain.spawn (fun () -> run_group jobs)) rest in
    run_group first;
    List.iter Domain.join spawned);
  let elapsed = Clock.now () -. started in
  let outcomes = List.concat_map (fun acc -> List.rev !acc) accumulators in
  let records = List.map fst outcomes in
  (* Verification against the in-process reference: the environment is
     rebuilt from one seed and every per-run PRNG is a pure split of
     it, so each scheme has exactly one reference execution — every
     served session must be bit-identical to it.  The reference runs
     under a fresh parse of the same fault spec, because plan presence
     is protocol-visible by design (the commutative canary audit only
     runs when a plan is installed).  Sessions that took more than one
     protocol epoch recovered mid-flight (a severed link, a killed
     replica): their final attempt may carry retry residue, so they are
     held to result bit-identity only — the same standard the chaos
     tests pin. *)
  let messages_of tr =
    List.map
      (fun (m : Secmed_mediation.Transcript.message) ->
        (m.seq, m.sender, m.receiver, m.label, m.size))
      (Secmed_mediation.Transcript.messages tr)
  in
  let verify_failures =
    if not config.verify then []
    else begin
      let references = Hashtbl.create 4 in
      let reference scheme =
        match Hashtbl.find_opt references scheme with
        | Some r -> r
        | None ->
          let r =
            match Protocol.scheme_of_name scheme with
            | None -> Error ("unknown scheme: " ^ scheme)
            | Some sch -> (
              let fault =
                if String.equal config.fault_spec "" then None
                else
                  match Secmed_mediation.Fault.of_spec config.fault_spec with
                  | Ok plan -> Some plan
                  | Error _ -> None
              in
              match
                Counters.with_fresh (fun () ->
                    Protocol.run_exn ?fault sch target.env target.client
                      ~query:target.query)
              with
              | outcome, _ -> Ok outcome
              | exception e -> Error (Printexc.to_string e))
          in
          Hashtbl.add references scheme r;
          r
      in
      List.filter_map
        (fun (r, response) ->
          let fail fmt =
            Printf.ksprintf
              (fun msg ->
                Some (Printf.sprintf "worker %d session %d (%s): %s" r.r_worker r.r_index
                        r.r_scheme msg))
              fmt
          in
          match (r.r_kind, response) with
          | (Unserved | Refused | Failed), _ -> None
          | Degraded, _ ->
            (* A degraded session served through another scheme than it
               asked for; its reference is the fallback's, which chaos
               timing picked — out of scope for bit-identity. *)
            None
          | Served, None -> fail "served but no response captured"
          | Served, Some response -> (
            match (response.Peer.result, reference r.r_scheme) with
            | _, Error msg -> fail "reference failed: %s" msg
            | Protocol.Unserved _, _ -> fail "kind/result mismatch"
            | Protocol.Served o, Ok ref_outcome ->
              let open Secmed_relalg in
              if
                not
                  (String.equal
                     (Relation.to_string ref_outcome.Outcome.result)
                     (Relation.to_string o.Outcome.result))
              then fail "result differs from in-process reference"
              else if response.Peer.epochs > 1 then
                (* Recovered mid-session: the served relation above is
                   the bit-identity claim; transcript accounting of the
                   aborted attempt is epoch-local. *)
                None
              else if
                not
                  (messages_of ref_outcome.Outcome.transcript
                  = messages_of o.Outcome.transcript)
              then begin
                let show (seq, s, r, label, size) =
                  Printf.sprintf "#%d %s->%s %s (%d bytes)" seq
                    (Secmed_mediation.Transcript.party_name s)
                    (Secmed_mediation.Transcript.party_name r)
                    label size
                in
                let ref_ms = messages_of ref_outcome.Outcome.transcript in
                let got_ms = messages_of o.Outcome.transcript in
                let rec first_diff i = function
                  | [], [] -> Printf.sprintf "equal prefixes but lengths %d/%d" (List.length ref_ms) (List.length got_ms)
                  | a :: _, [] -> Printf.sprintf "at %d: reference %s, session ended" i (show a)
                  | [], b :: _ -> Printf.sprintf "at %d: reference ended, session %s" i (show b)
                  | a :: tl, b :: tl' ->
                    if a = b then first_diff (i + 1) (tl, tl')
                    else Printf.sprintf "at %d: reference %s, session %s" i (show a) (show b)
                in
                fail "transcript differs from in-process reference (%s)"
                  (first_diff 0 (ref_ms, got_ms))
              end
              else if not (ref_outcome.Outcome.counters = o.Outcome.counters) then
                fail "primitive counters differ from in-process reference"
              else None))
        outcomes
    end
  in
  { records; elapsed; verify_failures }

(* ------------------------------------------------------------------ *)
(* Rendering *)

let ms v = v *. 1000.

let render report =
  let buf = Buffer.create 512 in
  let n = List.length report.records in
  Buffer.add_string buf
    (Printf.sprintf "%d sessions in %.2fs (%.1f qps): %d served, %d degraded, %d unserved, %d refused, %d failed\n"
       n report.elapsed (qps report) (count Served report) (count Degraded report)
       (count Unserved report) (count Refused report) (count Failed report));
  let latencies = List.map (fun r -> r.r_latency) report.records in
  if latencies <> [] then
    Buffer.add_string buf
      (Printf.sprintf "  latency ms: p50=%.1f p95=%.1f p99=%.1f max=%.1f\n"
         (ms (quantile 0.5 latencies))
         (ms (quantile 0.95 latencies))
         (ms (quantile 0.99 latencies))
         (ms (quantile 1. latencies)));
  (* Per scheme, over the sessions that got an answer. *)
  let answered =
    List.filter (fun r -> r.r_kind = Served || r.r_kind = Degraded) report.records
  in
  List.iter
    (fun scheme ->
      let xs =
        List.filter_map
          (fun r -> if String.equal r.r_scheme scheme then Some r.r_latency else None)
          answered
      in
      Buffer.add_string buf
        (Printf.sprintf "  %-12s n=%-4d p50=%.1fms p95=%.1fms p99=%.1fms\n" scheme
           (List.length xs) (ms (quantile 0.5 xs)) (ms (quantile 0.95 xs))
           (ms (quantile 0.99 xs))))
    (List.sort_uniq String.compare (List.map (fun r -> r.r_scheme) answered));
  List.iter
    (fun msg -> Buffer.add_string buf (Printf.sprintf "  VERIFY FAILED: %s\n" msg))
    report.verify_failures;
  Buffer.contents buf
