open Secmed_core
module Json = Secmed_obs.Json

type action = Kill of int * int | Drain_restart

type config = {
  params : Env.params option;
  spec : Workload.spec;
  workers : int;
  sessions_per_worker : int;
  standbys : int;
  kills : int;
  drains : int;
  seed : string;
  rate : float;
  gap : float;
  kill_hold : float;
  retry_connect : int;
  io_timeout : float;
  verify : bool;
}

let default_config =
  {
    params = None;
    spec = Workload.default;
    workers = 4;
    sessions_per_worker = 8;
    standbys = 1;
    kills = 4;
    drains = 1;
    seed = "soak";
    rate = 10.;
    gap = 0.5;
    kill_hold = 1.0;
    retry_connect = 10;
    io_timeout = 10.;
    verify = true;
  }

type event = { ev_at : float; ev_label : string }

type transition = {
  tr_incarnation : int;
  tr_at : float;
  tr_source : int;
  tr_replica : int;
  tr_kind : string;
  tr_detail : string;
}

type report = {
  sk_load : Loadgen.report;
  sk_events : event list;
  sk_transitions : transition list;
  sk_drain_exits : int list;
  sk_kills : (int * int) list;
  sk_violations : string list;
  sk_availability_pct : float;
  sk_kill_window_p99_ms : float;
  sk_failover_latency_s : float;
}

let ok r = r.sk_violations = []

(* ------------------------------------------------------------------ *)
(* The seeded schedule *)

(* Kills cycle through every (source, replica) endpoint in order before
   repeating, so [kills >= 2 * (1 + standbys)] exercises primaries and
   standbys alike; the interleaving with mediator drain-restarts is a
   seeded Fisher-Yates shuffle.  Pure: the same config always yields
   the same schedule, which is what lets the invariant checks match the
   observed transition log against it. *)
let schedule cfg =
  let replicas = 1 + max 0 cfg.standbys in
  let endpoints =
    List.concat_map (fun sid -> List.init replicas (fun r -> (sid, r))) [ 1; 2 ]
  in
  let n = List.length endpoints in
  let kills =
    List.init (max 0 cfg.kills) (fun i ->
        let sid, r = List.nth endpoints (i mod n) in
        Kill (sid, r))
  in
  let drains = List.init (max 0 cfg.drains) (fun _ -> Drain_restart) in
  let arr = Array.of_list (kills @ drains) in
  Secmed_crypto.Prng.shuffle (Secmed_crypto.Prng.create ~seed:("soak-" ^ cfg.seed)) arr;
  Array.to_list arr

(* ------------------------------------------------------------------ *)
(* The cluster *)

(* The cluster runs under {!Loopback}'s supervisor, which forks it on
   entry — before the driver spawns its first thread. *)

let drain_deadline = 10.
let health_interval = 0.25

(* The soak measures failover, not breaker policy: one SIGKILL severs a
   source link and faults every session on it at once, which would trip a rate breaker whose open state is terminal
   for a query.  A threshold above 1.0 can never be reached (the same
   knob the serving bench uses).  The cooldown is also the replicas'
   failback delay. *)
let soak_policy =
  {
    Secmed_mediation.Resilience.default_policy with
    breaker_config =
      { Secmed_mediation.Resilience.default_breaker with failure_threshold = 2.0;
        cooldown = 0.5 };
  }

(* ------------------------------------------------------------------ *)
(* The driver *)

let transitions_of_payload ~incarnation payload =
  match Json.parse payload with
  | Error _ -> []
  | Ok j -> (
    match Option.bind (Json.member "failover" j) (Json.member "events") with
    | Some (Json.List events) ->
      List.filter_map
        (fun e ->
          let i k = Option.bind (Json.member k e) Json.to_int in
          let f k = Option.bind (Json.member k e) Json.to_float in
          let s k = Option.bind (Json.member k e) Json.to_str in
          match (f "at", i "source", i "replica", s "kind", s "detail") with
          | Some at, Some source, Some replica, Some kind, Some detail ->
            Some
              {
                tr_incarnation = incarnation;
                tr_at = at;
                tr_source = source;
                tr_replica = replica;
                tr_kind = kind;
                tr_detail = detail;
              }
          | _ -> None)
        events
    | _ -> [])

let run ?(progress = fun (_ : string) -> ()) cfg =
  Loopback.with_cluster ?params:cfg.params ~policy:soak_policy
    ~max_sessions:(cfg.workers + 4) ~io_timeout:cfg.io_timeout
    ~standbys:cfg.standbys ~health_interval ~drain_deadline ~spec:cfg.spec
  @@ fun c ->
  let med_port = Loopback.port c in
  let violations = ref [] in
  let violate fmt = Printf.ksprintf (fun m -> violations := m :: !violations) fmt in
  let lcfg =
    {
      Loadgen.default_config with
      workers = cfg.workers;
      sessions_per_worker = cfg.sessions_per_worker;
      domains = 1;
      arrival = (if cfg.rate > 0. then Loadgen.Poisson cfg.rate else Loadgen.Closed);
      seed = cfg.seed;
      (* The resilience budget must absorb a SIGKILL severing a source
         link (faulting every session on it) plus a redial race on
         top. *)
      fault_spec = "retries=6";
      io_timeout = cfg.io_timeout;
      verify = cfg.verify;
      retry_connect = cfg.retry_connect;
    }
  in
  let t0 = Unix.gettimeofday () in
  let now () = Unix.gettimeofday () -. t0 in
  let events = ref [] in
  let record fmt =
    Printf.ksprintf
      (fun label ->
        progress (Printf.sprintf "%6.2fs %s" (now ()) label);
        events := { ev_at = now (); ev_label = label } :: !events)
      fmt
  in
  let load = ref None in
  let load_exn = ref None in
  let fleet =
    Thread.create
      (fun () ->
        try load := Some (Loadgen.run lcfg (Loopback.target c)) with e -> load_exn := Some e)
      ()
  in
  let stashes = ref [] in
  let stash_stats what =
    match Peer.stats ~host:"127.0.0.1" ~port:med_port ~io_timeout:2.0 () with
    | payload -> stashes := payload :: !stashes
    | exception _ -> violate "could not stash mediator stats %s" what
  in
  let kills = ref [] in
  let kill_windows = ref [] in
  let drain_exits = ref [] in
  List.iter
    (fun action ->
      Thread.delay cfg.gap;
      match action with
      | Kill (sid, r) ->
        let at = now () in
        record "SIGKILL source %d replica %d" sid r;
        Loopback.kill_source c ~id:sid ~replica:r;
        kills := (sid, r) :: !kills;
        Thread.delay cfg.kill_hold;
        record "restart source %d replica %d" sid r;
        Loopback.restart_source c ~id:sid ~replica:r;
        kill_windows := (at, now ()) :: !kill_windows
      | Drain_restart ->
        (* The transition log dies with the incarnation: stash it first. *)
        stash_stats "before drain";
        record "drain mediator (SIGTERM)";
        drain_exits := Loopback.drain_mediator c :: !drain_exits;
        record "restart mediator";
        Loopback.restart_mediator c)
    (schedule cfg);
  Thread.join fleet;
  record "fleet done";
  (* A replica restarted moments before the fleet drained still needs
     the health checker one probe (cooldown + interval) before its up
     transition exists to be stashed: wait for the expected transitions
     (bounded) rather than race the checker. *)
  let has_up payloads (sid, r) =
    List.exists
      (fun payload ->
        List.exists
          (fun tr -> tr.tr_source = sid && tr.tr_replica = r && tr.tr_kind = "up")
          (transitions_of_payload ~incarnation:0 payload))
      payloads
  in
  let restarted = List.sort_uniq compare !kills in
  let rec await_ups deadline =
    match Peer.stats ~host:"127.0.0.1" ~port:med_port ~io_timeout:2.0 () with
    | payload ->
      if
        (not (List.for_all (has_up (payload :: !stashes)) restarted))
        && Unix.gettimeofday () < deadline
      then begin
        Thread.delay 0.1;
        await_ups deadline
      end
    | exception _ -> ()
  in
  await_ups (Unix.gettimeofday () +. 5.);
  stash_stats "at end";
  let sk_transitions =
    List.concat
      (List.mapi
         (fun i payload -> transitions_of_payload ~incarnation:i payload)
         (List.rev !stashes))
  in
  let sk_load =
    match (!load, !load_exn) with
    | Some r, _ -> r
    | None, Some e ->
      violate "loadgen raised: %s" (Printexc.to_string e);
      { Loadgen.records = []; elapsed = now (); verify_failures = [] }
    | None, None ->
      violate "loadgen produced no report";
      { Loadgen.records = []; elapsed = now (); verify_failures = [] }
  in
  (* ---------------- invariants ---------------- *)
  let records = sk_load.Loadgen.records in
  let expected = cfg.workers * cfg.sessions_per_worker in
  if List.length records <> expected then
    violate "lost sessions: expected %d records, got %d" expected (List.length records);
  let keys =
    List.sort compare
      (List.map (fun r -> (r.Loadgen.r_worker, r.Loadgen.r_index)) records)
  in
  let rec dups = function
    | a :: (b :: _ as rest) ->
      if a = b then
        violate "duplicated session: worker %d index %d" (fst a) (snd a);
      dups rest
    | _ -> ()
  in
  dups keys;
  let count k = Loadgen.count k sk_load in
  if count Loadgen.Failed > 0 then violate "%d sessions Failed" (count Loadgen.Failed);
  if count Loadgen.Unserved > 0 then
    violate "%d sessions Unserved" (count Loadgen.Unserved);
  if count Loadgen.Refused > 0 then
    violate "%d sessions Refused (retry budget exhausted while draining?)"
      (count Loadgen.Refused);
  List.iter (fun m -> violate "verify: %s" m) sk_load.Loadgen.verify_failures;
  List.iter
    (fun code -> if code <> 0 then violate "mediator drain exited with code %d" code)
    (List.rev !drain_exits);
  let killed = List.sort_uniq compare !kills in
  List.iter
    (fun (sid, r) ->
      let has kind =
        List.exists
          (fun tr -> tr.tr_source = sid && tr.tr_replica = r && tr.tr_kind = kind)
          sk_transitions
      in
      if not (has "down") then
        violate "no down transition logged for killed source %d replica %d" sid r;
      if not (has "up") then
        violate "no up transition logged for restarted source %d replica %d" sid r)
    killed;
  (* ---------------- metrics ---------------- *)
  let total = List.length records in
  let first_try_ok =
    List.length
      (List.filter
         (fun r ->
           r.Loadgen.r_retries = 0
           && match r.Loadgen.r_kind with
              | Loadgen.Served | Loadgen.Degraded -> true
              | _ -> false)
         records)
  in
  let sk_availability_pct =
    if total = 0 then 0. else 100. *. float_of_int first_try_ok /. float_of_int total
  in
  let in_kill_window r =
    List.exists
      (fun (k_at, k_end) ->
        r.Loadgen.r_started < k_end +. 0.5 && r.Loadgen.r_finished > k_at)
      !kill_windows
  in
  let sk_kill_window_p99_ms =
    1000.
    *. Loadgen.quantile 0.99
         (List.filter_map
            (fun r ->
              if in_kill_window r then Some (r.Loadgen.r_finished -. r.Loadgen.r_started)
              else None)
            records)
  in
  let sk_failover_latency_s =
    List.fold_left
      (fun acc (k_at, _) ->
        let first_after =
          List.fold_left
            (fun best r ->
              if r.Loadgen.r_finished > k_at then
                match best with
                | None -> Some r.Loadgen.r_finished
                | Some b -> Some (Float.min b r.Loadgen.r_finished)
              else best)
            None records
        in
        match first_after with None -> acc | Some f -> Float.max acc (f -. k_at))
      0. !kill_windows
  in
  {
    sk_load;
    sk_events = List.rev !events;
    sk_transitions;
    sk_drain_exits = List.rev !drain_exits;
    sk_kills = List.rev !kills;
    sk_violations = List.rev !violations;
    sk_availability_pct;
    sk_kill_window_p99_ms;
    sk_failover_latency_s;
  }

(* ------------------------------------------------------------------ *)
(* Reporting *)

let summary_json r =
  Json.Obj
    [
      ("availability_pct", Json.Float r.sk_availability_pct);
      ("kill_window_p99_ms", Json.Float r.sk_kill_window_p99_ms);
      ("failover_latency_s", Json.Float r.sk_failover_latency_s);
      ("kills", Json.Int (List.length r.sk_kills));
      ("drains", Json.Int (List.length r.sk_drain_exits));
      ("sessions", Json.Int (List.length r.sk_load.Loadgen.records));
      ("failed", Json.Int (Loadgen.count Loadgen.Failed r.sk_load));
      ("transitions", Json.Int (List.length r.sk_transitions));
      ("violations", Json.List (List.map (fun v -> Json.Str v) r.sk_violations));
    ]

let render r =
  let buf = Buffer.create 1024 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  add "soak: %d kills, %d drains over %d sessions (%.1fs)\n" (List.length r.sk_kills)
    (List.length r.sk_drain_exits)
    (List.length r.sk_load.Loadgen.records)
    r.sk_load.Loadgen.elapsed;
  add "%s" (Loadgen.render r.sk_load);
  add "availability: %.1f%% first-try; kill-window p99 %.1fms; worst failover %.2fs\n"
    r.sk_availability_pct r.sk_kill_window_p99_ms r.sk_failover_latency_s;
  add "transitions (%d):\n" (List.length r.sk_transitions);
  List.iter
    (fun tr ->
      add "  [med %d] %6.2fs source %d replica %d %-8s %s\n" tr.tr_incarnation tr.tr_at
        tr.tr_source tr.tr_replica tr.tr_kind tr.tr_detail)
    r.sk_transitions;
  (match r.sk_violations with
  | [] -> add "invariants: all hold\n"
  | vs ->
    add "VIOLATIONS (%d):\n" (List.length vs);
    List.iter (fun v -> add "  %s\n" v) vs);
  Buffer.contents buf

let write_log ~path r =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out_noerr oc) @@ fun () ->
  let line j = output_string oc (Json.to_string j ^ "\n") in
  List.iter
    (fun ev ->
      line
        (Json.Obj
           [
             ("type", Json.Str "event");
             ("at", Json.Float ev.ev_at);
             ("label", Json.Str ev.ev_label);
           ]))
    r.sk_events;
  List.iter
    (fun tr ->
      line
        (Json.Obj
           [
             ("type", Json.Str "transition");
             ("incarnation", Json.Int tr.tr_incarnation);
             ("at", Json.Float tr.tr_at);
             ("source", Json.Int tr.tr_source);
             ("replica", Json.Int tr.tr_replica);
             ("kind", Json.Str tr.tr_kind);
             ("detail", Json.Str tr.tr_detail);
           ]))
    r.sk_transitions;
  List.iter
    (fun code ->
      line (Json.Obj [ ("type", Json.Str "drain"); ("exit", Json.Int code) ]))
    r.sk_drain_exits;
  List.iter
    (fun v ->
      line (Json.Obj [ ("type", Json.Str "violation"); ("msg", Json.Str v) ]))
    r.sk_violations;
  line (Json.Obj [ ("type", Json.Str "summary"); ("soak", summary_json r) ])
