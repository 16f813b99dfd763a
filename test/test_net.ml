(* Networked-transport suite (DESIGN.md §11): the incremental frame
   decoder, the typed session codec, the connection mux, and — the heart
   of it — differential tests that run real forked mediator/datasource
   processes on 127.0.0.1 and check the distributed execution is
   bit-identical to the in-process one, byte-accounted three independent
   ways.  Chaos tests interpose a byte-level fault proxy on a live link
   and check each damage mode surfaces as the same typed outcome as its
   simulated counterpart. *)

open Secmed_relalg
open Secmed_mediation
open Secmed_core
open Secmed_net
module R = Resilience
module Obs = Secmed_obs

let fast = { Env.group_bits = 160; paillier_bits = 384 }

let small_spec =
  {
    Workload.default with
    rows_left = 10;
    rows_right = 10;
    distinct_left = 5;
    distinct_right = 5;
    overlap = 3;
    extra_attrs = 1;
  }

let contains hay needle =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  go 0

let schemes = [ "das"; "commutative"; "pm"; "plain"; "mobile-code" ]

(* The other configurations the projected drivers serve ("pm-direct"
   has its own cluster, below). *)
let variants = [ "das-singleton"; "das-nested-loop"; "commutative-ids" ]

(* ------------------------------------------------------------------ *)
(* Wire.Stream: chunk boundaries must be invisible. *)

let sample_frames =
  [ ""; "a"; String.init 300 (fun i -> Char.chr (i mod 256)); "end-of-sample" ]

let drain stream =
  let rec go acc =
    match Wire.Stream.next_frame stream with
    | Some body -> go (body :: acc)
    | None -> List.rev acc
  in
  go []

let test_stream_split_at_every_offset () =
  let whole = String.concat "" (List.map Wire.frame sample_frames) in
  for cut = 0 to String.length whole do
    let s = Wire.Stream.create () in
    Wire.Stream.feed s (String.sub whole 0 cut);
    Wire.Stream.feed s (String.sub whole cut (String.length whole - cut));
    Alcotest.(check (list string))
      (Printf.sprintf "split at offset %d" cut)
      sample_frames (drain s)
  done

let test_stream_byte_by_byte () =
  let whole = String.concat "" (List.map Wire.frame sample_frames) in
  let s = Wire.Stream.create () in
  let got = ref [] in
  String.iter
    (fun c ->
      Wire.Stream.feed s (String.make 1 c);
      got := !got @ drain s)
    whole;
  Alcotest.(check (list string)) "one byte at a time" sample_frames !got;
  Alcotest.(check int) "buffer drained" 0 (Wire.Stream.buffered s)

let test_stream_incomplete_frame_waits () =
  let body = String.make 40 'x' in
  let framed = Wire.frame body in
  let s = Wire.Stream.create () in
  Wire.Stream.feed s (String.sub framed 0 (String.length framed - 1));
  Alcotest.(check bool) "incomplete yields nothing" true (Wire.Stream.next_frame s = None);
  Wire.Stream.feed s (String.sub framed (String.length framed - 1) 1);
  Alcotest.(check bool) "last byte completes it" true (Wire.Stream.next_frame s = Some body)

let test_stream_oversized_frame_rejected () =
  let s = Wire.Stream.create ~max_frame:16 () in
  Wire.Stream.feed s (Wire.frame (String.make 64 'x'));
  match Wire.Stream.next_frame s with
  | exception Wire.Malformed _ -> ()
  | _ -> Alcotest.fail "a frame above max_frame must be rejected"

(* ------------------------------------------------------------------ *)
(* Frame codec. *)

let sample_failure =
  { Fault.phase = "source-evaluate"; party = Transcript.Source 2; reason = "it broke" }

let roundtrip_frames =
  [
    Frame.Hello { role = Transcript.Client; scenario = "abcd1234" };
    Frame.Hello { role = Transcript.Source 7; scenario = "" };
    Frame.Hello_ok { scenario = "abcd1234" };
    Frame.Busy "at capacity";
    Frame.Query
      { scheme = "pm"; query = "select * from L natural join R";
        fault_spec = "drop:mediator->source1;retries=2"; deadline = 1.25; fallback = true;
        trace = false };
    Frame.Query
      { scheme = "das"; query = "q"; fault_spec = ""; deadline = 0.; fallback = false;
        trace = true };
    Frame.Session_start
      { session = 3; epoch = 5; attempt = 2; scheme = "das"; query = "q"; fault_spec = "";
        trace_id = ""; trace_parent = -1 };
    Frame.Session_start
      { session = 3; epoch = 6; attempt = 3; scheme = "pm"; query = "q"; fault_spec = "";
        trace_id = "s3"; trace_parent = 0 };
    Frame.Msg
      { session = 3; epoch = 5; seq = 12; sender = Transcript.Mediator;
        receiver = Transcript.Source 1; label = "rewritten-query";
        declared = 5; payload = "\x00\xffabc" };
    Frame.Report { session = 3; epoch = 5; status = Frame.St_ok };
    Frame.Report { session = 3; epoch = 5; status = Frame.St_failed sample_failure };
    Frame.Report { session = 3; epoch = 5; status = Frame.St_aborted };
    Frame.Abort { session = 3; epoch = 5; failure = sample_failure };
    Frame.Session_result
      { session = 3;
        result =
          Frame.W_served
            { w_scheme = "pm"; w_attempts = 2; w_degraded = Some ("das", "budget spent");
              w_link_stats =
                [ (Transcript.Client, 10, 20); (Transcript.Source 1, 30, 40) ] } };
    Frame.Session_result
      { session = 4; result = Frame.W_unserved [ ("pm", sample_failure, 3) ] };
    Frame.Session_end { session = 9 };
    Frame.Span_batch
      { session = 3; party = Transcript.Source 2; parent = 4; payload = "\x00\x01spans" };
    Frame.Span_batch
      { session = 3; party = Transcript.Mediator; parent = -1; payload = "" };
    Frame.Stats_request;
    Frame.Stats { payload = "{\"uptime_seconds\":1.5}" };
    Frame.Ping;
    Frame.Health { h_role = Transcript.Mediator; h_draining = false; h_active = 3 };
    Frame.Health { h_role = Transcript.Source 2; h_draining = true; h_active = 0 };
    Frame.Drain { scenario = "abcd1234"; deadline = 12.5 };
    Frame.Drain { scenario = ""; deadline = 0. };
    Frame.Drain_ok;
    Frame.Draining "mediator is draining; retry after restart";
  ]

let test_frame_roundtrip () =
  List.iter
    (fun f ->
      Alcotest.(check bool)
        (Frame.tag_name f ^ " roundtrips") true
        (Frame.decode (Frame.encode f) = f))
    roundtrip_frames

let test_frame_rejects_garbage () =
  match Frame.decode "\x2a\x00garbage" with
  | exception Wire.Malformed _ -> ()
  | _ -> Alcotest.fail "garbage must not decode"

(* The millisecond encoding must not mangle deadlines. *)
let test_frame_deadline_precision () =
  match Frame.decode (Frame.encode (Frame.Query
      { scheme = "das"; query = "q"; fault_spec = ""; deadline = 0.75; fallback = false;
        trace = false }))
  with
  | Frame.Query { deadline; _ } -> Alcotest.(check (float 1e-9)) "0.75s survives" 0.75 deadline
  | _ -> Alcotest.fail "not a Query"

(* ------------------------------------------------------------------ *)
(* Mux: frames that race in behind a Session_start must not be lost. *)

let socket_pair () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (Io.of_fd ~peer:"a" a, Io.of_fd ~peer:"b" b)

let msg ~seq label =
  Frame.Msg
    { session = 1; epoch = 1; seq; sender = Transcript.Mediator;
      receiver = Transcript.Source 1; label; declared = 2; payload = "xy" }

let test_mux_parks_frames_before_subscription () =
  let a, b = socket_pair () in
  Fun.protect ~finally:(fun () -> Io.close a; Io.close b) @@ fun () ->
  let send f = Io.send_frame a (Frame.encode f) in
  (* Burst: announcement plus the frames right behind it, all on the
     wire before the consumer even creates its handler. *)
  send (Frame.Session_start
          { session = 1; epoch = 1; attempt = 1; scheme = "das"; query = "q"; fault_spec = "";
            trace_id = ""; trace_parent = -1 });
  send (msg ~seq:0 "first");
  send (msg ~seq:1 "second");
  let mux = Endpoint.Mux.create b in
  (match Endpoint.Mux.next_control mux ~timeout:5. with
  | Frame.Session_start { session; _ } -> Alcotest.(check int) "announced" 1 session
  | f -> Alcotest.fail ("expected announcement, got " ^ Frame.tag_name f));
  (match Endpoint.Mux.next mux ~session:1 ~timeout:5. with
  | Frame.Session_start _ -> ()
  | f -> Alcotest.fail ("expected parked Session_start, got " ^ Frame.tag_name f));
  (match Endpoint.Mux.next mux ~session:1 ~timeout:5. with
  | Frame.Msg { label = "first"; _ } -> ()
  | f -> Alcotest.fail ("expected first msg, got " ^ Frame.tag_name f));
  match Endpoint.Mux.next mux ~session:1 ~timeout:5. with
  | Frame.Msg { label = "second"; _ } -> ()
  | f -> Alcotest.fail ("expected second msg, got " ^ Frame.tag_name f)

let test_mux_drops_frames_of_closed_sessions () =
  let a, b = socket_pair () in
  Fun.protect ~finally:(fun () -> Io.close a; Io.close b) @@ fun () ->
  let mux = Endpoint.Mux.create b in
  Endpoint.Mux.subscribe mux 1;
  Endpoint.Mux.unsubscribe mux 1;
  Io.send_frame a (Frame.encode (msg ~seq:0 "stale"));
  Io.send_frame a (Frame.encode (Frame.Busy "marker"));
  (* The control frame arrives, proving the stale Msg was dropped rather
     than misrouted onto the control queue ahead of it. *)
  match Endpoint.Mux.next_control mux ~timeout:5. with
  | Frame.Busy "marker" -> ()
  | f -> Alcotest.fail ("expected the marker, got " ^ Frame.tag_name f)

(* Tombstone lifecycle.  A marker control frame after the payload under
   test synchronizes with the recv thread: the mux routes frames in wire
   order, so once the marker is observable the verdicts before it are
   final. *)
let mux_sync a mux =
  Io.send_frame a (Frame.encode (Frame.Busy "sync"));
  match Endpoint.Mux.next_control mux ~timeout:5. with
  | Frame.Busy "sync" -> ()
  | f -> Alcotest.fail ("expected sync marker, got " ^ Frame.tag_name f)

let test_mux_tombstone_drops_counted () =
  let a, b = socket_pair () in
  Fun.protect ~finally:(fun () -> Io.close a; Io.close b) @@ fun () ->
  let mux = Endpoint.Mux.create b in
  Endpoint.Mux.subscribe mux 1;
  Endpoint.Mux.unsubscribe mux 1;
  Alcotest.(check int) "one tombstone" 1 (Endpoint.Mux.tombstones mux);
  for seq = 0 to 2 do
    Io.send_frame a (Frame.encode (msg ~seq "stale"))
  done;
  mux_sync a mux;
  Alcotest.(check int) "three drops" 3 (Endpoint.Mux.dropped mux);
  Alcotest.(check int) "still one tombstone" 1 (Endpoint.Mux.tombstones mux)

let test_mux_tombstones_bounded () =
  let a, b = socket_pair () in
  Fun.protect ~finally:(fun () -> Io.close a; Io.close b) @@ fun () ->
  let mux = Endpoint.Mux.create ~max_tombstones:4 b in
  for sid = 1 to 10 do
    Endpoint.Mux.subscribe mux sid;
    Endpoint.Mux.unsubscribe mux sid
  done;
  Alcotest.(check int) "eviction keeps the cap" 4 (Endpoint.Mux.tombstones mux);
  (* FIFO eviction: session 1's tombstone is long gone, so its late
     frame is parked as an unknown session, not dropped; session 10's
     tombstone survives, so its late frame is dropped. *)
  Io.send_frame a (Frame.encode (msg ~seq:0 "late-evicted"));
  Io.send_frame a
    (Frame.encode
       (Frame.Msg
          { session = 10; epoch = 1; seq = 0; sender = Transcript.Mediator;
            receiver = Transcript.Source 1; label = "late-tombstoned"; declared = 2;
            payload = "xy" }));
  mux_sync a mux;
  Alcotest.(check int) "tombstoned frame dropped" 1 (Endpoint.Mux.dropped mux);
  match Endpoint.Mux.next mux ~session:1 ~timeout:5. with
  | Frame.Msg { label = "late-evicted"; _ } -> ()
  | f -> Alcotest.fail ("expected the parked frame, got " ^ Frame.tag_name f)

let test_mux_subscribe_resurrects_tombstoned_id () =
  let a, b = socket_pair () in
  Fun.protect ~finally:(fun () -> Io.close a; Io.close b) @@ fun () ->
  let mux = Endpoint.Mux.create b in
  Endpoint.Mux.subscribe mux 1;
  Endpoint.Mux.unsubscribe mux 1;
  (* The server reuses ids only with an epoch bump; the resubscribe must
     clear the tombstone so the revived session is routable again. *)
  Endpoint.Mux.subscribe mux 1;
  Alcotest.(check int) "tombstone cleared" 0 (Endpoint.Mux.tombstones mux);
  Io.send_frame a (Frame.encode (msg ~seq:0 "revived"));
  (match Endpoint.Mux.next mux ~session:1 ~timeout:5. with
  | Frame.Msg { label = "revived"; _ } -> ()
  | f -> Alcotest.fail ("expected the revived frame, got " ^ Frame.tag_name f));
  Alcotest.(check int) "nothing dropped" 0 (Endpoint.Mux.dropped mux)

(* Regression: a session handler that lost the race with its session's
   end (a late duplicate announcement) reads a typed transport error,
   not [Invalid_argument] killing its thread. *)
let test_mux_next_on_closed_session_is_typed () =
  let a, b = socket_pair () in
  Fun.protect ~finally:(fun () -> Io.close a; Io.close b) @@ fun () ->
  let mux = Endpoint.Mux.create b in
  Endpoint.Mux.subscribe mux 3;
  Endpoint.Mux.unsubscribe mux 3;
  match Endpoint.Mux.next mux ~session:3 ~timeout:1. with
  | exception Io.Transport_error m ->
    Alcotest.(check bool) "names the closed session" true (contains m "not subscribed")
  | f -> Alcotest.fail ("a closed session yielded " ^ Frame.tag_name f)

(* Regression: closing a connection stops its mux's receive thread
   before the descriptor is released, so a socket that reuses the
   number keeps every one of its frames. *)
let test_mux_reader_gone_when_closed () =
  let a, b = socket_pair () in
  let mux = Endpoint.Mux.create b in
  Endpoint.Mux.subscribe mux 1;
  Io.send_frame a (Frame.encode (msg ~seq:0 "before-close"));
  (match Endpoint.Mux.next mux ~session:1 ~timeout:5. with
  | Frame.Msg { label = "before-close"; _ } -> ()
  | f -> Alcotest.fail ("expected the first frame, got " ^ Frame.tag_name f));
  (* The peer stays open: only the close itself can stop the reader. *)
  Io.close b;
  Alcotest.(check bool) "receive thread gone when close returns" false
    (Endpoint.Mux.alive mux);
  let c, d = socket_pair () in
  Fun.protect ~finally:(fun () -> List.iter Io.close [ a; c; d ]) @@ fun () ->
  for seq = 0 to 49 do
    Io.send_frame c (Frame.encode (msg ~seq "after-reuse"))
  done;
  for seq = 0 to 49 do
    match Frame.decode (Io.recv_frame d) with
    | Frame.Msg m -> Alcotest.(check int) "frame kept by its own socket" seq m.Frame.seq
    | f -> Alcotest.fail ("unexpected " ^ Frame.tag_name f)
  done

(* A seeded concurrency stress: one producer interleaves the frames of
   many sessions on the wire (the interleaving drawn from a PRNG, so a
   failure replays exactly), while one consumer thread per session
   drains its queue concurrently.  Every session must see exactly its
   own frames, in order — nothing lost, duplicated, or cross-delivered
   through the shared stream. *)
let test_mux_concurrent_sessions_stress () =
  let sessions = 8 and frames_per_session = 40 in
  List.iter
    (fun round ->
      let a, b = socket_pair () in
      Fun.protect ~finally:(fun () -> Io.close a; Io.close b) @@ fun () ->
      let mux = Endpoint.Mux.create b in
      (* Fresh session ids per round: a closed session's id is a
         tombstone, never reused. *)
      let sid k = (round * 100) + k + 1 in
      let schedule =
        (* All (session, seq) pairs, shuffled by the round's seed. *)
        let all =
          Array.init (sessions * frames_per_session) (fun i ->
              (sid (i / frames_per_session), i mod frames_per_session))
        in
        Secmed_crypto.Prng.shuffle
          (Secmed_crypto.Prng.create ~seed:(Printf.sprintf "mux-stress-%d" round))
          all;
        all
      in
      let received = Array.make sessions [] in
      let errors = ref [] in
      let consumers =
        List.init sessions (fun k ->
            Endpoint.Mux.subscribe mux (sid k);
            Thread.create
              (fun () ->
                try
                  for _ = 1 to frames_per_session do
                    match Endpoint.Mux.next mux ~session:(sid k) ~timeout:10. with
                    | Frame.Msg { session; seq; label; _ } ->
                      received.(k) <- (session, seq, label) :: received.(k)
                    | f ->
                      errors := Frame.tag_name f :: !errors
                  done
                with Io.Transport_error msg -> errors := msg :: !errors)
              ())
      in
      Array.iter
        (fun (session, seq) ->
          Io.send_frame a
            (Frame.encode
               (Frame.Msg
                  { session; epoch = 1; seq; sender = Transcript.Mediator;
                    receiver = Transcript.Source 1;
                    label = Printf.sprintf "s%d-%d" session seq;
                    declared = 2; payload = "xy" })))
        schedule;
      List.iter Thread.join consumers;
      Alcotest.(check (list string)) "no consumer errors" [] !errors;
      (* A session's queue must replay its own subsequence of the wire,
         in wire order: the shuffle scrambles seqs within a session too,
         and the mux routes — it never reorders. *)
      List.iter
        (fun k ->
          let expected =
            Array.to_list schedule
            |> List.filter_map (fun (session, seq) ->
                   if session = sid k then
                     Some (session, seq, Printf.sprintf "s%d-%d" session seq)
                   else None)
          in
          Alcotest.(check bool)
            (Printf.sprintf "round %d session %d intact and in wire order" round (sid k))
            true
            (List.rev received.(k) = expected))
        (List.init sessions Fun.id))
    [ 0; 1; 2 ]

(* ------------------------------------------------------------------ *)
(* Scenario digests. *)

let test_scenario_digest_deterministic () =
  Alcotest.(check string)
    "same spec, same digest"
    (Scenario.digest ~params:fast small_spec)
    (Scenario.digest ~params:fast small_spec);
  Alcotest.(check bool)
    "seed changes it" true
    (Scenario.digest ~params:fast small_spec
    <> Scenario.digest ~params:fast { small_spec with Workload.seed = small_spec.Workload.seed + 1 });
  Alcotest.(check bool)
    "crypto params change it" true
    (Scenario.digest ~params:fast small_spec <> Scenario.digest small_spec)

(* ------------------------------------------------------------------ *)
(* Loopback differential: forked processes vs in-process, bit for bit. *)

let messages_of tr =
  List.map
    (fun (m : Transcript.message) -> (m.seq, m.sender, m.receiver, m.label, m.size))
    (Transcript.messages tr)

let check_differential c name =
  let scheme = Option.get (Protocol.scheme_of_name name) in
  let reference =
    Protocol.run_exn scheme (Loopback.env c) (Loopback.client_of c)
      ~query:(Loopback.canonical_query c)
  in
  let response = Loopback.query c ~scheme:name () in
  let outcome =
    match response.Peer.result with
    | Protocol.Served o -> o
    | Protocol.Unserved tried ->
      Alcotest.failf "%s unserved: %a" name Protocol.pp_session_failures tried
  in
  Alcotest.(check int) (name ^ ": one attempt") 1 response.Peer.epochs;
  Alcotest.(check string)
    (name ^ ": bit-identical result")
    (Relation.to_string reference.Outcome.result)
    (Relation.to_string outcome.Outcome.result);
  Alcotest.(check bool)
    (name ^ ": identical transcript messages") true
    (messages_of reference.Outcome.transcript = messages_of outcome.Outcome.transcript);
  Alcotest.(check int)
    (name ^ ": same message count")
    (Transcript.message_count reference.Outcome.transcript)
    (Transcript.message_count outcome.Outcome.transcript);
  Alcotest.(check int)
    (name ^ ": same byte total")
    (Transcript.total_bytes reference.Outcome.transcript)
    (Transcript.total_bytes outcome.Outcome.transcript);
  Alcotest.(check bool)
    (name ^ ": identical primitive counters") true
    (reference.Outcome.counters = outcome.Outcome.counters);
  (* Byte accounting, way two: what the mediator process actually
     pushed through each socket route must equal the transcript's
     per-link totals (frames carry exactly the canonical payloads —
     no inflation, no elision). *)
  let tr = outcome.Outcome.transcript in
  List.iter
    (fun (party, out_bytes, in_bytes) ->
      Alcotest.(check int)
        (Printf.sprintf "%s: mediator->%s socket payload" name
           (Transcript.party_name party))
        (Transcript.bytes_on_link tr Transcript.Mediator party)
        out_bytes;
      Alcotest.(check int)
        (Printf.sprintf "%s: %s->mediator socket payload" name
           (Transcript.party_name party))
        (Transcript.bytes_on_link tr party Transcript.Mediator)
        in_bytes)
    response.Peer.link_stats;
  (* Way three: the client's raw socket byte counters bound its
     transcript share from above (framing and session-control
     overhead ride on top of the payloads). *)
  let cl_in = Transcript.bytes_on_link tr Transcript.Mediator Transcript.Client in
  let cl_out = Transcript.bytes_on_link tr Transcript.Client Transcript.Mediator in
  let sock_in, sock_out = response.Peer.socket_bytes in
  Alcotest.(check bool) (name ^ ": socket in >= payload in") true (sock_in >= cl_in);
  Alcotest.(check bool) (name ^ ": socket out >= payload out") true (sock_out >= cl_out)

let test_loopback_differential () =
  Loopback.with_cluster ~params:fast ~spec:small_spec @@ fun c ->
  List.iter (check_differential c) (schemes @ variants)

(* PM's direct-payload variant packs whole tuple sets into Paillier
   plaintexts, which needs a wider modulus and narrower tuples than
   [fast] and [small_spec] give. *)
let test_pm_direct_differential () =
  Loopback.with_cluster ~params:{ fast with Env.paillier_bits = 768 }
    ~spec:{ small_spec with rows_left = 6; rows_right = 6; extra_attrs = 0 }
  @@ fun c -> check_differential c "pm-direct"

(* ------------------------------------------------------------------ *)
(* Chaos conformance: live stream damage = simulated damage, typed. *)

let chaos_rule ?times action =
  Fault.plan [ Fault.rule ~sender:Transcript.Mediator ~receiver:(Transcript.Source 1) ?times action ]

let served_exn name = function
  | Protocol.Served o -> o
  | Protocol.Unserved tried ->
    Alcotest.failf "%s unserved: %a" name Protocol.pp_session_failures tried

let test_chaos_corrupt_retried_then_served () =
  let plan = chaos_rule ~times:1 (Fault.Corrupt 2) in
  Loopback.with_cluster ~params:fast ~spec:small_spec ~chaos:[ (1, plan) ] @@ fun c ->
  let reference =
    Protocol.run_exn
      (Option.get (Protocol.scheme_of_name "commutative"))
      (Loopback.env c) (Loopback.client_of c) ~query:(Loopback.canonical_query c)
  in
  let response =
    Loopback.query c ~scheme:"commutative" ~fault_spec:"retries=2" ~fallback:false ()
  in
  let outcome = served_exn "commutative" response.Peer.result in
  Alcotest.(check int) "one retry" 2 response.Peer.epochs;
  Alcotest.(check string)
    "retried run still bit-identical"
    (Relation.to_string reference.Outcome.result)
    (Relation.to_string outcome.Outcome.result);
  match Loopback.chaos_events c 1 with
  | [ { Fault.event_action = Fault.Corrupt _; _ } ] -> ()
  | [ e ] -> Alcotest.failf "expected corrupt, got %s" (Fault.action_name e.Fault.event_action)
  | es -> Alcotest.failf "expected exactly one proxy event, got %d" (List.length es)

let test_chaos_drop_is_typed_timeout_fault () =
  let plan = chaos_rule ~times:1 Fault.Drop in
  Loopback.with_cluster ~params:fast ~spec:small_spec ~chaos:[ (1, plan) ] ~io_timeout:1.5
  @@ fun c ->
  let response =
    Loopback.query c ~scheme:"commutative" ~fault_spec:"retries=0" ~fallback:false ()
  in
  match response.Peer.result with
  | Protocol.Served _ -> Alcotest.fail "a dropped frame with no retries must not serve"
  | Protocol.Unserved [ (scheme, f) ] ->
    Alcotest.(check string) "scheme" "commutative" scheme;
    (* Same typed blame as the simulated Drop: the receiving party, at
       the phase awaiting the frame. *)
    let simulated =
      match
        Protocol.run_session
          ?fault:(Result.to_option (Fault.of_spec "drop:mediator->source1:times=1;retries=0"))
          ~chain:[]
          (Option.get (Protocol.scheme_of_name "commutative"))
          (Loopback.env c) (Loopback.client_of c) ~query:(Loopback.canonical_query c)
      with
      | Protocol.Unserved [ (_, sf) ] -> sf
      | _ -> Alcotest.fail "simulated drop must be unserved too"
    in
    if not (Transcript.party_equal f.Protocol.party simulated.Protocol.party) then
      Alcotest.failf "blame differs: wire %s at %s (%s), simulated %s at %s (%s)"
        (Transcript.party_name f.Protocol.party)
        f.Protocol.phase f.Protocol.reason
        (Transcript.party_name simulated.Protocol.party)
        simulated.Protocol.phase simulated.Protocol.reason;
    Alcotest.(check string) "same blamed phase" simulated.Protocol.phase f.Protocol.phase;
    Alcotest.(check bool) "reason names the missing frame" true
      (contains f.Protocol.reason "never arrived")
  | Protocol.Unserved tried ->
    Alcotest.failf "expected one failure: %a" Protocol.pp_session_failures tried

let test_chaos_duplicate_is_filtered () =
  let plan = chaos_rule ~times:1 Fault.Duplicate in
  Loopback.with_cluster ~params:fast ~spec:small_spec ~chaos:[ (1, plan) ] @@ fun c ->
  let response = Loopback.query c ~scheme:"das" () in
  let _ = served_exn "das" response.Peer.result in
  Alcotest.(check int) "duplicate absorbed without retry" 1 response.Peer.epochs;
  match Loopback.chaos_events c 1 with
  | [ e ] ->
    Alcotest.(check string) "the proxy duplicated" "duplicate"
      (Fault.action_name e.Fault.event_action)
  | es -> Alcotest.failf "expected exactly one proxy event, got %d" (List.length es)

let test_chaos_delay_trips_real_deadline () =
  let plan = chaos_rule ~times:1 (Fault.Delay 0.8) in
  Loopback.with_cluster ~params:fast ~spec:small_spec ~chaos:[ (1, plan) ] @@ fun c ->
  let response =
    Loopback.query c ~scheme:"commutative" ~deadline:0.35 ~fallback:false ()
  in
  match response.Peer.result with
  | Protocol.Served _ -> Alcotest.fail "a 0.8s stall must blow a 0.35s deadline"
  | Protocol.Unserved tried ->
    let _, f = List.hd (List.rev tried) in
    (* The same typed ending a simulated delay produces in-process. *)
    let simulated =
      let sim_plan = chaos_rule ~times:1 (Fault.Delay 0.8) in
      match
        Protocol.run_session ~fault:sim_plan ~chain:[]
          ~session:(R.session ~policy:{ R.default_policy with R.deadline_budget = Some 0.35 } ())
          (Option.get (Protocol.scheme_of_name "commutative"))
          (Loopback.env c) (Loopback.client_of c) ~query:(Loopback.canonical_query c)
      with
      | Protocol.Unserved tried -> snd (List.hd (List.rev tried))
      | Protocol.Served _ -> Alcotest.fail "simulated delay must be unserved too"
    in
    Alcotest.(check string) "deadline phase both ways" simulated.Protocol.phase f.Protocol.phase;
    Alcotest.(check string) "it is the deadline" "deadline" f.Protocol.phase

let test_chaos_truncate_severs_then_redials () =
  let plan = chaos_rule ~times:1 (Fault.Truncate 6) in
  Loopback.with_cluster ~params:fast ~spec:small_spec ~chaos:[ (1, plan) ] ~io_timeout:1.5
  @@ fun c ->
  let response =
    Loopback.query c ~scheme:"commutative" ~fault_spec:"retries=2" ~fallback:false ()
  in
  let _ = served_exn "commutative" response.Peer.result in
  Alcotest.(check int) "served on the redialed connection" 2 response.Peer.epochs;
  match Loopback.chaos_events c 1 with
  | [ { Fault.event_action = Fault.Truncate _; _ } ] -> ()
  | [ e ] -> Alcotest.failf "expected truncate, got %s" (Fault.action_name e.Fault.event_action)
  | es -> Alcotest.failf "expected exactly one proxy event, got %d" (List.length es)

(* ------------------------------------------------------------------ *)
(* Hostile input at projected receivers.  The mediator and the sources
   decode the bytes they receive instead of recomputing them, so a
   byzantine source's output lands in real decoders and validators.
   Each mode must end served-side exactly as in process — the same
   typed (phase, party) — with no escaped exception and no hang. *)

let byzantine_cases =
  [
    ("das", [ "malformed-ciphertexts"; "wrong-partition-ids" ]);
    ("commutative", [ "malformed-ciphertexts"; "stale-commutative-key" ]);
    ("pm", [ "malformed-ciphertexts"; "garbage-paillier" ]);
    ("mobile-code", [ "malformed-ciphertexts" ]);
  ]

let simulated_failure c ~scheme ~fault_spec =
  match
    Protocol.run_session
      ?fault:(Result.to_option (Fault.of_spec fault_spec))
      ~chain:[]
      (Option.get (Protocol.scheme_of_name scheme))
      (Loopback.env c) (Loopback.client_of c) ~query:(Loopback.canonical_query c)
  with
  | Protocol.Unserved [ (_, f) ] -> f
  | Protocol.Unserved tried ->
    Alcotest.failf "%s (%s): expected one failure: %a" scheme fault_spec
      Protocol.pp_session_failures tried
  | Protocol.Served _ -> Alcotest.failf "%s (%s) served in process" scheme fault_spec

let served_failure c ~scheme ~fault_spec ~budget =
  let started = Unix.gettimeofday () in
  let response = Loopback.query c ~scheme ~fault_spec ~fallback:false () in
  let elapsed = Unix.gettimeofday () -. started in
  if elapsed > budget then
    Alcotest.failf "%s (%s): took %.1fs, past the %.1fs budget" scheme fault_spec elapsed budget;
  match response.Peer.result with
  | Protocol.Unserved [ (_, f) ] -> f
  | Protocol.Unserved tried ->
    Alcotest.failf "%s (%s): expected one failure: %a" scheme fault_spec
      Protocol.pp_session_failures tried
  | Protocol.Served _ -> Alcotest.failf "%s (%s) served" scheme fault_spec

let check_same_blame ~what (expected : Protocol.failure) (got : Protocol.failure) =
  if
    not
      (String.equal expected.Protocol.phase got.Protocol.phase
      && Transcript.party_equal expected.Protocol.party got.Protocol.party)
  then
    Alcotest.failf "%s: served %s at %s (%s), in process %s at %s (%s)" what got.Protocol.phase
      (Transcript.party_name got.Protocol.party)
      got.Protocol.reason expected.Protocol.phase
      (Transcript.party_name expected.Protocol.party)
      expected.Protocol.reason

let test_byzantine_modes_match_inproc () =
  let io_timeout = 4. in
  Loopback.with_cluster ~params:fast ~spec:small_spec ~io_timeout @@ fun c ->
  List.iter
    (fun (scheme, modes) ->
      List.iter
        (fun mode ->
          List.iter
            (fun sid ->
              let fault_spec = Printf.sprintf "byzantine:%d:%s;retries=0" sid mode in
              let what = Printf.sprintf "%s, source %d %s" scheme sid mode in
              check_same_blame ~what
                (simulated_failure c ~scheme ~fault_spec)
                (served_failure c ~scheme ~fault_spec ~budget:(2. *. io_timeout)))
            [ 1; 2 ])
        modes)
    byzantine_cases;
  (* Every process survived its hostile input: an honest query still
     serves, correctly. *)
  List.iter
    (fun scheme ->
      let outcome = served_exn scheme (Loopback.query c ~scheme ()).Peer.result in
      Alcotest.(check bool) (scheme ^ ": honest query after the hostile ones") true
        (Outcome.correct outcome))
    schemes

(* A frame damaged on a real source->mediator link reaches a mediator
   that did not compute it: the integrity tag, not a byte comparison,
   rejects it, blamed on the mediator at the phase the simulated
   corruption names.  A session fault plan (retries=0) makes row-wise
   messages travel as single frames, which the proxy damages — every
   one of them, so each query fails at its first source frame. *)
let test_chaos_corrupt_rejected_by_tag () =
  let plan =
    Fault.plan
      [
        Fault.rule ~sender:(Transcript.Source 1) ~receiver:Transcript.Mediator
          (Fault.Corrupt 2);
      ]
  in
  Loopback.with_cluster ~params:fast ~spec:small_spec ~chaos:[ (1, plan) ] ~io_timeout:4.
  @@ fun c ->
  List.iter
    (fun scheme ->
      let got = served_failure c ~scheme ~fault_spec:"retries=0" ~budget:8. in
      Alcotest.(check bool)
        (scheme ^ ": rejected by the integrity tag") true
        (contains got.Protocol.reason "integrity tag mismatch");
      check_same_blame ~what:(scheme ^ ": corrupt source1->mediator")
        (simulated_failure c ~scheme ~fault_spec:"corrupt:source1->mediator:times=1;retries=0")
        got;
      Alcotest.(check string) (scheme ^ ": mediator blamed") "Mediator"
        (Transcript.party_name got.Protocol.party))
    schemes;
  (* A source may have sent more frames before the abort reached it. *)
  Alcotest.(check bool) "the proxy corrupted every query" true
    (List.length (Loopback.chaos_events c 1) >= List.length schemes)

(* ------------------------------------------------------------------ *)
(* Admission and handshake. *)

let test_server_at_capacity_refuses () =
  Loopback.with_cluster ~params:fast ~spec:small_spec ~max_sessions:0 @@ fun c ->
  match Loopback.query c ~scheme:"plain" () with
  | _ -> Alcotest.fail "a zero-capacity mediator must refuse"
  | exception Peer.Refused msg ->
    Alcotest.(check bool) "refusal names capacity" true (contains msg "at capacity")

let test_scenario_digest_mismatch_refused () =
  Loopback.with_cluster ~params:fast ~spec:small_spec @@ fun c ->
  match
    Peer.run ~host:"127.0.0.1" ~port:(Loopback.port c) ~scenario:"0000deadbeef"
      ~scheme:"plain" ~query:(Loopback.canonical_query c) (Loopback.env c)
      (Loopback.client_of c)
  with
  | _ -> Alcotest.fail "a divergent scenario digest must be refused"
  | exception Peer.Refused msg ->
    Alcotest.(check bool) "refusal names the digest" true (contains msg "digest mismatch")

(* Admission is a slot machine, not a one-way valve: a full mediator
   refuses the (N+1)th session with the typed Busy, and a completed
   session frees its slot for the next arrival. *)
let test_admission_slot_freed_after_completion () =
  let plan = chaos_rule ~times:1 (Fault.Delay 1.2) in
  Loopback.with_cluster ~params:fast ~spec:small_spec ~chaos:[ (1, plan) ] ~max_sessions:1
  @@ fun c ->
  (* Session A occupies the only slot: the delayed source frame holds it
     in flight long enough to observe the refusal deterministically. *)
  let a_result = ref None in
  let a_thread =
    Thread.create
      (fun () ->
        a_result := Some (Loopback.query c ~scheme:"commutative" ~fallback:false ()))
      ()
  in
  Thread.delay 0.4;
  (* B arrives while A holds the slot: typed backpressure, not a hang. *)
  (match Loopback.query c ~scheme:"plain" () with
  | _ -> Alcotest.fail "the second concurrent session must be refused"
  | exception Peer.Refused msg ->
    Alcotest.(check bool) "refusal names capacity" true (contains msg "at capacity"));
  Thread.join a_thread;
  (match !a_result with
  | Some { Peer.result; _ } -> ignore (served_exn "commutative" result)
  | None -> Alcotest.fail "session A vanished");
  (* A completed, so its slot is free: C must be served, not refused. *)
  let c_response = Loopback.query c ~scheme:"plain" () in
  ignore (served_exn "plain" c_response.Peer.result)

(* The source connection pool isolates transport faults: with two pooled
   connections per source, session ids bind slots round-robin (sid 1 and
   3 share slot 0, sid 2 rides slot 1), so a severed pooled link costs
   the bound session one retry (lazy redial, exactly like the
   single-connection case) and the other slot's sessions nothing. *)
let test_pooled_connection_sever_isolated () =
  let plan = chaos_rule ~times:1 (Fault.Truncate 6) in
  Loopback.with_cluster ~params:fast ~spec:small_spec ~chaos:[ (1, plan) ]
    ~source_conns:2 ~io_timeout:1.5
  @@ fun c ->
  (* sid 1 on slot 0: the truncate severs its pooled connection
     mid-attempt; the retry redials the slot and serves. *)
  let r1 = Loopback.query c ~scheme:"commutative" ~fault_spec:"retries=2" ~fallback:false () in
  ignore (served_exn "commutative" r1.Peer.result);
  Alcotest.(check int) "bound session paid one retry" 2 r1.Peer.epochs;
  (* sid 2 on slot 1: a different pooled connection — never faulted. *)
  let r2 = Loopback.query c ~scheme:"commutative" ~fault_spec:"retries=2" ~fallback:false () in
  ignore (served_exn "commutative" r2.Peer.result);
  Alcotest.(check int) "other slot untouched" 1 r2.Peer.epochs;
  (* sid 3 back on slot 0: the redialed incarnation serves first try. *)
  let r3 = Loopback.query c ~scheme:"commutative" ~fault_spec:"retries=2" ~fallback:false () in
  ignore (served_exn "commutative" r3.Peer.result);
  Alcotest.(check int) "redialed slot serves clean" 1 r3.Peer.epochs;
  match Loopback.chaos_events c 1 with
  | [ { Fault.event_action = Fault.Truncate _; _ } ] -> ()
  | es -> Alcotest.failf "expected exactly one proxy event, got %d" (List.length es)

let test_net_metrics_counted () =
  Obs.Metrics.reset ();
  Loopback.with_cluster ~params:fast ~spec:small_spec @@ fun c ->
  let response = Loopback.query c ~scheme:"plain" () in
  let _ = served_exn "plain" response.Peer.result in
  Alcotest.(check bool) "frames out counted" true
    (Obs.Metrics.counter_value (Obs.Metrics.counter "net.frames.out") > 0);
  Alcotest.(check bool) "frames in counted" true
    (Obs.Metrics.counter_value (Obs.Metrics.counter "net.frames.in") > 0);
  Alcotest.(check bool) "payload bytes counted" true
    (Obs.Metrics.counter_value (Obs.Metrics.counter "net.payload.in") > 0)

(* ------------------------------------------------------------------ *)
(* Regression: run_session must scope the plan's delay handler. *)

let test_delay_handler_scoped_to_session () =
  let env, client, query = Workload.scenario ~params:fast small_spec in
  let plan = chaos_rule ~times:1 (Fault.Delay 0.01) in
  Alcotest.(check bool) "no handler before" false (Fault.delay_handler_installed plan);
  let result =
    Protocol.run_session ~fault:plan ~chain:[]
      ~session:(R.session ~policy:{ R.default_policy with R.deadline_budget = Some 30. } ())
      (Option.get (Protocol.scheme_of_name "plain"))
      env client ~query
  in
  (match result with
  | Protocol.Served _ -> ()
  | Protocol.Unserved tried ->
    Alcotest.failf "plain with a tiny delay must serve: %a" Protocol.pp_session_failures tried);
  Alcotest.(check bool) "no handler leaked after" false (Fault.delay_handler_installed plan);
  (* And a caller's own handler is restored, not clobbered. *)
  let outer_ran = ref false in
  Fault.with_delay_handler plan (Some (fun _ -> outer_ran := true)) (fun () ->
      (match
         Protocol.run_session ~fault:plan ~chain:[]
           (Option.get (Protocol.scheme_of_name "plain"))
           env client ~query
       with
      | Protocol.Served _ -> ()
      | Protocol.Unserved _ -> Alcotest.fail "plain must serve");
      Alcotest.(check bool) "outer handler restored inside scope" true
        (Fault.delay_handler_installed plan));
  Alcotest.(check bool) "outer handler unwound" false (Fault.delay_handler_installed plan)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "net"
    [
      ( "wire-stream",
        [
          Alcotest.test_case "split at every offset" `Quick test_stream_split_at_every_offset;
          Alcotest.test_case "byte by byte" `Quick test_stream_byte_by_byte;
          Alcotest.test_case "incomplete frame waits" `Quick test_stream_incomplete_frame_waits;
          Alcotest.test_case "oversized frame rejected" `Quick
            test_stream_oversized_frame_rejected;
        ] );
      ( "frame-codec",
        [
          Alcotest.test_case "roundtrip all frames" `Quick test_frame_roundtrip;
          Alcotest.test_case "garbage rejected" `Quick test_frame_rejects_garbage;
          Alcotest.test_case "deadline precision" `Quick test_frame_deadline_precision;
        ] );
      ( "mux",
        [
          Alcotest.test_case "parks pre-subscription frames" `Quick
            test_mux_parks_frames_before_subscription;
          Alcotest.test_case "drops closed-session frames" `Quick
            test_mux_drops_frames_of_closed_sessions;
          Alcotest.test_case "tombstone drops counted" `Quick
            test_mux_tombstone_drops_counted;
          Alcotest.test_case "tombstones bounded with FIFO eviction" `Quick
            test_mux_tombstones_bounded;
          Alcotest.test_case "subscribe resurrects tombstoned id" `Quick
            test_mux_subscribe_resurrects_tombstoned_id;
          Alcotest.test_case "concurrent sessions never cross-deliver" `Quick
            test_mux_concurrent_sessions_stress;
          Alcotest.test_case "next on a closed session is typed" `Quick
            test_mux_next_on_closed_session_is_typed;
          Alcotest.test_case "reader gone when its connection closes" `Quick
            test_mux_reader_gone_when_closed;
        ] );
      ( "scenario",
        [ Alcotest.test_case "digest deterministic" `Quick test_scenario_digest_deterministic ] );
      ( "loopback",
        [
          Alcotest.test_case "differential: all schemes bit-identical" `Slow
            test_loopback_differential;
          Alcotest.test_case "differential: pm direct payload" `Slow
            test_pm_direct_differential;
          Alcotest.test_case "at capacity refuses" `Quick test_server_at_capacity_refuses;
          Alcotest.test_case "digest mismatch refused" `Quick
            test_scenario_digest_mismatch_refused;
          Alcotest.test_case "completed session frees its slot" `Slow
            test_admission_slot_freed_after_completion;
          Alcotest.test_case "pooled connection sever isolated" `Slow
            test_pooled_connection_sever_isolated;
          Alcotest.test_case "net metrics counted" `Quick test_net_metrics_counted;
        ] );
      ( "chaos",
        [
          Alcotest.test_case "corrupt retried then served" `Slow
            test_chaos_corrupt_retried_then_served;
          Alcotest.test_case "drop is a typed timeout fault" `Slow
            test_chaos_drop_is_typed_timeout_fault;
          Alcotest.test_case "duplicate filtered" `Slow test_chaos_duplicate_is_filtered;
          Alcotest.test_case "delay trips the real deadline" `Slow
            test_chaos_delay_trips_real_deadline;
          Alcotest.test_case "truncate severed then redialed" `Slow
            test_chaos_truncate_severs_then_redials;
          Alcotest.test_case "corrupt source frame rejected by the tag" `Slow
            test_chaos_corrupt_rejected_by_tag;
        ] );
      ( "hostile",
        [
          Alcotest.test_case "byzantine modes fail as in process" `Slow
            test_byzantine_modes_match_inproc;
        ] );
      ( "regressions",
        [
          Alcotest.test_case "delay handler scoped" `Quick test_delay_handler_scoped_to_session;
        ] );
    ]
