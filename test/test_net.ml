(* Networked-transport suite (DESIGN.md §11): the incremental frame
   decoder, the typed session codec, the connection mux, and — the heart
   of it — differential tests that run real forked mediator/datasource
   processes on 127.0.0.1 and check the distributed execution is
   bit-identical to the in-process one, byte-accounted three independent
   ways.  Chaos tests interpose a byte-level fault proxy on a live link
   and check each damage mode surfaces as the same typed outcome as the
   same fault in one process and in a served [--fault] session. *)

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
        trace_id = "" };
    Frame.Session_start
      { session = 3; epoch = 6; attempt = 3; scheme = "pm"; query = "q"; fault_spec = "";
        trace_id = "s3" };
    Frame.Msg_chunk
      { ck_session = 3; ck_epoch = 5; ck_seq = 12; ck_sender = Transcript.Mediator;
        ck_receiver = Transcript.Source 1; ck_label = "rewritten-query"; ck_chunk = 0;
        ck_chunks = 1; ck_declared = 5; ck_payload = "\x00\xffabc" };
    Frame.Msg_chunk
      { ck_session = 3; ck_epoch = 5; ck_seq = 13; ck_sender = Transcript.Source 2;
        ck_receiver = Transcript.Mediator; ck_label = "partial-result"; ck_chunk = 0;
        ck_chunks = 1; ck_declared = 3; ck_payload = "abc" };
    Frame.Report { session = 3; epoch = 5; status = Frame.St_ok; spans = "" };
    Frame.Report
      { session = 3; epoch = 5; status = Frame.St_failed sample_failure; spans = "" };
    Frame.Report { session = 3; epoch = 5; status = Frame.St_aborted; spans = "\x00\x01spans" };
    Frame.Abort { session = 3; epoch = 5; failure = sample_failure };
    Frame.Session_result
      { session = 3;
        result =
          Frame.W_served
            { w_scheme = "pm"; w_attempts = 2; w_degraded = Some ("das", "budget spent");
              w_link_stats =
                [ (Transcript.Client, 10, 20); (Transcript.Source 1, 30, 40) ] };
        spans =
          [ { Trace_wire.rm_party = Transcript.Source 2; rm_parent = 4;
              rm_payload = "\x00\x01spans" };
            { Trace_wire.rm_party = Transcript.Mediator; rm_parent = -1; rm_payload = "" } ] };
    Frame.Session_result
      { session = 4; result = Frame.W_unserved [ ("pm", sample_failure, 3) ]; spans = [] };
    Frame.Session_end { session = 9 };
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

(* Every int field of every frame set to [v], at the varint edges: 0,
   one byte's largest, two bytes' smallest and largest, three bytes'
   smallest, and [max_int].  A chunk's index and count stay within the
   cap, and a deadline stays within a float's exact milliseconds. *)
let edge_frames v =
  let failure = { sample_failure with Fault.party = Transcript.Source v } in
  let chunks = max 1 (min v Frame.max_chunks) in
  let ms = float_of_int (min v 16384) /. 1000. in
  [
    Frame.Hello { role = Transcript.Source v; scenario = "" };
    Frame.Query
      { scheme = "das"; query = "q"; fault_spec = ""; deadline = ms; fallback = true;
        trace = true };
    Frame.Session_start
      { session = v; epoch = v; attempt = v; scheme = "das"; query = "q"; fault_spec = "";
        trace_id = "" };
    Frame.Msg_chunk
      { ck_session = v; ck_epoch = v; ck_seq = v; ck_sender = Transcript.Source v;
        ck_receiver = Transcript.Source v; ck_label = "L"; ck_chunk = chunks - 1;
        ck_chunks = chunks; ck_declared = v; ck_payload = "" };
    Frame.Credit { cr_session = v; cr_epoch = v; cr_seq = v; cr_n = v };
    Frame.Report { session = v; epoch = v; status = Frame.St_failed failure; spans = "" };
    Frame.Abort { session = v; epoch = v; failure };
    Frame.Session_result
      { session = v;
        result =
          Frame.W_served
            { w_scheme = "pm"; w_attempts = v; w_degraded = None;
              w_link_stats = [ (Transcript.Source v, v, v) ] };
        spans =
          [ { Trace_wire.rm_party = Transcript.Source v; rm_parent = v - 1; rm_payload = "" } ] };
    Frame.Session_result
      { session = v; result = Frame.W_unserved [ ("pm", failure, v) ]; spans = [] };
    Frame.Session_end { session = v };
    Frame.Health { h_role = Transcript.Source v; h_draining = true; h_active = v };
    Frame.Drain { scenario = ""; deadline = ms };
  ]

let test_frame_roundtrip () =
  List.iter
    (fun f ->
      Alcotest.(check bool)
        (Frame.tag_name f ^ " roundtrips") true
        (Frame.decode (Frame.encode f) = f))
    (roundtrip_frames @ List.concat_map edge_frames [ 0; 127; 128; 16383; 16384; max_int ])

let test_frame_rejects_garbage () =
  match Frame.decode "\x2a\x00garbage" with
  | exception Wire.Malformed _ -> ()
  | _ -> Alcotest.fail "garbage must not decode"

(* A header int is a canonical varint: a truncated one, one with a zero
   final group ([0x80 0x00] for 0), one past nine bytes and one above
   [max_int] are each malformed, in a frame's tag and in a field. *)
let test_malformed_varints_rejected () =
  let cases =
    [
      ("truncated", "\x80");
      ("non-canonical", "\x80\x00");
      ("10-byte", String.make 9 '\xff' ^ "\x01");
      ("above max_int", String.make 8 '\xff' ^ "\x40");
    ]
  in
  List.iter
    (fun (what, varint) ->
      List.iter
        (fun (where, body) ->
          match Frame.decode body with
          | exception Wire.Malformed _ -> ()
          | _ -> Alcotest.failf "a %s varint as the %s decoded" what where)
        [ ("tag", varint); ("session id", "\x09" ^ varint) ])
    cases;
  Alcotest.(check bool) "max_int itself decodes" true
    (Frame.decode ("\x09" ^ String.make 8 '\xff' ^ "\x3f")
    = Frame.Session_end { session = max_int })

(* The millisecond encoding must not mangle deadlines. *)
let test_frame_deadline_precision () =
  match Frame.decode (Frame.encode (Frame.Query
      { scheme = "das"; query = "q"; fault_spec = ""; deadline = 0.75; fallback = false;
        trace = false }))
  with
  | Frame.Query { deadline; _ } -> Alcotest.(check (float 1e-9)) "0.75s survives" 0.75 deadline
  | _ -> Alcotest.fail "not a Query"

(* ------------------------------------------------------------------ *)
(* The leftover rule ({!Endpoint.await}), driven through a transport's
   [take_rows] over a scripted route: the reader awaits #2 of epoch 3
   from source 1, and each row puts one frame ahead of the wanted one. *)

(* A whole one-chunk delivery of one row, as every scalar message travels. *)
let rule_msg ~epoch ~seq =
  Frame.Msg_chunk
    { ck_session = 1; ck_epoch = epoch; ck_seq = seq; ck_sender = Transcript.Source 1;
      ck_receiver = Transcript.Mediator; ck_label = "L"; ck_chunk = 0; ck_chunks = 1;
      ck_declared = 3; ck_payload = Frame.pack ~label:"L" [ "abc" ] }

(* A later slice of a longer stream. *)
let rule_chunk ~epoch ~seq =
  Frame.Msg_chunk
    { ck_session = 1; ck_epoch = epoch; ck_seq = seq; ck_sender = Transcript.Source 1;
      ck_receiver = Transcript.Mediator; ck_label = "L"; ck_chunk = 1; ck_chunks = 3;
      ck_declared = 0; ck_payload = "" }

let rule_abort epoch = Frame.Abort { session = 1; epoch; failure = sample_failure }

let rule_start epoch =
  Frame.Session_start
    { session = 1; epoch; attempt = 1; scheme = "das"; query = "q"; fault_spec = "";
      trace_id = "" }

let recv_scripted frames =
  let script = ref frames in
  let route =
    Endpoint.plain_route
      ~send:(fun _ -> ())
      ~next:(fun ~timeout:_ ->
        match !script with
        | f :: rest ->
          script := rest;
          f
        | [] -> raise (Io.Transport_error "script exhausted"))
  in
  let tr =
    Endpoint.transport ~role:Transcript.Mediator ~session:1 ~epoch:(fun () -> 3) ~io_timeout:1.
      ~route_of:(fun _ -> Some route) ()
  in
  (Option.get tr.Link.rows).Link.take_rows ~phase:"t" ~seq:2 ~sender:(Transcript.Source 1)
    ~receiver:Transcript.Mediator ~label:"L"

type rule_outcome = Delivered | Aborts | Fails of string

let leftover_table =
  let wanted = rule_msg ~epoch:3 ~seq:2 in
  let skipped name f = (name, [ f; wanted ], Delivered) in
  [
    skipped "delivery of an older epoch" (rule_msg ~epoch:2 ~seq:9);
    skipped "delivery of an earlier slot" (rule_msg ~epoch:3 ~seq:1);
    skipped "chunk of an older epoch" (rule_chunk ~epoch:2 ~seq:5);
    skipped "chunk of an earlier slot" (rule_chunk ~epoch:3 ~seq:0);
    skipped "credit residue of this slot"
      (Frame.Credit { cr_session = 1; cr_epoch = 3; cr_seq = 2; cr_n = 1 });
    skipped "credit residue of an older delivery"
      (Frame.Credit { cr_session = 1; cr_epoch = 2; cr_seq = 7; cr_n = 1 });
    skipped "report" (Frame.Report { session = 1; epoch = 3; status = Frame.St_ok; spans = "" });
    skipped "abort of an older epoch" (rule_abort 2);
    skipped "session-start of an older epoch" (rule_start 2);
    skipped "session-start of the current epoch" (rule_start 3);
    ("abort of the current epoch", [ rule_abort 3; wanted ], Aborts);
    ("abort of a newer epoch", [ rule_abort 4; wanted ], Aborts);
    ("delivery ahead of the slot", [ rule_msg ~epoch:3 ~seq:3; wanted ], Fails "frame gap");
    ("chunk of a newer epoch", [ rule_chunk ~epoch:4 ~seq:0; wanted ], Fails "frame gap");
    ("session-start of a newer epoch", [ rule_start 4; wanted ], Fails "unexpected");
    ("route error", [], Fails "never arrived");
  ]

let test_leftover_rule () =
  List.iter
    (fun (name, frames, expected) ->
      match (recv_scripted frames, expected) with
      | (declared, payload), Delivered ->
        Alcotest.(check (pair int string)) (name ^ ": skipped") (3, "abc") (declared, payload)
      | _, (Aborts | Fails _) -> Alcotest.failf "%s: delivered" name
      | exception Endpoint.Aborted _ when expected = Aborts -> ()
      | exception Fault.Fault_detected f -> (
        match expected with
        | Fails needle ->
          Alcotest.(check bool) (name ^ ": " ^ f.Fault.reason) true (contains f.Fault.reason needle);
          Alcotest.(check bool) (name ^ ": blamed at the receiver") true
            (f.Fault.party = Transcript.Mediator)
        | Delivered | Aborts -> Alcotest.failf "%s: failed: %s" name f.Fault.reason))
    leftover_table

(* ------------------------------------------------------------------ *)
(* The request phase projected (Listing 1): the mediator decomposes the
   query it received, and only S_i checks CR_i and evaluates q_i.
   Source 1 decides on "clearance", source 2 on "role"; the client's
   "clearance" credential is signed by a rogue authority, so CR_1 is
   forged and CR_2 is good.  [Request.run] runs over a scripted
   transport in the process of one party: it accepts every send and
   serves each text that party receives without computing it — q at the
   mediator, q_i at source i — zero-padded as on the wire. *)

let forged_scenario () =
  let env, client, query = Workload.scenario ~params:fast small_spec in
  let advertised id = if id = 1 then [ "clearance" ] else [ "role" ] in
  let env =
    { env with
      Env.sources =
        List.map (fun s -> { s with Env.advertised = advertised s.Env.source_id }) env.Env.sources
    }
  in
  let rogue = Secmed_crypto.Prng.create ~seed:"rogue-ca" in
  let forged =
    Credential.Authority.issue
      (Credential.Authority.create ~name:"rogue" rogue env.Env.group)
      rogue
      ~properties:[ Credential.property "clearance" "top" ]
      (Credential.public_key (List.hd client.Env.credentials))
  in
  (env, { client with Env.credentials = forged :: client.Env.credentials }, query)

(* The text a receiver is sent: q, or the q_i of its source. *)
let honest_text env query ~label ~receiver =
  let d = Catalog.decompose env.Env.catalog (Secmed_sql.Parser.parse query) in
  match (label, receiver) with
  | "global-query", Transcript.Mediator -> query
  | "partial-query", Transcript.Source i when i = d.Catalog.left.Catalog.source ->
    d.Catalog.partial_query_left
  | "partial-query", Transcript.Source i when i = d.Catalog.right.Catalog.source ->
    d.Catalog.partial_query_right
  | _ -> Alcotest.failf "the request phase sends %s no %s" (Transcript.party_name receiver) label

let request_as ?(payload = fun text -> text ^ String.make 8 '\000') party (env, client, query) =
  let rows =
    {
      Link.send_rows =
        (fun ~phase:_ ~seq:_ ~sender:_ ~receiver:_ ~label:_ ~size:_ ?damage:_ _ -> ());
      recv_rows = (fun ~phase:_ ~seq:_ ~sender:_ ~receiver:_ ~label:_ ~size:_ ~expect:_ -> ());
      take_rows =
        (fun ~phase:_ ~seq:_ ~sender:_ ~receiver ~label ->
          let bytes = payload (honest_text env query ~label ~receiver) in
          (String.length bytes, bytes));
    }
  in
  let transport =
    {
      Link.speaks = Transcript.party_equal party;
      computes = Transcript.party_equal party;
      rows = Some rows;
    }
  in
  Request.run (Link.make ~transport (Transcript.create ())) env client ~query

let test_source_rejects_own_forged_credential () =
  (match request_as (Transcript.Source 1) (forged_scenario ()) with
  | exception Request.Bad_credential 1 -> ()
  | exception Request.Bad_credential i -> Alcotest.failf "source %d blamed" i
  | _ -> Alcotest.fail "source 1 accepted its forged credential");
  (* An in-process run computes every party, so it still rejects. *)
  let env, client, query = forged_scenario () in
  match
    Request.run (Link.make ~transport:(Memory.transport ()) (Transcript.create ())) env client
      ~query
  with
  | exception Request.Bad_credential 1 -> ()
  | _ -> Alcotest.fail "the in-process run accepted the forged credential"

let test_mediator_verifies_nothing () =
  ignore (request_as Transcript.Mediator (forged_scenario ()) : Request.t)

let test_other_source_skips_forged_credential () =
  let request = request_as (Transcript.Source 2) (forged_scenario ()) in
  Alcotest.(check bool) "holds R_2 only" true
    (request.Request.left_result = None && request.Request.right_result <> None)

(* The mediator's view holds no relation at all, and its request phase
   still succeeds: it reads no source data.  The same view fails as
   source 1, which has nothing to evaluate q_1 over. *)
let test_mediator_reads_no_source_data () =
  let env, client, query = Workload.scenario ~params:fast small_spec in
  let bare = Env.view env Transcript.Mediator in
  Alcotest.(check bool) "no relation" true
    (List.for_all (fun s -> s.Env.relations = []) bare.Env.sources);
  let request = request_as Transcript.Mediator (bare, client, query) in
  Alcotest.(check bool) "no partial result" true
    (request.Request.left_result = None && request.Request.right_result = None);
  Alcotest.(check string) "schema from the catalogue"
    (Schema.to_string (Relation.schema (List.assoc "R1" (Env.source_by_id env 1).Env.relations)))
    (Schema.to_string (Schema.unqualify (Request.schema request `Left)));
  match request_as (Transcript.Source 1) (bare, client, query) with
  | exception Request.Access_denied 1 -> ()
  | _ -> Alcotest.fail "source 1 evaluated q_1 without its relation"

(* A receiver that decodes a request-phase text rejects bad padding and
   a q_i other than its own, typed, as the receiving party. *)
let test_receivers_reject_typed () =
  let expect_rejected name party ~payload needle =
    match request_as ~payload party (Workload.scenario ~params:fast small_spec) with
    | exception Fault.Fault_detected f ->
      Alcotest.(check string) (name ^ ": phase") "request" f.Fault.phase;
      Alcotest.(check bool) (name ^ ": blamed at the receiver") true (f.Fault.party = party);
      Alcotest.(check bool) (name ^ ": " ^ f.Fault.reason) true (contains f.Fault.reason needle)
    | _ -> Alcotest.failf "%s: accepted" name
  in
  expect_rejected "non-NUL padding" Transcript.Mediator
    ~payload:(fun text -> text ^ "\000x")
    "padding";
  expect_rejected "foreign q_i" (Transcript.Source 1)
    ~payload:(fun text -> text ^ "X\000")
    "q_1"

(* ------------------------------------------------------------------ *)
(* Mux: frames that race in behind a Session_start must not be lost. *)

let socket_pair () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (Io.of_fd ~peer:"a" a, Io.of_fd ~peer:"b" b)

let msg ?(session = 1) ~seq label =
  Frame.Msg_chunk
    { ck_session = session; ck_epoch = 1; ck_seq = seq; ck_sender = Transcript.Mediator;
      ck_receiver = Transcript.Source 1; ck_label = label; ck_chunk = 0; ck_chunks = 1;
      ck_declared = 2; ck_payload = "xy" }

let test_mux_parks_frames_before_subscription () =
  let a, b = socket_pair () in
  Fun.protect ~finally:(fun () -> Io.close a; Io.close b) @@ fun () ->
  let send f = Io.send_frame a (Frame.encode f) in
  (* Burst: announcement plus the frames right behind it, all on the
     wire before the consumer even creates its handler. *)
  send (Frame.Session_start
          { session = 1; epoch = 1; attempt = 1; scheme = "das"; query = "q"; fault_spec = "";
            trace_id = "" });
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
  | Frame.Msg_chunk { ck_label = "first"; _ } -> ()
  | f -> Alcotest.fail ("expected first msg, got " ^ Frame.tag_name f));
  match Endpoint.Mux.next mux ~session:1 ~timeout:5. with
  | Frame.Msg_chunk { ck_label = "second"; _ } -> ()
  | f -> Alcotest.fail ("expected second msg, got " ^ Frame.tag_name f)

let test_mux_drops_frames_of_closed_sessions () =
  let a, b = socket_pair () in
  Fun.protect ~finally:(fun () -> Io.close a; Io.close b) @@ fun () ->
  let mux = Endpoint.Mux.create b in
  Endpoint.Mux.subscribe mux 1;
  Endpoint.Mux.unsubscribe mux 1;
  Io.send_frame a (Frame.encode (msg ~seq:0 "stale"));
  Io.send_frame a (Frame.encode (Frame.Busy "marker"));
  (* The control frame arrives, proving the stale chunk was dropped rather
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
  Io.send_frame a (Frame.encode (msg ~session:10 ~seq:0 "late-tombstoned"));
  mux_sync a mux;
  Alcotest.(check int) "tombstoned frame dropped" 1 (Endpoint.Mux.dropped mux);
  match Endpoint.Mux.next mux ~session:1 ~timeout:5. with
  | Frame.Msg_chunk { ck_label = "late-evicted"; _ } -> ()
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
  | Frame.Msg_chunk { ck_label = "revived"; _ } -> ()
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
  | Frame.Msg_chunk { ck_label = "before-close"; _ } -> ()
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
    | Frame.Msg_chunk m -> Alcotest.(check int) "frame kept by its own socket" seq m.Frame.ck_seq
    | f -> Alcotest.fail ("unexpected " ^ Frame.tag_name f)
  done

(* Run a mux read on its own thread, then wait at most 5 s for its
   outcome: a reader that is never woken fails the test instead of
   hanging it. *)
let parked read =
  let outcome = ref None in
  ignore (Thread.create (fun () -> outcome := Some (try Ok (read ()) with e -> Error e)) ()
          : Thread.t);
  fun () ->
    let t0 = Unix.gettimeofday () in
    while !outcome = None && Unix.gettimeofday () -. t0 < 5. do
      Thread.delay 0.001
    done;
    !outcome

(* Receivers wake on arrival: a waiter with no deadline sleeps on the
   mux's condition, so only the reader's death signal can wake it. *)
let test_mux_death_wakes_waiter () =
  let a, b = socket_pair () in
  Fun.protect ~finally:(fun () -> Io.close b) @@ fun () ->
  let mux = Endpoint.Mux.create b in
  let outcome = parked (fun () -> Endpoint.Mux.next_control mux ~timeout:0.) in
  Thread.delay 0.1;
  let closed = Unix.gettimeofday () in
  Io.close a;
  match outcome () with
  | Some (Error (Io.Transport_error m)) ->
    let woke = Unix.gettimeofday () -. closed in
    Alcotest.(check bool) (Printf.sprintf "typed control failure (%S)" m) true
      (contains m "control");
    Alcotest.(check bool) (Printf.sprintf "woken %.3f s after the death" woke) true (woke < 0.5)
  | Some (Ok f) -> Alcotest.fail ("woke with " ^ Frame.tag_name f)
  | Some (Error e) -> raise e
  | None -> Alcotest.fail "the waiter slept through its reader's death"

(* A finite deadline is served by the ticker: never early, at most a
   tick or so late. *)
let test_mux_timeout_fires_on_time () =
  let a, b = socket_pair () in
  Fun.protect ~finally:(fun () -> Io.close a; Io.close b) @@ fun () ->
  let mux = Endpoint.Mux.create b in
  Endpoint.Mux.subscribe mux 1;
  let started = Unix.gettimeofday () in
  match parked (fun () -> Endpoint.Mux.next mux ~session:1 ~timeout:0.2) () with
  | Some (Error (Io.Transport_error m)) ->
    let took = Unix.gettimeofday () -. started in
    Alcotest.(check bool) (Printf.sprintf "typed timeout (%S)" m) true (contains m "timeout");
    Alcotest.(check bool) (Printf.sprintf "not early (%.3f s)" took) true (took >= 0.2);
    Alcotest.(check bool) (Printf.sprintf "well before 1 s (%.3f s)" took) true (took < 1.)
  | Some (Ok f) -> Alcotest.fail ("an empty queue yielded " ^ Frame.tag_name f)
  | Some (Error e) -> raise e
  | None -> Alcotest.fail "the timeout never fired"

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
                    | Frame.Msg_chunk { ck_session; ck_seq; ck_label; _ } ->
                      received.(k) <- (ck_session, ck_seq, ck_label) :: received.(k)
                    | f ->
                      errors := Frame.tag_name f :: !errors
                  done
                with Io.Transport_error msg -> errors := msg :: !errors)
              ())
      in
      Array.iter
        (fun (session, seq) ->
          Io.send_frame a
            (Frame.encode (msg ~session ~seq (Printf.sprintf "s%d-%d" session seq))))
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

let check_differential ?(fault_spec = "") c name =
  let scheme = Option.get (Protocol.scheme_of_name name) in
  (* A plan's presence is protocol-visible (the commutative canary
     audit runs only under one), so the reference runs under the same
     plan. *)
  let fault =
    if String.equal fault_spec "" then None else Result.to_option (Fault.of_spec fault_spec)
  in
  let reference =
    Protocol.run_exn ?fault scheme (Loopback.env c) (Loopback.client_of c)
      ~query:(Loopback.canonical_query c)
  in
  let response = Loopback.query c ~scheme:name ~fault_spec () in
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

(* Fault verdicts never read payloads, so a session under a rule-free
   plan streams its row-wise deliveries exactly like a fault-free one:
   bit-identical to in-process under the same plan, with rows arriving
   at the mediator as chunk streams. *)
let test_fault_plan_streams () =
  Loopback.with_cluster ~params:fast ~spec:small_spec @@ fun c ->
  List.iter (check_differential ~fault_spec:"retries=2" c) [ "das"; "commutative" ];
  let stats =
    match Obs.Json.parse (Peer.stats ~host:"127.0.0.1" ~port:(Loopback.port c) ()) with
    | Ok j -> j
    | Error e -> Alcotest.failf "stats payload does not parse: %s" e
  in
  match Option.bind (Obs.Json.member "streams" stats) (Obs.Json.member "bytes_in") with
  | Some (Obs.Json.Int n) -> Alcotest.(check bool) "mediator streamed rows in" true (n > 0)
  | _ -> Alcotest.fail "stats: no streams.bytes_in"

(* PM's direct-payload variant packs whole tuple sets into Paillier
   plaintexts, which needs a wider modulus and narrower tuples than
   [fast] and [small_spec] give. *)
let test_pm_direct_differential () =
  Loopback.with_cluster ~params:{ fast with Env.paillier_bits = 768 }
    ~spec:{ small_spec with rows_left = 6; rows_right = 6; extra_attrs = 0 }
  @@ fun c -> check_differential c "pm-direct"

(* Every daemon of a cluster with a standby is its own live process,
   addressable by (source id, replica); an unknown member does not
   resolve. *)
let test_daemons_forked_and_addressable () =
  Loopback.with_cluster ~params:fast ~spec:small_spec ~standbys:1 @@ fun c ->
  let alive pid = Unix.kill pid 0 = () in
  Alcotest.(check bool) "mediator alive" true (alive (Loopback.mediator_pid c));
  let pids =
    List.concat_map
      (fun id -> List.map (fun replica -> Loopback.source_pid c ~id ~replica ()) [ 0; 1 ])
      [ 1; 2 ]
  in
  Alcotest.(check bool) "every source replica alive" true (List.for_all alive pids);
  Alcotest.(check int) "one process each" 4 (List.length (List.sort_uniq compare pids));
  match Loopback.source_pid c ~id:1 ~replica:2 () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "an unknown replica must not resolve"

(* ------------------------------------------------------------------ *)
(* Address flags: one HOST:PORT syntax, and the mediator's source list. *)

let test_address_parsers () =
  let addr = Alcotest.(result (pair string int) string) in
  let ok s expected = Alcotest.check addr s (Ok expected) (Io.parse_addr s) in
  let bad s = Alcotest.(check bool) (s ^ " rejected") true (Result.is_error (Io.parse_addr s)) in
  ok "localhost:7000" ("localhost", 7000);
  ok "10.0.0.2:65535" ("10.0.0.2", 65535);
  (* The one empty-host rule of every address flag. *)
  ok ":7000" ("127.0.0.1", 7000);
  List.iter bad
    [ "nohostport"; "localhost:99999"; "localhost:notaport"; "localhost:0"; "localhost:";
      "localhost:+80"; "a:b:7000"; "h1;h2:7000"; "h 1:7000"; "" ];
  let sources = Alcotest.(result (pair int (list (pair string int))) string) in
  Alcotest.check sources "replicas in order"
    (Ok (2, [ ("h1", 70); ("127.0.0.1", 71) ]))
    (Server.parse_source "2=h1:70,:71");
  List.iter
    (fun s ->
      Alcotest.(check bool) (s ^ " rejected") true (Result.is_error (Server.parse_source s)))
    [ "1=nohost"; "1=h1:70;h3:72"; "1=h1:70,,h2:71"; "1="; "0=h:70"; "x=h:70"; "h:70" ]

(* ------------------------------------------------------------------ *)
(* Chaos conformance: damage on a live link ends as the same damage in
   one process does, typed. *)

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
    (* Same typed blame as the same Drop in one process: the receiving party, at
       the phase awaiting the frame. *)
    let in_process =
      match
        Protocol.run_session
          ?fault:(Result.to_option (Fault.of_spec "drop:mediator->source1:times=1;retries=0"))
          ~chain:[]
          (Option.get (Protocol.scheme_of_name "commutative"))
          (Loopback.env c) (Loopback.client_of c) ~query:(Loopback.canonical_query c)
      with
      | Protocol.Unserved [ (_, sf) ] -> sf
      | _ -> Alcotest.fail "the drop in one process must be unserved too"
    in
    if not (Transcript.party_equal f.Protocol.party in_process.Protocol.party) then
      Alcotest.failf "blame differs: wire %s at %s (%s), in process %s at %s (%s)"
        (Transcript.party_name f.Protocol.party)
        f.Protocol.phase f.Protocol.reason
        (Transcript.party_name in_process.Protocol.party)
        in_process.Protocol.phase in_process.Protocol.reason;
    Alcotest.(check string) "same blamed phase" in_process.Protocol.phase f.Protocol.phase;
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
    (* The same typed ending the same delay produces in one process. *)
    let in_process =
      let plan = chaos_rule ~times:1 (Fault.Delay 0.8) in
      match
        Protocol.run_session ~fault:plan ~chain:[]
          ~session:(R.session ~policy:{ R.default_policy with R.deadline_budget = Some 0.35 } ())
          (Option.get (Protocol.scheme_of_name "commutative"))
          (Loopback.env c) (Loopback.client_of c) ~query:(Loopback.canonical_query c)
      with
      | Protocol.Unserved tried -> snd (List.hd (List.rev tried))
      | Protocol.Served _ -> Alcotest.fail "the delay in one process must be unserved too"
    in
    Alcotest.(check string) "deadline phase both ways" in_process.Protocol.phase f.Protocol.phase;
    Alcotest.(check string) "it is the deadline" "deadline" f.Protocol.phase

let test_chaos_truncate_rejected_then_retried () =
  let plan = chaos_rule ~times:1 (Fault.Truncate 6) in
  Loopback.with_cluster ~params:fast ~spec:small_spec ~chaos:[ (1, plan) ] ~io_timeout:1.5
  @@ fun c ->
  let response =
    Loopback.query c ~scheme:"commutative" ~fault_spec:"retries=2" ~fallback:false ()
  in
  let _ = served_exn "commutative" response.Peer.result in
  Alcotest.(check int) "the truncated frame was rejected, the retry served" 2
    response.Peer.epochs;
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

let in_process_failure c ~scheme ~fault_spec =
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
                (in_process_failure c ~scheme ~fault_spec)
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
   rejects it, blamed on the mediator at the phase the same corruption
   names in one process.  Every delivery travels as a chunk stream, and
   the proxy's rule (no [times] bound) damages the first chunk of every
   source->mediator delivery, so each query fails at its first source
   delivery. *)
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
        (in_process_failure c ~scheme ~fault_spec:"corrupt:source1->mediator:times=1;retries=0")
        got;
      Alcotest.(check string) (scheme ^ ": mediator blamed") "Mediator"
        (Transcript.party_name got.Protocol.party))
    schemes;
  (* A source may have sent more frames before the abort reached it. *)
  Alcotest.(check bool) "the proxy corrupted every query" true
    (List.length (Loopback.chaos_events c 1) >= List.length schemes)

(* A stopped proxy refuses connections at once, even though its
   acceptor was blocked in [accept] (a close alone leaves that socket
   listening, and the freed descriptor number open to reuse under a
   live acceptor). *)
let test_chaos_stop_releases_port () =
  let target_fd, target_port = Io.listen ~port:0 () in
  Fun.protect ~finally:(fun () -> Unix.close target_fd) @@ fun () ->
  let proxy = Chaos.start ~plan:(Fault.plan []) ~target_host:"127.0.0.1" ~target_port () in
  Thread.delay 0.1;
  Chaos.stop proxy;
  match Io.connect ~timeout:1. ~host:"127.0.0.1" ~port:(Chaos.port proxy) () with
  | conn ->
    Io.close conn;
    Alcotest.fail "a stopped proxy still listens"
  | exception Io.Transport_error _ -> ()

(* The proxy picks a rule once per delivery, on the stream's first
   chunk, so [times=1] corrupts exactly one delivery and the session
   ends in a typed fault. *)
let test_chaos_corrupt_streamed_delivery () =
  let plan =
    Fault.plan
      [
        Fault.rule ~sender:(Transcript.Source 1) ~receiver:Transcript.Mediator ~times:1
          (Fault.Corrupt 2);
      ]
  in
  Loopback.with_cluster ~params:fast ~spec:small_spec ~chaos:[ (1, plan) ] ~io_timeout:4.
  @@ fun c ->
  let response = Loopback.query c ~scheme:"das" ~fallback:false () in
  (match response.Peer.result with
   | Protocol.Served _ -> Alcotest.fail "a corrupted stream must not serve"
   | Protocol.Unserved [ (_, f) ] ->
     Alcotest.(check bool) "rejected by the integrity tag" true
       (contains f.Protocol.reason "integrity tag mismatch");
     Alcotest.(check string) "mediator blamed" "Mediator"
       (Transcript.party_name f.Protocol.party)
   | Protocol.Unserved tried ->
     Alcotest.failf "expected one das failure: %a" Protocol.pp_session_failures tried);
  match Loopback.chaos_events c 1 with
  | [ { Fault.event_action = Fault.Corrupt _; _ } ] -> ()
  | [ e ] -> Alcotest.failf "expected corrupt, got %s" (Fault.action_name e.Fault.event_action)
  | es -> Alcotest.failf "expected exactly one proxy event, got %d" (List.length es)

(* One channel fault, three ways: [times=1] on source1->mediator in one
   process, in a served [--fault] session, and through the chaos proxy
   on the real link.  Each ends alike — the same typed (phase, party)
   for a damaging fault, the same correct result for a harmless one.
   [retries=0] without fallback keeps the first attempt's ending.  A
   served [--fault] drop fails at its sender, which reports at once, so
   the session ends well inside [io_timeout]. *)
type ending = Failed of string * string | Correct

let ending_of what = function
  | Protocol.Served o when Outcome.correct o -> Correct
  | Protocol.Served _ -> Alcotest.failf "%s: served a wrong result" what
  | Protocol.Unserved [ (_, f) ] ->
    Failed (f.Protocol.phase, Transcript.party_name f.Protocol.party)
  | Protocol.Unserved tried ->
    Alcotest.failf "%s: expected one failure: %a" what Protocol.pp_session_failures tried

let pp_ending = function
  | Correct -> "correct result"
  | Failed (phase, party) -> Printf.sprintf "fault at %s (%s)" phase party

let test_channel_fault_three_ways () =
  let scheme = "commutative" and io_timeout = 2. in
  let cases = [ "drop"; "truncate"; "corrupt"; "duplicate"; "delay" ] in
  let rule action = action ^ ":source1->mediator:times=1" in
  let plan spec = Result.get_ok (Fault.of_spec spec) in
  let served =
    Loopback.with_cluster ~params:fast ~spec:small_spec ~io_timeout @@ fun c ->
    List.map
      (fun action ->
        let spec = rule action ^ ";retries=0" in
        let in_process =
          Protocol.run_session ~fault:(plan spec) ~chain:[]
            (Option.get (Protocol.scheme_of_name scheme))
            (Loopback.env c) (Loopback.client_of c) ~query:(Loopback.canonical_query c)
        in
        let started = Unix.gettimeofday () in
        let response = Loopback.query c ~scheme ~fault_spec:spec ~fallback:false () in
        let elapsed = Unix.gettimeofday () -. started in
        if elapsed > io_timeout /. 2. then
          Alcotest.failf "served --fault %s took %.2fs (io_timeout %.1fs)" action elapsed
            io_timeout;
        ( action,
          ending_of (action ^ " in process") in_process,
          ending_of (action ^ " served") response.Peer.result ))
      cases
  in
  List.iter
    (fun (action, in_process, served) ->
      let proxied =
        Loopback.with_cluster ~params:fast ~spec:small_spec ~io_timeout
          ~chaos:[ (1, plan (rule action)) ]
        @@ fun c ->
        ending_of (action ^ " proxied")
          (Loopback.query c ~scheme ~fault_spec:"retries=0" ~fallback:false ()).Peer.result
      in
      let expected =
        match in_process with
        | Failed (_, "Mediator") when List.mem action [ "drop"; "truncate"; "corrupt" ] ->
          in_process
        | Correct when List.mem action [ "duplicate"; "delay" ] -> in_process
        | other -> Alcotest.failf "%s in process: unexpected %s" action (pp_ending other)
      in
      List.iter
        (fun (how, got) ->
          if got <> expected then
            Alcotest.failf "%s %s: %s, in process %s" action how (pp_ending got)
              (pp_ending expected))
        [ ("served --fault", served); ("through the proxy", proxied) ])
    served

(* A rule's [times] counter burns down alike in every process: a
   damaging choice fails the attempt wherever its bytes go, so a process
   that carries on past it — here the client, which sent the damaged
   query — makes no further choice in that attempt.  Two corruptions
   cost two attempts, served as in one process. *)
let test_times_counter_in_step () =
  Loopback.with_cluster ~params:fast ~spec:small_spec @@ fun c ->
  let spec = "corrupt:*->*:times=2;retries=2" and scheme = "plain" in
  let plan = Result.get_ok (Fault.of_spec spec) in
  (match
     Protocol.run ~fault:plan
       (Option.get (Protocol.scheme_of_name scheme))
       (Loopback.env c) (Loopback.client_of c) ~query:(Loopback.canonical_query c)
   with
  | Protocol.Ok _ -> Alcotest.(check int) "three attempts in process" 3 (Fault.attempts plan)
  | Protocol.Fault f -> Alcotest.failf "in process: %s" f.Protocol.reason);
  let response = Loopback.query c ~scheme ~fault_spec:spec ~fallback:false () in
  ignore (served_exn scheme response.Peer.result);
  Alcotest.(check int) "three attempts served" 3 response.Peer.epochs

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

(* One session posed by [client] (any env / credentials the caller
   doctors), which must come back unserved with exactly [expected] —
   not a dead session thread or an untyped catch-all. *)
let expect_unserved c ?(client = Loopback.client_of c) ~query name (expected : Fault.failure) =
  let response =
    Peer.run ~host:"127.0.0.1" ~port:(Loopback.port c) ~scenario:(Loopback.scenario c)
      ~scheme:"plain" ~query (Loopback.env c) client
  in
  match response.Peer.result with
  | Protocol.Served _ -> Alcotest.failf "%s: served" name
  | Protocol.Unserved tried ->
    List.iter
      (fun (scheme, (f : Protocol.failure)) ->
        Alcotest.(check (triple string string string))
          (Printf.sprintf "%s (%s)" name scheme)
          (expected.Fault.phase, Transcript.party_name expected.Fault.party, expected.Fault.reason)
          (f.Protocol.phase, Transcript.party_name f.Protocol.party, f.Protocol.reason))
      tried

(* A query the mediator cannot parse or decompose is answered unserved,
   typed as the mediator's request phase, and the session thread lives
   on: the next query on the same cluster is served. *)
let test_undecomposable_query_unserved () =
  Loopback.with_cluster ~params:fast ~spec:small_spec @@ fun c ->
  List.iter
    (fun (query, reason) ->
      expect_unserved c ~query query
        { Fault.phase = "request"; party = Transcript.Mediator; reason })
    [
      ("garbage (((", "expected SELECT but found identifier \"garbage\"");
      ("select * from R1", "query has no JOIN; the protocols mediate exactly one join");
    ];
  ignore (served_exn "plain" (Loopback.query c ~scheme:"plain" ()).Peer.result)

(* A request refused at source 1 — a credential from a foreign CA, or no
   credential at all — reaches the client as that source's typed
   request-phase failure.  The client replica computes source 1, so it
   is the leaf that refuses. *)
let test_refused_request_typed () =
  Loopback.with_cluster ~params:fast ~spec:small_spec @@ fun c ->
  let client = Loopback.client_of c in
  let _, forged, _ = forged_scenario () in
  let refused reason = { Fault.phase = "request"; party = Transcript.Source 1; reason } in
  expect_unserved c ~client:forged ~query:(Loopback.canonical_query c) "foreign CA"
    (refused "bad credential");
  expect_unserved c ~client:{ client with Env.credentials = [] }
    ~query:(Loopback.canonical_query c) "no credential" (refused "access denied");
  ignore (served_exn "plain" (Loopback.query c ~scheme:"plain" ()).Peer.result)

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

let test_net_metrics_counted () =
  Obs.Metrics.reset ();
  Loopback.with_cluster ~params:fast ~spec:small_spec @@ fun c ->
  let response = Loopback.query c ~scheme:"plain" () in
  let _ = served_exn "plain" response.Peer.result in
  Alcotest.(check bool) "frames sent counted" true
    (Obs.Metrics.counter_value (Obs.Metrics.counter "net.frames_sent") > 0);
  Alcotest.(check bool) "frames received counted" true
    (Obs.Metrics.counter_value (Obs.Metrics.counter "net.frames_recv") > 0);
  Alcotest.(check bool) "bytes received counted" true
    (Obs.Metrics.counter_value (Obs.Metrics.counter "net.bytes_recv") > 0)

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
      ("leftover", [ Alcotest.test_case "rule table" `Quick test_leftover_rule ]);
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
          Alcotest.test_case "reader death wakes a parked waiter" `Quick
            test_mux_death_wakes_waiter;
          Alcotest.test_case "timeout fires on time" `Quick test_mux_timeout_fires_on_time;
        ] );
      ( "projection",
        [
          Alcotest.test_case "source rejects its forged credential" `Quick
            test_source_rejects_own_forged_credential;
          Alcotest.test_case "mediator verifies no credential" `Quick
            test_mediator_verifies_nothing;
          Alcotest.test_case "other source skips the forged one" `Quick
            test_other_source_skips_forged_credential;
          Alcotest.test_case "mediator reads no source data" `Quick
            test_mediator_reads_no_source_data;
          Alcotest.test_case "receivers reject typed" `Quick test_receivers_reject_typed;
        ] );
      ( "scenario",
        [ Alcotest.test_case "digest deterministic" `Quick test_scenario_digest_deterministic ] );
      ( "loopback",
        [
          Alcotest.test_case "differential: all schemes bit-identical" `Slow
            test_loopback_differential;
          Alcotest.test_case "fault plan still streams" `Slow test_fault_plan_streams;
          Alcotest.test_case "times counter in step" `Slow test_times_counter_in_step;
          Alcotest.test_case "differential: pm direct payload" `Slow
            test_pm_direct_differential;
          Alcotest.test_case "at capacity refuses" `Quick test_server_at_capacity_refuses;
          Alcotest.test_case "digest mismatch refused" `Quick
            test_scenario_digest_mismatch_refused;
          Alcotest.test_case "completed session frees its slot" `Slow
            test_admission_slot_freed_after_completion;
          Alcotest.test_case "net metrics counted" `Quick test_net_metrics_counted;
          Alcotest.test_case "undecomposable query unserved, typed" `Quick
            test_undecomposable_query_unserved;
          Alcotest.test_case "refused request typed" `Quick test_refused_request_typed;
          Alcotest.test_case "daemons forked and addressable" `Quick
            test_daemons_forked_and_addressable;
        ] );
      ("addressing", [ Alcotest.test_case "address parsers" `Quick test_address_parsers ]);
      ( "chaos",
        [
          Alcotest.test_case "corrupt retried then served" `Slow
            test_chaos_corrupt_retried_then_served;
          Alcotest.test_case "drop is a typed timeout fault" `Slow
            test_chaos_drop_is_typed_timeout_fault;
          Alcotest.test_case "duplicate filtered" `Slow test_chaos_duplicate_is_filtered;
          Alcotest.test_case "delay trips the real deadline" `Slow
            test_chaos_delay_trips_real_deadline;
          Alcotest.test_case "truncate rejected then retried" `Slow
            test_chaos_truncate_rejected_then_retried;
          Alcotest.test_case "corrupt source frame rejected by the tag" `Slow
            test_chaos_corrupt_rejected_by_tag;
          Alcotest.test_case "corrupt streamed delivery" `Slow
            test_chaos_corrupt_streamed_delivery;
          Alcotest.test_case "stopped proxy releases its port" `Quick
            test_chaos_stop_releases_port;
          Alcotest.test_case "one fault three ways" `Slow test_channel_fault_three_ways;
        ] );
      ( "hostile",
        [
          Alcotest.test_case "byzantine modes fail as in process" `Slow
            test_byzantine_modes_match_inproc;
          Alcotest.test_case "malformed varints rejected" `Quick test_malformed_varints_rejected;
        ] );
    ]
