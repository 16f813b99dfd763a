(* Streaming delivery suite (DESIGN.md §16): the chunk codec and
   planner, the tracked high-water allocator, the reusable reassembly
   buffer, the bounded mux queues, the credit-flow-controlled
   send_rows/recv_rows pair end to end over real sockets, and every
   typed rejection of the chunk reader, fed hand-built frames. *)

open Secmed_mediation
open Secmed_core
open Secmed_net
module Obs = Secmed_obs

let contains hay needle =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  go 0

(* ------------------------------------------------------------------ *)
(* Hwm: the allocator the memory claims rest on. *)

let test_hwm_accounting () =
  Obs.Hwm.reset ();
  let r = Obs.Hwm.region "test.region" in
  Alcotest.(check bool) "interned" true (r == Obs.Hwm.region "test.region");
  Obs.Hwm.alloc r 100;
  Obs.Hwm.alloc r 50;
  Alcotest.(check int) "current tracks" 150 (Obs.Hwm.current r);
  Alcotest.(check int) "peak tracks" 150 (Obs.Hwm.peak r);
  Obs.Hwm.release r 120;
  Alcotest.(check int) "release lowers current" 30 (Obs.Hwm.current r);
  Alcotest.(check int) "peak is sticky" 150 (Obs.Hwm.peak r);
  Obs.Hwm.release r 1000;
  Alcotest.(check int) "double release clamps at zero" 0 (Obs.Hwm.current r);
  Obs.Hwm.alloc r 10;
  Alcotest.(check int) "peak survives the clamp" 150 (Obs.Hwm.peak r);
  Alcotest.(check bool) "global peak covers the region" true
    (Obs.Hwm.global_peak () >= 150);
  Alcotest.(check bool) "snapshot lists the region" true
    (contains (Obs.Json.to_string (Obs.Hwm.snapshot ())) "test.region");
  Obs.Hwm.reset ();
  Alcotest.(check int) "reset zeroes peak" 0 (Obs.Hwm.peak r)

(* ------------------------------------------------------------------ *)
(* Wire.Stream reserve/commit: reads land straight in the reassembly
   buffer; the frames must come out exactly as if fed whole. *)

let feed_via_reserve s blob =
  let n = String.length blob in
  if n > 0 then begin
    let buf, off = Wire.Stream.reserve s n in
    Bytes.blit_string blob 0 buf off n;
    Wire.Stream.commit s n
  end

let drain s =
  let rec go acc =
    match Wire.Stream.next_frame s with
    | Some body -> go (body :: acc)
    | None -> List.rev acc
  in
  go []

let test_reserve_commit_equals_feed () =
  let bodies = [ ""; "x"; String.init 5000 (fun i -> Char.chr (i mod 256)) ] in
  let whole = String.concat "" (List.map Wire.frame bodies) in
  for cut = 0 to String.length whole do
    let s = Wire.Stream.create () in
    feed_via_reserve s (String.sub whole 0 cut);
    feed_via_reserve s (String.sub whole cut (String.length whole - cut));
    Alcotest.(check (list string))
      (Printf.sprintf "reserve/commit split at %d" cut)
      bodies (drain s);
    Wire.Stream.dispose s;
    Wire.Stream.dispose s (* idempotent *)
  done

let test_reserve_commit_overrun_rejected () =
  let s = Wire.Stream.create () in
  let _buf, _off = Wire.Stream.reserve s 8 in
  match Wire.Stream.commit s 9000 with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "committing past the reservation must be rejected"

(* A frame at exactly the cap passes; one byte more is Malformed. *)
let test_max_size_frame_boundary () =
  let cap = 4096 in
  let s = Wire.Stream.create ~max_frame:cap () in
  Wire.Stream.feed s (Wire.frame (String.make cap 'a'));
  (match Wire.Stream.next_frame s with
  | Some body -> Alcotest.(check int) "cap-sized frame accepted" cap (String.length body)
  | None -> Alcotest.fail "cap-sized frame must decode");
  Wire.Stream.feed s (Wire.frame (String.make (cap + 1) 'b'));
  match Wire.Stream.next_frame s with
  | exception Wire.Malformed _ -> ()
  | _ -> Alcotest.fail "a frame above max_frame must be rejected"

(* Bytes allocated per received 4 KiB frame, over 512 frames pushed
   through a socketpair in batches of 8.  Gc.allocated_bytes, not
   minor_words: a 64 KiB scratch buffer is allocated straight on the
   major heap. *)
let alloc_per_frame make_recv =
  let frames = 512 and batch = 8 in
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let ca = Io.of_fd ~peer:"alloc-send" a in
  Fun.protect
    ~finally:(fun () ->
      Io.close ca;
      try Unix.close b with Unix.Unix_error _ -> ())
  @@ fun () ->
  let recv = make_recv b in
  let encoded = Wire.frame (String.make 4096 'x') in
  (* Warm up both ends: grow the write buffer, do the first-read setup. *)
  Io.send_raw ca encoded;
  recv 1;
  let before = Gc.allocated_bytes () in
  for _ = 1 to frames / batch do
    for _ = 1 to batch do
      Io.send_raw ca encoded
    done;
    recv batch
  done;
  (Gc.allocated_bytes () -. before) /. float_of_int frames

(* The shipped path: reads land in the connection's one reassembly
   buffer via reserve/commit. *)
let reused_recv fd =
  let conn = Io.of_fd ~peer:"alloc-recv" fd in
  fun n ->
    for _ = 1 to n do
      ignore (Io.recv_frame conn)
    done

(* The shape it replaced: a fresh 64 KiB scratch buffer per read,
   copied into the stream as a string. *)
let naive_recv fd =
  let s = Wire.Stream.create () in
  let rec take missing =
    if missing = 0 then 0
    else match Wire.Stream.next_frame s with Some _ -> take (missing - 1) | None -> missing
  in
  let rec go missing =
    let missing = take missing in
    if missing > 0 then begin
      let scratch = Bytes.create 65536 in
      let got = Unix.read fd scratch 0 65536 in
      Wire.Stream.feed s (Bytes.sub_string scratch 0 got);
      go missing
    end
  in
  go

let test_reused_recv_allocates_less () =
  let reused = alloc_per_frame reused_recv in
  let naive = alloc_per_frame naive_recv in
  Alcotest.(check bool)
    (Printf.sprintf "reused %.0f B/frame < naive %.0f B/frame" reused naive)
    true (reused < naive)

(* ------------------------------------------------------------------ *)
(* Chunk codec: Frame's rows-as-a-list payload, its planner, and the
   chunk and credit frames. *)

let chunk ?(ck_chunk = 0) ?(ck_chunks = 3) ?(payload = "p") () =
  Frame.Msg_chunk
    { ck_session = 5; ck_epoch = 2; ck_seq = 9; ck_sender = Transcript.Source 1;
      ck_receiver = Transcript.Mediator; ck_label = "R1S+ITables"; ck_chunk; ck_chunks;
      ck_declared = 12345; ck_payload = payload }

let chunk_record = function Frame.Msg_chunk c -> c | _ -> assert false

(* A chunk of label "R1S+ITables" carrying [rows]. *)
let packed rows = chunk_record (chunk ~payload:(Frame.pack ~label:"R1S+ITables" rows) ())

let row_cases =
  [ []; [ "" ]; [ "abc"; String.make 300 'z'; "\x00\xff" ];
    List.init 100 (Printf.sprintf "row-%d") ]

let test_entries_roundtrip () =
  List.iter
    (fun rows ->
      Alcotest.(check (result (list string) string)) "roundtrips" (Ok rows)
        (Frame.unpack (packed rows)))
    row_cases

(* Rows whose tag verifies but whose list does not parse are rejected,
   and so is a payload whose tag does not verify. *)
let test_entries_reject_garbage () =
  let w = Wire.writer () in
  Wire.write_list w (Wire.write_string w) [ "hello"; "world" ];
  let good = Wire.contents w in
  let tagged rows =
    { (packed []) with Frame.ck_payload = Fault.frame ~label:"R1S+ITables" rows }
  in
  let rejected what c =
    match Frame.unpack c with Error _ -> () | Ok _ -> Alcotest.failf "%s must be rejected" what
  in
  for cut = 0 to String.length good - 1 do
    rejected (Printf.sprintf "truncation at %d" cut) (tagged (String.sub good 0 cut))
  done;
  rejected "trailing bytes" (tagged (good ^ "!"));
  rejected "a payload tagged under another label"
    { (packed []) with Frame.ck_payload = Fault.frame ~label:"other" good };
  rejected "a payload without its tag" { (packed []) with Frame.ck_payload = good }

let test_payload_row_bytes () =
  List.iter
    (fun rows ->
      Alcotest.(check int) "peeked row bytes match"
        (List.fold_left (fun acc r -> acc + String.length r) 0 rows)
        (Frame.row_bytes (packed rows)))
    (row_cases @ [ List.init 50 (fun i -> String.make i 'x') ]);
  Alcotest.(check int) "short payload reads zero" 0
    (Frame.row_bytes (chunk_record (chunk ~payload:"ab" ())))

let test_plan_properties () =
  let rows = List.init 500 (fun i -> String.make (1 + (i * 7919 mod 1024)) 'r') in
  let chunks = Frame.plan rows in
  Alcotest.(check bool) "several chunks" true (List.length chunks > 2);
  Alcotest.(check (list string)) "concat of chunks is the rows in order" rows
    (List.concat chunks);
  List.iter
    (fun batch ->
      (* The 4-byte count and the tag ride above the payload budget. *)
      let payload = String.length (Frame.pack ~label:"L" batch) - 4 - Fault.tag_bytes in
      if payload > Frame.chunk_bytes then
        Alcotest.failf "a chunk of %d payload bytes exceeds the budget" payload)
    chunks;
  (* An oversized single row still travels, alone. *)
  let big = String.make (Frame.chunk_bytes + 1) 'x' in
  Alcotest.(check (list (list string))) "oversized row alone" [ [ big ]; [ "y" ] ]
    (Frame.plan [ big; "y" ]);
  Alcotest.(check (list (list string))) "no rows, one empty chunk" [ [] ] (Frame.plan [])

let test_chunk_frame_roundtrip () =
  List.iter
    (fun f ->
      Alcotest.(check bool)
        (Frame.tag_name f ^ " roundtrips") true
        (Frame.decode (Frame.encode f) = f))
    [
      chunk ();
      chunk ~ck_chunk:2 ~ck_chunks:3 ~payload:(String.make 70000 'c') ();
      Frame.Credit { cr_session = 5; cr_epoch = 2; cr_seq = 9; cr_n = 1 };
      Frame.Credit { cr_session = 1; cr_epoch = 0; cr_seq = 0; cr_n = 64 };
    ]

let test_chunk_count_cap_hostile () =
  (* A declared chunk count past the cap, or a chunk index at/past the
     count, must die in the codec — not reach the receiver's merge. *)
  List.iter
    (fun f ->
      match Frame.decode (Frame.encode f) with
      | exception Wire.Malformed _ -> ()
      | _ -> Alcotest.fail "hostile chunk header must be rejected")
    [ chunk ~ck_chunks:(Frame.max_chunks + 1) (); chunk ~ck_chunk:3 ~ck_chunks:3 () ];
  (* The cap itself is legal. *)
  match Frame.decode (Frame.encode (chunk ~ck_chunk:0 ~ck_chunks:Frame.max_chunks ())) with
  | Frame.Msg_chunk { ck_chunks; _ } ->
    Alcotest.(check int) "cap accepted" Frame.max_chunks ck_chunks
  | _ -> Alcotest.fail "cap-count chunk must decode"

(* No frame int is negative, so the encoder refuses one in any field of
   a chunk or a credit rather than emit bytes no decoder accepts. *)
let test_one_row_chunk_must_be_whole () =
  let c = chunk_record (chunk ()) in
  List.iter
    (fun (field, f) ->
      match Frame.encode f with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.failf "a negative %s must not encode" field)
    [
      ("session", Frame.Msg_chunk { c with ck_session = -1 });
      ("epoch", Frame.Msg_chunk { c with ck_epoch = -1 });
      ("seq", Frame.Msg_chunk { c with ck_seq = -1 });
      ("sender id", Frame.Msg_chunk { c with ck_sender = Transcript.Source (-1) });
      ("chunk index", Frame.Msg_chunk { c with ck_chunk = -1 });
      ("chunk count", Frame.Msg_chunk { c with ck_chunks = -1 });
      ("declared size", Frame.Msg_chunk { c with ck_declared = -1 });
      ("credit", Frame.Credit { cr_session = 1; cr_epoch = 1; cr_seq = 1; cr_n = -1 });
    ]

(* Chunk frames through the reassembly stream, split at every offset:
   the transport boundary must be invisible to the codec. *)
let test_chunk_frames_split_at_every_offset () =
  let frames =
    [
      chunk ~payload:(Frame.pack ~label:"R1S+ITables" [ "a"; "bb" ]) ();
      Frame.Credit { cr_session = 5; cr_epoch = 2; cr_seq = 9; cr_n = 1 };
      chunk ~ck_chunk:1 ~payload:(Frame.pack ~label:"R1S+ITables" [ String.make 200 'q' ]) ();
    ]
  in
  let whole = String.concat "" (List.map (fun f -> Wire.frame (Frame.encode f)) frames) in
  for cut = 0 to String.length whole do
    let s = Wire.Stream.create () in
    Wire.Stream.feed s (String.sub whole 0 cut);
    Wire.Stream.feed s (String.sub whole cut (String.length whole - cut));
    Alcotest.(check bool)
      (Printf.sprintf "chunk frames split at %d" cut)
      true
      (List.map Frame.decode (drain s) = frames)
  done

(* ------------------------------------------------------------------ *)
(* Mux overflow: a flooded session queue is dropped and poisoned, not
   grown without bound. *)

let socket_pair () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (Io.of_fd ~peer:"a" a, Io.of_fd ~peer:"b" b)

let msg ~seq =
  Frame.Msg_chunk
    { ck_session = 1; ck_epoch = 1; ck_seq = seq; ck_sender = Transcript.Mediator;
      ck_receiver = Transcript.Source 1; ck_label = "flood"; ck_chunk = 0; ck_chunks = 1;
      ck_declared = 2; ck_payload = "xy" }

let mux_sync a mux =
  Io.send_frame a (Frame.encode (Frame.Busy "sync"));
  match Endpoint.Mux.next_control mux ~timeout:5. with
  | Frame.Busy "sync" -> ()
  | f -> Alcotest.fail ("expected sync marker, got " ^ Frame.tag_name f)

let test_mux_queue_overflow_poisons_session () =
  let a, b = socket_pair () in
  Fun.protect ~finally:(fun () -> Io.close a; Io.close b) @@ fun () ->
  let mux = Endpoint.Mux.create ~max_queue:4 b in
  Endpoint.Mux.subscribe mux 1;
  for seq = 0 to 9 do
    Io.send_frame a (Frame.encode (msg ~seq))
  done;
  mux_sync a mux;
  Alcotest.(check bool) "session marked overflowed" true (Endpoint.Mux.overflowed mux 1);
  Alcotest.(check int) "excess frames dropped" 6 (Endpoint.Mux.dropped mux);
  Alcotest.(check int) "backlog capped at the bound" 4 (Endpoint.Mux.backlog mux);
  (match Endpoint.Mux.next mux ~session:1 ~timeout:5. with
  | exception Io.Transport_error m ->
    Alcotest.(check bool) "typed overflow failure" true (contains m "overflow")
  | _ -> Alcotest.fail "an overflowed session must fail typed");
  (* Resubscribing (an epoch-bumped reuse) clears the poisoning and the
     frames parked before the overflow, so the full queue cannot drop
     and re-poison the fresh frame however the reader thread is
     scheduled. *)
  Endpoint.Mux.subscribe mux 1;
  Alcotest.(check bool) "resubscribe clears overflow" false (Endpoint.Mux.overflowed mux 1);
  Alcotest.(check int) "resubscribe releases the stale frames" 0 (Endpoint.Mux.backlog mux);
  Io.send_frame a (Frame.encode (msg ~seq:99));
  (match Endpoint.Mux.next mux ~session:1 ~timeout:5. with
  | Frame.Msg_chunk { ck_seq = 99; _ } -> ()
  | f -> Alcotest.fail ("expected the fresh frame, got " ^ Frame.tag_name f));
  Alcotest.(check bool) "fresh frame not poisoned" false (Endpoint.Mux.overflowed mux 1)

(* ------------------------------------------------------------------ *)
(* send_rows/recv_rows end to end over sockets, with real credits. *)

let make_leg ?(credits = ref 0) () =
  (* One leg: a mux on each end of a socketpair, both subscribed to the
     test session.  [credits] counts the Credit frames either end sends. *)
  let a, b = socket_pair () in
  let ma = Endpoint.Mux.create a and mb = Endpoint.Mux.create b in
  Endpoint.Mux.subscribe ma 7;
  Endpoint.Mux.subscribe mb 7;
  let route m =
    Endpoint.plain_route
      ~send:(fun f ->
        (match f with Frame.Credit _ -> incr credits | _ -> ());
        Endpoint.Mux.send m f)
      ~next:(fun ~timeout -> Endpoint.Mux.next m ~session:7 ~timeout)
  in
  ((a, b), route ma, route mb)

let transport_for ~role ~counterpart route =
  Endpoint.transport ~role ~session:7 ~epoch:(fun () -> 1) ~io_timeout:10.
    ~route_of:(fun p -> if Transcript.party_equal p counterpart then Some route else None)
    ()

let rows_fixture n =
  (* Enough bytes that the default 64 KiB chunking needs > credit_window
     chunks: the sender must block on and consume real Credit grants. *)
  List.init n (fun i -> (i, String.init 1024 (fun j -> Char.chr ((i + j) mod 256))))

let stream_of tr = Option.get tr.Link.rows

(* [rows_fixture n] from source 1 to the mediator over a fresh leg,
   verified row by row at the receiver; returns how many chunks the
   stream took and how many Credit frames the receiver sent. *)
let stream_over_leg n =
  let credits = ref 0 in
  let (ca, cb), sender_route, receiver_route = make_leg ~credits () in
  Fun.protect ~finally:(fun () -> Io.close ca; Io.close cb) @@ fun () ->
  let rows = rows_fixture n in
  let size = Stream.total_bytes rows in
  let sender =
    transport_for ~role:(Transcript.Source 1) ~counterpart:Transcript.Mediator
      sender_route
  in
  let receiver =
    transport_for ~role:Transcript.Mediator ~counterpart:(Transcript.Source 1)
      receiver_route
  in
  let sender_err = ref None in
  let t =
    Thread.create
      (fun () ->
        try
          (stream_of sender).Link.send_rows ~phase:"t" ~seq:0 ~sender:(Transcript.Source 1)
            ~receiver:Transcript.Mediator ~label:"L" ~size rows
        with e -> sender_err := Some e)
      ()
  in
  (stream_of receiver).Link.recv_rows ~phase:"t" ~seq:0 ~sender:(Transcript.Source 1)
    ~receiver:Transcript.Mediator ~label:"L" ~size ~expect:rows;
  Thread.join t;
  (match !sender_err with
  | Some e -> Alcotest.fail ("sender raised: " ^ Printexc.to_string e)
  | None -> ());
  Alcotest.(check int) "no stream backlog after completion" 0 (Endpoint.stream_backlog ());
  (List.length (Frame.plan (List.map snd rows)), !credits)

let test_send_recv_rows_roundtrip () =
  Obs.Hwm.reset ();
  let chunks, credits = stream_over_leg 700 in
  (* One grant per chunk beyond the first window: each one awaited. *)
  Alcotest.(check bool) "stream outruns the window" true (chunks > Endpoint.credit_window);
  Alcotest.(check int) "credits granted" (chunks - Endpoint.credit_window) credits;
  (* The receiver held at most ~one decoded chunk: far below the
     relation (700 KiB), within one chunk plus one max-sized row. *)
  let pending_peak = Obs.Hwm.peak (Obs.Hwm.region "stream.pending") in
  Alcotest.(check bool)
    (Printf.sprintf "merge window bounded (peak %d)" pending_peak)
    true
    (pending_peak > 0 && pending_peak <= Frame.chunk_bytes + 1024)

(* A stream that fits the sender's first window draws no Credit: a
   one-chunk delivery — every scalar message — costs one frame. *)
let test_one_chunk_stream_sends_no_credit () =
  let chunks, credits = stream_over_leg 3 in
  Alcotest.(check int) "one chunk" 1 chunks;
  Alcotest.(check int) "no credit sent" 0 credits

let test_recv_rows_detects_mismatch () =
  let (ca, cb), sender_route, receiver_route = make_leg () in
  Fun.protect ~finally:(fun () -> Io.close ca; Io.close cb) @@ fun () ->
  let rows = rows_fixture 20 in
  let size = Stream.total_bytes rows in
  let tampered =
    List.map (fun (i, b) -> if i = 13 then (i, "not the canonical bytes") else (i, b)) rows
  in
  let sender =
    transport_for ~role:(Transcript.Source 1) ~counterpart:Transcript.Mediator
      sender_route
  in
  let receiver =
    transport_for ~role:Transcript.Mediator ~counterpart:(Transcript.Source 1)
      receiver_route
  in
  let t =
    Thread.create
      (fun () ->
        try
          (stream_of sender).Link.send_rows ~phase:"t" ~seq:0 ~sender:(Transcript.Source 1)
            ~receiver:Transcript.Mediator ~label:"L" ~size tampered
        with _ -> ())
      ()
  in
  (match
     (stream_of receiver).Link.recv_rows ~phase:"t" ~seq:0 ~sender:(Transcript.Source 1)
       ~receiver:Transcript.Mediator ~label:"L" ~size ~expect:rows
   with
  | exception Fault.Fault_detected f ->
    Alcotest.(check bool) "blames the stream row" true (contains f.Fault.reason "stream row 13")
  | () -> Alcotest.fail "a tampered row must be detected");
  Thread.join t

(* A receiver that did not compute the rows takes them in index order,
   from streams of several chunks' rows down to an empty one (which
   still sends one empty chunk, so its end is observable). *)
let test_take_rows_merges_short_and_empty_streams () =
  let (ca, cb), sender_route, receiver_route = make_leg () in
  Fun.protect ~finally:(fun () -> Io.close ca; Io.close cb) @@ fun () ->
  let sender =
    transport_for ~role:(Transcript.Source 1) ~counterpart:Transcript.Mediator sender_route
  in
  let receiver =
    transport_for ~role:Transcript.Mediator ~counterpart:(Transcript.Source 1) receiver_route
  in
  List.iteri
    (fun seq n ->
      let rows = List.init n (fun i -> (i, Printf.sprintf "row-%d;" i)) in
      let size = Stream.total_bytes rows in
      let t =
        Thread.create
          (fun () ->
            (stream_of sender).Link.send_rows ~phase:"t" ~seq ~sender:(Transcript.Source 1)
              ~receiver:Transcript.Mediator ~label:"L" ~size rows)
          ()
      in
      let declared, bytes =
        (stream_of receiver).Link.take_rows ~phase:"t" ~seq ~sender:(Transcript.Source 1)
          ~receiver:Transcript.Mediator ~label:"L"
      in
      Thread.join t;
      Alcotest.(check int) (Printf.sprintf "%d rows: declared size" n) size declared;
      Alcotest.(check string)
        (Printf.sprintf "%d rows: taken in index order" n)
        (String.concat "" (List.map snd rows))
        bytes)
    [ 7; 1; 0 ]

(* The size pin of the one chunk form: a 3-byte one-row message from
   source 1 to the mediator (session 1, epoch 1, seq 3, label "L") is one
   chunk of at most 48 encoded bytes, and the credit for it at most 12.
   A message of several rows is the same form: its rows are its
   payload's list, in order. *)
let test_one_row_message_travels_bare () =
  let sent = ref [] in
  let route =
    Endpoint.plain_route
      ~send:(fun f -> sent := f :: !sent)
      ~next:(fun ~timeout:_ -> raise (Io.Transport_error "nothing to read"))
  in
  let tr =
    Endpoint.transport ~role:(Transcript.Source 1) ~session:1 ~epoch:(fun () -> 1)
      ~io_timeout:10. ~route_of:(fun _ -> Some route) ()
  in
  let send rows =
    sent := [];
    (stream_of tr).Link.send_rows ~phase:"t" ~seq:3 ~sender:(Transcript.Source 1)
      ~receiver:Transcript.Mediator ~label:"L" ~size:(Stream.total_bytes rows) rows;
    match !sent with
    | [ (Frame.Msg_chunk c as f) ] -> (c, String.length (Frame.encode f))
    | _ -> Alcotest.fail "expected exactly one chunk frame"
  in
  let one, one_bytes = send [ (0, "abc") ] in
  Alcotest.(check (pair int int)) "one row: chunk 0 of 1" (0, 1) (one.ck_chunk, one.ck_chunks);
  Alcotest.(check (result (list string) string)) "one row: the row" (Ok [ "abc" ])
    (Frame.unpack one);
  Alcotest.(check bool) (Printf.sprintf "one-row chunk of %d bytes <= 48" one_bytes) true
    (one_bytes <= 48);
  let credit = Frame.Credit { cr_session = 1; cr_epoch = 1; cr_seq = 3; cr_n = 1 } in
  let credit_bytes = String.length (Frame.encode credit) in
  Alcotest.(check bool) (Printf.sprintf "credit of %d bytes <= 12" credit_bytes) true
    (credit_bytes <= 12);
  let two, _ = send [ (0, "ab"); (1, "cd") ] in
  Alcotest.(check (result (list string) string)) "two rows: the rows in order"
    (Ok [ "ab"; "cd" ]) (Frame.unpack two)

(* ------------------------------------------------------------------ *)
(* The chunk reader's typed rejections: hand-built chunk frames from
   source 1, replayed to a mediator transport through a scripted route
   (the credits it grants are dropped). *)

let scripted_transport frames =
  let q = Queue.of_seq (List.to_seq frames) in
  let route =
    Endpoint.plain_route ~send:ignore ~next:(fun ~timeout:_ ->
        match Queue.take_opt q with
        | Some f -> f
        | None -> raise (Io.Transport_error "script ended"))
  in
  transport_for ~role:Transcript.Mediator ~counterpart:(Transcript.Source 1) route

let scripted frames = stream_of (scripted_transport frames)

let scripted_chunk ?(declared = 0) ~chunk ~chunks rows =
  Frame.Msg_chunk
    { ck_session = 7; ck_epoch = 1; ck_seq = 0; ck_sender = Transcript.Source 1;
      ck_receiver = Transcript.Mediator; ck_label = "L"; ck_chunk = chunk; ck_chunks = chunks;
      ck_declared = declared; ck_payload = Frame.pack ~label:"L" rows }

let take frames =
  (scripted frames).Link.take_rows ~phase:"t" ~seq:0 ~sender:(Transcript.Source 1)
    ~receiver:Transcript.Mediator ~label:"L"

let recv ~expect frames =
  (scripted frames).Link.recv_rows ~phase:"t" ~seq:0 ~sender:(Transcript.Source 1)
    ~receiver:Transcript.Mediator ~label:"L" ~size:0 ~expect

(* A mediator link whose transport reads [frames]. *)
let link_of frames =
  Link.make ~endpoint:(Link.Remote (scripted_transport frames)) (Transcript.create ())

(* A rejection is a typed fault blamed on the receiving mediator. *)
let rejected reason f =
  match f () with
  | exception Fault.Fault_detected failure ->
    Alcotest.(check bool) "blamed on the receiver" true
      (Transcript.party_equal failure.Fault.party Transcript.Mediator);
    Alcotest.(check bool)
      (Printf.sprintf "%S names %S" failure.Fault.reason reason)
      true
      (contains failure.Fault.reason reason)
  | _ -> Alcotest.failf "a stream that should fail with %S was accepted" reason

(* A row's index is its position: the index never travels, and a
   stream whose indexes are not positions is a caller's bug, refused
   before anything is sent or read. *)
let test_out_of_order_row_rejected () =
  let nothing =
    Endpoint.plain_route
      ~send:(fun _ -> Alcotest.fail "nothing may be sent")
      ~next:(fun ~timeout:_ -> Alcotest.fail "nothing may be read")
  in
  let refused what f =
    match f () with
    | exception Invalid_argument _ -> ()
    | () -> Alcotest.failf "%s with a row out of position must be refused" what
  in
  let rows = [ (0, "a"); (2, "c") ] in
  refused "send_rows" (fun () ->
      (stream_of (transport_for ~role:(Transcript.Source 1) ~counterpart:Transcript.Mediator
                    nothing)).Link.send_rows ~phase:"t" ~seq:0 ~sender:(Transcript.Source 1)
        ~receiver:Transcript.Mediator ~label:"L" ~size:2 rows);
  refused "recv_rows" (fun () -> recv ~expect:rows [])

let test_chunk_gap_rejected () =
  rejected "chunk gap: awaiting chunk 1, got 2" (fun () ->
      ignore
        (take
           [ scripted_chunk ~chunk:0 ~chunks:3 [ "a" ];
             scripted_chunk ~chunk:2 ~chunks:3 [ "b" ] ]))

let test_replayed_chunk_merged_once () =
  let first = scripted_chunk ~declared:3 ~chunk:0 ~chunks:2 [ "a"; "b" ] in
  let declared, bytes =
    take [ first; first; scripted_chunk ~declared:3 ~chunk:1 ~chunks:2 [ "c" ] ]
  in
  Alcotest.(check int) "declared size" 3 declared;
  Alcotest.(check string) "the replay is skipped" "abc" bytes

let test_declared_sizes_disagree () =
  rejected "stream declares 11 bytes, 10 expected" (fun () ->
      ignore
        (take
           [ scripted_chunk ~declared:10 ~chunk:0 ~chunks:2 [ "a" ];
             scripted_chunk ~declared:11 ~chunk:1 ~chunks:2 [ "b" ] ]))

let test_short_stream_rejected () =
  rejected "stream ended before row 2" (fun () ->
      recv
        ~expect:[ (0, "a"); (1, "b"); (2, "c") ]
        [ scripted_chunk ~chunk:0 ~chunks:1 [ "a"; "b" ] ])

let test_entries_past_the_end_rejected () =
  rejected "past the end" (fun () ->
      recv
        ~expect:[ (0, "a"); (1, "b") ]
        [ scripted_chunk ~chunk:0 ~chunks:1 [ "a"; "b"; "c" ] ])

(* A one-row message is an ordinary chunk: taken whole, its row is the
   message. *)
let test_one_row_taken () =
  let declared, bytes = take [ scripted_chunk ~declared:3 ~chunk:0 ~chunks:1 [ "abc" ] ] in
  Alcotest.(check int) "declared size" 3 declared;
  Alcotest.(check string) "the row" "abc" bytes

(* A one-row chunk whose row is shorter than its declared size is
   rejected before anything decodes it, as surplus bytes are below. *)
let test_one_row_size_disagreement_rejected () =
  rejected "3 bytes received, 4 declared" (fun () ->
      Link.exchange (link_of [ scripted_chunk ~declared:4 ~chunk:0 ~chunks:1 [ "abc" ] ])
        ~phase:"t" ~sender:(Transcript.Source 1) ~receiver:Transcript.Mediator ~label:"L"
        ~size:String.length ~encode:Fun.id ~decode:Fun.id None)

(* A receiver that did not compute the message takes exactly the bytes
   the stream declares: surplus is rejected before anything decodes it. *)
let test_surplus_bytes_rejected () =
  rejected "3 bytes received, 2 declared" (fun () ->
      Link.exchange (link_of [ scripted_chunk ~declared:2 ~chunk:0 ~chunks:1 [ "abc" ] ])
        ~phase:"t" ~sender:(Transcript.Source 1) ~receiver:Transcript.Mediator ~label:"L"
        ~size:String.length ~encode:Fun.id ~decode:Fun.id None)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "stream"
    [
      ( "hwm",
        [ Alcotest.test_case "tracked high-water accounting" `Quick test_hwm_accounting ] );
      ( "reassembly",
        [
          Alcotest.test_case "reserve/commit equals feed at every split" `Quick
            test_reserve_commit_equals_feed;
          Alcotest.test_case "commit overrun rejected" `Quick
            test_reserve_commit_overrun_rejected;
          Alcotest.test_case "max-size frame boundary" `Quick test_max_size_frame_boundary;
          Alcotest.test_case "reused receive allocates less" `Quick
            test_reused_recv_allocates_less;
        ] );
      ( "chunk-codec",
        [
          Alcotest.test_case "entries roundtrip" `Quick test_entries_roundtrip;
          Alcotest.test_case "garbage rejected" `Quick test_entries_reject_garbage;
          Alcotest.test_case "payload row bytes peeked" `Quick test_payload_row_bytes;
          Alcotest.test_case "plan bounds chunks" `Quick test_plan_properties;
          Alcotest.test_case "chunk/credit frames roundtrip" `Quick test_chunk_frame_roundtrip;
          Alcotest.test_case "hostile chunk count capped" `Quick test_chunk_count_cap_hostile;
          Alcotest.test_case "chunk frames split at every offset" `Quick
            test_chunk_frames_split_at_every_offset;
          Alcotest.test_case "one-row chunk must be whole" `Quick
            test_one_row_chunk_must_be_whole;
        ] );
      ( "mux",
        [
          Alcotest.test_case "queue overflow poisons the session" `Quick
            test_mux_queue_overflow_poisons_session;
        ] );
      ( "streamed-transport",
        [
          Alcotest.test_case "roundtrip with credit flow" `Slow test_send_recv_rows_roundtrip;
          Alcotest.test_case "tampered row detected" `Slow test_recv_rows_detects_mismatch;
          Alcotest.test_case "take_rows merges short and empty streams" `Quick
            test_take_rows_merges_short_and_empty_streams;
          Alcotest.test_case "one-chunk stream sends no credit" `Quick
            test_one_chunk_stream_sends_no_credit;
          Alcotest.test_case "one-row message travels bare" `Quick
            test_one_row_message_travels_bare;
        ] );
      ( "chunk-reader",
        [
          Alcotest.test_case "out-of-order row rejected" `Quick test_out_of_order_row_rejected;
          Alcotest.test_case "chunk gap rejected" `Quick test_chunk_gap_rejected;
          Alcotest.test_case "replayed chunk merged once" `Quick
            test_replayed_chunk_merged_once;
          Alcotest.test_case "declared sizes disagree" `Quick test_declared_sizes_disagree;
          Alcotest.test_case "short stream rejected" `Quick test_short_stream_rejected;
          Alcotest.test_case "entries past the end rejected" `Quick
            test_entries_past_the_end_rejected;
          Alcotest.test_case "surplus bytes rejected" `Quick test_surplus_bytes_rejected;
          Alcotest.test_case "one-row chunk taken bare" `Quick test_one_row_taken;
          Alcotest.test_case "one-row size disagreement rejected" `Quick
            test_one_row_size_disagreement_rejected;
        ] );
    ]
