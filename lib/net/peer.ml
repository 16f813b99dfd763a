open Secmed_mediation
open Secmed_core
module Mux = Endpoint.Mux
module Obs = Secmed_obs

exception Refused of string
exception Draining of string

type health = { h_role : Transcript.party; h_draining : bool; h_active : int }

(* ------------------------------------------------------------------ *)
(* The attempt loop both leaves run *)

(* One replica's side of a session, shared by the datasource daemon and
   the remote client.  Between attempts it waits on [route] for the next
   [Session_start], skipping the last attempt's leftovers, then runs the
   announced attempt and reports how it ended.  The fault plan is parsed
   once per session, so a rule's [times] counter burns down across
   attempts as it does in the mediator's single plan.  [finish ~last]
   turns a frame that ends the session into its result.  With
   [ship_spans], a traced attempt runs under a fresh collector bound to
   this thread, so concurrent sessions on a shared mux never interleave
   spans, and its batch rides in the attempt's [Report]. *)
let replica_session ~role ?computes ?(ship_spans = false) ~io_timeout ~idle ~route
    ~keep env client finish =
  let plan = ref None in
  let plan_of fault_spec =
    match !plan with
    | Some fault -> fault
    | None ->
      (* The mediator validated the spec: fail open rather than diverge. *)
      let fault =
        if String.equal fault_spec "" then None else Result.to_option (Fault.of_spec fault_spec)
      in
      plan := Some fault;
      fault
  in
  let run_attempt ~session ~epoch ~attempt ~scheme ~query ~fault_spec ~trace_id =
    let run () =
      Endpoint.run_replica ~role ?computes ~fault:(plan_of fault_spec) ~session ~epoch ~attempt
        ~scheme ~query ~io_timeout ~route env client
    in
    let (status, outcome), spans =
      if ship_spans && not (String.equal trace_id "") then begin
        let collector = Obs.Trace.create () in
        let result = Obs.Trace.with_collector collector run in
        (result, Trace_wire.payload_of collector)
      end
      else (run (), "")
    in
    Option.iter keep outcome;
    try route.Endpoint.r_send (Frame.Report { session; epoch; status; spans })
    with Io.Transport_error _ -> ()
  in
  let rec loop last =
    let next =
      Endpoint.await route ~timeout:idle ~epoch:(last + 1) ~seq:0
        ~fail:(fun reason -> raise (Io.Transport_error reason))
        (function
          | Frame.Session_start { session; epoch; attempt; scheme; query; fault_spec; trace_id }
            ->
            Some
              (fun () ->
                run_attempt ~session ~epoch ~attempt ~scheme ~query ~fault_spec ~trace_id;
                loop epoch)
          | f -> Option.map (fun result () -> result) (finish ~last f))
    in
    next ()
  in
  loop 0

(* ------------------------------------------------------------------ *)
(* Datasource daemon *)

let source_session ~role ~env ~client ~io_timeout mux session =
  let route =
    Endpoint.plain_route
      ~send:(fun f -> Mux.send mux f)
      ~next:(fun ~timeout -> Mux.next mux ~session ~timeout)
  in
  (try
     replica_session ~role ~ship_spans:true ~io_timeout ~idle:120. ~route
       ~keep:ignore env client (fun ~last:_ -> function
       | Frame.Session_end _ -> Some ()
       | _ -> None)
   with Io.Transport_error _ | Endpoint.Aborted _ -> ());
  Mux.unsubscribe mux session

let source ~id ~env ~client ~scenario ~listen_fd ?(io_timeout = 10.)
    ?(drain_deadline = 30.) () =
  let role = Transcript.Source id in
  let env = Env.view env role in
  let life = Daemon.create ~role ~scenario ~drain_deadline in
  (* Live session threads across every mediator connection. *)
  let active_mu = Mutex.create () in
  let active = ref 0 in
  let count () = Mutex.protect active_mu (fun () -> !active) in
  let handle conn = function
    | Frame.Hello { role = Transcript.Mediator; _ } when Daemon.draining life ->
      Io.send_frame conn (Frame.encode (Frame.Draining "source is draining"))
    | Frame.Hello { role = Transcript.Mediator; _ } ->
      Io.send_frame conn (Frame.encode (Frame.Hello_ok { scenario }));
      (* Sessions wait with their own timeouts; the shared socket must
         tolerate idle stretches between queries. *)
      Io.set_timeout conn 0.;
      let mux = Mux.create conn in
      (* Every Session_start is announced on the control queue, and a
         resilient session announces each attempt: exactly one handler
         task per session must result, on a thread from [Thread_cache]. *)
      let live_mu = Mutex.create () in
      let live = Hashtbl.create 8 in
      let rec control () =
        match Mux.next_control mux ~timeout:0. with
        | Frame.Session_start { session; epoch; _ } ->
          (* The mux already parked this frame (and anything racing in
             behind it) on the session's own queue; this copy is just
             the announcement. *)
          let fresh =
            Mutex.protect live_mu (fun () ->
                if Hashtbl.mem live session then false
                else begin
                  Hashtbl.replace live session ();
                  true
                end)
          in
          if fresh then begin
            if Daemon.draining life then begin
              (* A brand-new session on a connection that predates
                 the drain: refuse it with a typed report (the mediator
                 marks this replica down and retries on a standby) rather
                 than admitting work the deadline may cut short. *)
              Mutex.protect live_mu (fun () -> Hashtbl.remove live session);
              Mux.unsubscribe mux session;
              try
                Mux.send mux
                  (Frame.Report
                     { session; epoch; spans = "";
                       status =
                         Frame.St_failed
                           { Fault.phase = "admission"; party = role; reason = "draining" } })
              with Io.Transport_error _ -> ()
            end
            else begin
              Mutex.protect active_mu (fun () -> incr active);
              Thread_cache.spawn (fun () ->
                  Fun.protect
                    ~finally:(fun () ->
                      Mutex.protect live_mu (fun () -> Hashtbl.remove live session);
                      Mutex.protect active_mu (fun () -> decr active))
                    (fun () -> source_session ~role ~env ~client ~io_timeout mux session))
            end
          end;
          control ()
        | _ -> control ()
        | exception Io.Transport_error _ -> ()
      in
      control ()
    | Frame.Hello _ ->
      Io.send_frame conn
        (Frame.encode (Frame.Busy "scenario digest mismatch (wrong workload or parameters)"))
    | _ -> ()
  in
  (* A daemon waits for its mediator indefinitely; [io_timeout] guards
     per-operation I/O once a connection exists.  Each connection gets
     its own thread, so a second mediator's link is served alongside
     the first. *)
  Daemon.serve life ~listen_fd ~io_timeout ~active:count ~idle:(fun () -> count () = 0) handle

(* ------------------------------------------------------------------ *)
(* Remote client *)

type response = {
  result : Protocol.session_result;
  epochs : int;
  link_stats : (Transcript.party * int * int) list;
  socket_bytes : int * int;
  remote_spans : Trace_wire.remote list;
}

let failure_of_wire attempts (f : Fault.failure) =
  { Protocol.phase = f.Fault.phase; party = f.Fault.party; reason = f.Fault.reason; attempts }

(* A client connection: dialed with one [Hello], then any number of
   sessions in sequence, one [Query] each.  [conn] is [None] once the
   client is closed or its connection was found dead, and the next
   query dials.  [fresh] holds until the first session on [conn] is
   posed: that session's socket bytes and latency include the
   handshake. *)
type client = {
  host : string;
  port : int;
  scenario : string;
  io_timeout : float;
  mutable conn : Io.conn option;
  mutable fresh : bool;
}

let dial ~host ~port ~scenario ~io_timeout =
  let conn = Io.connect ~timeout:io_timeout ~host ~port () in
  match
    Io.send_frame conn (Frame.encode (Frame.Hello { role = Transcript.Client; scenario }));
    Frame.decode (Io.recv_frame conn)
  with
  | Frame.Hello_ok { scenario = s } when String.equal s scenario -> conn
  | reply ->
    Io.close conn;
    raise
      (match reply with
      | Frame.Hello_ok _ -> Io.Transport_error "scenario digest mismatch with the mediator"
      | Frame.Busy reason -> Refused reason
      | Frame.Draining reason -> Draining reason
      | f -> Io.Transport_error ("unexpected " ^ Frame.tag_name f ^ " in handshake"))
  | exception e ->
    Io.close conn;
    raise e

let connect ~host ~port ~scenario ?(io_timeout = 10.) () =
  { host; port; scenario; io_timeout; conn = Some (dial ~host ~port ~scenario ~io_timeout);
    fresh = true }

let close c =
  Option.iter Io.close c.conn;
  c.conn <- None

(* The connection ended before the first frame of the session arrived:
   the mediator never started it. *)
exception Not_started of exn

(* One session on [conn].  [base] is the connection's byte count before
   the session: zero when it is the connection's first, so a one-shot
   session counts its handshake. *)
let pose ~io_timeout conn ~base ~scheme ~query ~fault_spec ~deadline ~fallback ~trace env client
    =
  (try
     Io.send_frame conn
       (Frame.encode (Frame.Query { scheme; query; fault_spec; deadline; fallback; trace }))
   with Io.Transport_error _ as e -> raise (Not_started e));
  let started = ref false in
  let route =
    Endpoint.plain_route
      ~send:(fun f -> Io.send_frame conn (Frame.encode f))
      ~next:(fun ~timeout ->
        Io.set_timeout conn timeout;
        match Frame.decode (Io.recv_frame conn) with
        | f ->
          started := true;
          f
        | exception (Io.Transport_error _ as e) when (not !started) && Io.closed_by_peer conn ->
          raise (Not_started e))
  in
  let outcomes = Hashtbl.create 4 in
  let respond ~last result remote_spans =
    let socket_bytes = (Io.bytes_in conn - fst base, Io.bytes_out conn - snd base) in
    match result with
    | Frame.W_served { w_scheme; w_attempts; w_degraded; w_link_stats } ->
      let outcome =
        match Hashtbl.find_opt outcomes w_scheme with
        | Some o -> o
        | None ->
          raise
            (Io.Transport_error
               (Printf.sprintf "mediator served %s but this replica holds no outcome for it"
                  w_scheme))
      in
      let outcome =
        match w_degraded with
        | None -> outcome
        | Some (from_scheme, reason) -> Outcome.mark_degraded outcome ~from_scheme ~reason
      in
      {
        result = Protocol.Served outcome;
        epochs = w_attempts;
        link_stats = w_link_stats;
        socket_bytes;
        remote_spans;
      }
    | Frame.W_unserved tried ->
      {
        result =
          Protocol.Unserved
            (List.map (fun (s, f, attempts) -> (s, failure_of_wire attempts f)) tried);
        epochs = last;
        link_stats = [];
        socket_bytes;
        remote_spans;
      }
  in
  (* The client stays a full replica: it computes every party's steps,
     so it checks every message it receives against its own value and
     holds the whole session's accounting.  Between attempts the
     mediator may be backing off, running another session, or
     re-dialing a source: wait generously, not forever. *)
  replica_session ~role:Transcript.Client ~computes:(fun _ -> true) ~io_timeout
    ~idle:(Float.max 60. (io_timeout *. 6.)) ~route
    ~keep:(fun o -> Hashtbl.replace outcomes o.Outcome.scheme o)
    env client
    (fun ~last -> function
      | Frame.Session_result { result; spans; _ } -> Some (respond ~last result spans)
      | Frame.Busy reason -> raise (Refused reason)
      | Frame.Draining reason -> raise (Draining reason)
      | _ -> None)

(* A reused connection that the mediator closed meanwhile (a restart,
   or its idle bound) is redialed once, at once, and the session posed
   again: it never started.  A session on a connection dialed for it
   gets no such second chance.  The connection survives a session that
   ends in a verdict or a [Busy]; after anything else its state is
   unknown, and a [Draining] mediator will not serve it again, so the
   next session dials. *)
let query c ~scheme ~query ?(fault_spec = "") ?(deadline = 0.) ?(fallback = true)
    ?(trace = false) env client =
  let rec go () =
    let conn =
      match c.conn with
      | Some conn -> conn
      | None ->
        let conn =
          dial ~host:c.host ~port:c.port ~scenario:c.scenario ~io_timeout:c.io_timeout
        in
        c.conn <- Some conn;
        c.fresh <- true;
        conn
    in
    let reused = not c.fresh in
    c.fresh <- false;
    let base = if reused then (Io.bytes_in conn, Io.bytes_out conn) else (0, 0) in
    match
      pose ~io_timeout:c.io_timeout conn ~base ~scheme ~query ~fault_spec ~deadline ~fallback
        ~trace env client
    with
    | response -> response
    | exception (Refused _ as e) -> raise e
    | exception Not_started e ->
      close c;
      (* The redialed connection is fresh: this happens at most once. *)
      if reused then go () else raise e
    | exception e ->
      close c;
      raise e
  in
  go ()

let run ~host ~port ~scenario ~scheme ~query:q ?fault_spec ?deadline ?fallback ?io_timeout
    ?trace env client =
  let c = connect ~host ~port ~scenario ?io_timeout () in
  Fun.protect ~finally:(fun () -> close c) @@ fun () ->
  query c ~scheme ~query:q ?fault_spec ?deadline ?fallback ?trace env client

(* ------------------------------------------------------------------ *)
(* Ops client *)

(* One ops exchange: connect, send [request], read one reply.  [answer]
   maps the expected reply; [Busy] is a typed refusal and anything else
   a transport error naming [what] was asked. *)
let ops_request ~host ~port ~io_timeout ~what request answer =
  let conn = Io.connect ~timeout:io_timeout ~host ~port () in
  Fun.protect ~finally:(fun () -> Io.close conn) @@ fun () ->
  Io.send_frame conn (Frame.encode request);
  match Frame.decode (Io.recv_frame conn) with
  | Frame.Busy reason -> raise (Refused reason)
  | f -> (
    match answer f with
    | Some v -> v
    | None -> raise (Io.Transport_error ("unexpected " ^ Frame.tag_name f ^ " to " ^ what)))

let stats ~host ~port ?(io_timeout = 10.) () =
  ops_request ~host ~port ~io_timeout ~what:"a stats request" Frame.Stats_request (function
    | Frame.Stats { payload } -> Some payload
    | _ -> None)

let ping ~host ~port ?(io_timeout = 10.) () =
  ops_request ~host ~port ~io_timeout ~what:"a ping" Frame.Ping (function
    | Frame.Health { h_role; h_draining; h_active } -> Some { h_role; h_draining; h_active }
    | _ -> None)

let drain ~host ~port ~scenario ?(deadline = 0.) ?(io_timeout = 10.) () =
  ops_request ~host ~port ~io_timeout ~what:"a drain request"
    (Frame.Drain { scenario; deadline })
    (function Frame.Drain_ok -> Some () | _ -> None)
