open Secmed_mediation

type status = St_ok | St_failed of Fault.failure | St_aborted

type wire_result =
  | W_served of {
      w_scheme : string;
      w_attempts : int;
      w_degraded : (string * string) option;
      w_link_stats : (Transcript.party * int * int) list;
    }
  | W_unserved of (string * Fault.failure * int) list

(* One bounded slice of a delivery: [chunk] of [chunks] of the message
   at (session, epoch, seq), payload a counted batch of (row index,
   bytes) entries (Secmed_core.Stream codec), or, with [one_row], the
   message's only row bare.  [declared] repeats the whole stream's
   transcript size on every chunk so any one frame identifies the
   delivery it belongs to. *)
type chunk = {
  ck_session : int;
  ck_epoch : int;
  ck_seq : int;
  ck_sender : Transcript.party;
  ck_receiver : Transcript.party;
  ck_label : string;
  ck_chunk : int;
  ck_chunks : int;
  ck_declared : int;
  ck_payload : string;
  ck_one_row : bool;
}

type t =
  | Hello of { role : Transcript.party; scenario : string }
  | Hello_ok of { scenario : string }
  | Busy of string
  | Query of {
      scheme : string;
      query : string;
      fault_spec : string;
      deadline : float;
      fallback : bool;
      trace : bool;
    }
  | Session_start of {
      session : int;
      epoch : int;
      attempt : int;
      scheme : string;
      query : string;
      fault_spec : string;
      trace_id : string;
    }
  | Msg_chunk of chunk
  | Credit of { cr_session : int; cr_epoch : int; cr_seq : int; cr_n : int }
  | Report of { session : int; epoch : int; status : status; spans : string }
  | Abort of { session : int; epoch : int; failure : Fault.failure }
  | Session_result of { session : int; result : wire_result; spans : Trace_wire.remote list }
  | Session_end of { session : int }
  | Stats_request
  | Stats of { payload : string }
  | Ping
  | Health of { h_role : Transcript.party; h_draining : bool; h_active : int }
  | Drain of { scenario : string; deadline : float }
  | Drain_ok
  | Draining of string

let malformed fmt = Printf.ksprintf (fun m -> raise (Wire.Malformed m)) fmt

let write_party w = function
  | Transcript.Client -> Wire.write_int w 0
  | Transcript.Mediator -> Wire.write_int w 1
  | Transcript.Authority -> Wire.write_int w 2
  | Transcript.Source i ->
    Wire.write_int w 3;
    Wire.write_int w i

let read_party r =
  match Wire.read_int r with
  | 0 -> Transcript.Client
  | 1 -> Transcript.Mediator
  | 2 -> Transcript.Authority
  | 3 -> Transcript.Source (Wire.read_int r)
  | n -> malformed "unknown party tag %d" n

(* Deadlines travel as milliseconds so the codec never has to round-trip
   a float bit pattern through a 63-bit int. *)
let write_seconds w f = Wire.write_int w (int_of_float (Float.round (f *. 1000.)))
let read_seconds r = float_of_int (Wire.read_int r) /. 1000.

let write_failure w (f : Fault.failure) =
  Wire.write_string w f.Fault.phase;
  write_party w f.Fault.party;
  Wire.write_string w f.Fault.reason

let read_failure r =
  let phase = Wire.read_string r in
  let party = read_party r in
  let reason = Wire.read_string r in
  { Fault.phase; party; reason }

let write_status w = function
  | St_ok -> Wire.write_int w 0
  | St_failed f ->
    Wire.write_int w 1;
    write_failure w f
  | St_aborted -> Wire.write_int w 2

let read_status r =
  match Wire.read_int r with
  | 0 -> St_ok
  | 1 -> St_failed (read_failure r)
  | 2 -> St_aborted
  | n -> malformed "unknown status tag %d" n

let write_result w = function
  | W_served { w_scheme; w_attempts; w_degraded; w_link_stats } ->
    Wire.write_int w 0;
    Wire.write_string w w_scheme;
    Wire.write_int w w_attempts;
    (match w_degraded with
    | None -> Wire.write_int w 0
    | Some (from_scheme, reason) ->
      Wire.write_int w 1;
      Wire.write_string w from_scheme;
      Wire.write_string w reason);
    Wire.write_list w
      (fun (party, sent, received) ->
        write_party w party;
        Wire.write_int w sent;
        Wire.write_int w received)
      w_link_stats
  | W_unserved tried ->
    Wire.write_int w 1;
    Wire.write_list w
      (fun (scheme, failure, attempts) ->
        Wire.write_string w scheme;
        write_failure w failure;
        Wire.write_int w attempts)
      tried

let read_result r =
  match Wire.read_int r with
  | 0 ->
    let w_scheme = Wire.read_string r in
    let w_attempts = Wire.read_int r in
    let w_degraded =
      match Wire.read_int r with
      | 0 -> None
      | 1 ->
        let from_scheme = Wire.read_string r in
        let reason = Wire.read_string r in
        Some (from_scheme, reason)
      | n -> malformed "unknown degraded tag %d" n
    in
    let w_link_stats =
      Wire.read_list r (fun () ->
          let party = read_party r in
          let sent = Wire.read_int r in
          let received = Wire.read_int r in
          (party, sent, received))
    in
    W_served { w_scheme; w_attempts; w_degraded; w_link_stats }
  | 1 ->
    W_unserved
      (Wire.read_list r (fun () ->
           let scheme = Wire.read_string r in
           let failure = read_failure r in
           let attempts = Wire.read_int r in
           (scheme, failure, attempts)))
  | n -> malformed "unknown result tag %d" n

let encode t =
  let w = Wire.writer () in
  (match t with
  | Hello { role; scenario } ->
    Wire.write_int w 0;
    write_party w role;
    Wire.write_string w scenario
  | Hello_ok { scenario } ->
    Wire.write_int w 1;
    Wire.write_string w scenario
  | Busy reason ->
    Wire.write_int w 2;
    Wire.write_string w reason
  | Query { scheme; query; fault_spec; deadline; fallback; trace } ->
    Wire.write_int w 3;
    Wire.write_string w scheme;
    Wire.write_string w query;
    Wire.write_string w fault_spec;
    write_seconds w deadline;
    Wire.write_int w (if fallback then 1 else 0);
    Wire.write_int w (if trace then 1 else 0)
  | Session_start { session; epoch; attempt; scheme; query; fault_spec; trace_id } ->
    Wire.write_int w 4;
    Wire.write_int w session;
    Wire.write_int w epoch;
    Wire.write_int w attempt;
    Wire.write_string w scheme;
    Wire.write_string w query;
    Wire.write_string w fault_spec;
    Wire.write_string w trace_id
  | Report { session; epoch; status; spans } ->
    Wire.write_int w 6;
    Wire.write_int w session;
    Wire.write_int w epoch;
    write_status w status;
    Wire.write_string w spans
  | Abort { session; epoch; failure } ->
    Wire.write_int w 7;
    Wire.write_int w session;
    Wire.write_int w epoch;
    write_failure w failure
  | Session_result { session; result; spans } ->
    Wire.write_int w 8;
    Wire.write_int w session;
    write_result w result;
    Wire.write_list w
      (fun (rm : Trace_wire.remote) ->
        write_party w rm.rm_party;
        (* +1 keeps the on-wire value non-negative (-1 = no parent). *)
        Wire.write_int w (rm.rm_parent + 1);
        Wire.write_string w rm.rm_payload)
      spans
  | Session_end { session } ->
    Wire.write_int w 9;
    Wire.write_int w session
  | Stats_request -> Wire.write_int w 11
  | Stats { payload } ->
    Wire.write_int w 12;
    Wire.write_string w payload
  | Ping -> Wire.write_int w 13
  | Health { h_role; h_draining; h_active } ->
    Wire.write_int w 14;
    write_party w h_role;
    Wire.write_int w (if h_draining then 1 else 0);
    Wire.write_int w h_active
  | Drain { scenario; deadline } ->
    Wire.write_int w 15;
    Wire.write_string w scenario;
    write_seconds w deadline
  | Drain_ok -> Wire.write_int w 16
  | Draining reason ->
    Wire.write_int w 17;
    Wire.write_string w reason
  | Msg_chunk
      { ck_session; ck_epoch; ck_seq; ck_sender; ck_receiver; ck_label; ck_chunk; ck_chunks;
        ck_declared; ck_payload; ck_one_row } ->
    (* A one-row chunk has its own tag and omits the chunk index and
       count, which are always 0 of 1. *)
    if ck_one_row && (ck_chunk, ck_chunks) <> (0, 1) then
      invalid_arg "Frame.encode: a one-row chunk is chunk 0 of 1";
    Wire.write_int w (if ck_one_row then 20 else 18);
    Wire.write_int w ck_session;
    Wire.write_int w ck_epoch;
    Wire.write_int w ck_seq;
    write_party w ck_sender;
    write_party w ck_receiver;
    Wire.write_string w ck_label;
    if not ck_one_row then begin
      Wire.write_int w ck_chunk;
      Wire.write_int w ck_chunks
    end;
    Wire.write_int w ck_declared;
    Wire.write_string w ck_payload
  | Credit { cr_session; cr_epoch; cr_seq; cr_n } ->
    Wire.write_int w 19;
    Wire.write_int w cr_session;
    Wire.write_int w cr_epoch;
    Wire.write_int w cr_seq;
    Wire.write_int w cr_n);
  Wire.contents w

let decode body =
  let r = Wire.reader body in
  let t =
    match Wire.read_int r with
    | 0 ->
      let role = read_party r in
      let scenario = Wire.read_string r in
      Hello { role; scenario }
    | 1 -> Hello_ok { scenario = Wire.read_string r }
    | 2 -> Busy (Wire.read_string r)
    | 3 ->
      let scheme = Wire.read_string r in
      let query = Wire.read_string r in
      let fault_spec = Wire.read_string r in
      let deadline = read_seconds r in
      let fallback = Wire.read_int r <> 0 in
      let trace = Wire.read_int r <> 0 in
      Query { scheme; query; fault_spec; deadline; fallback; trace }
    | 4 ->
      let session = Wire.read_int r in
      let epoch = Wire.read_int r in
      let attempt = Wire.read_int r in
      let scheme = Wire.read_string r in
      let query = Wire.read_string r in
      let fault_spec = Wire.read_string r in
      let trace_id = Wire.read_string r in
      Session_start { session; epoch; attempt; scheme; query; fault_spec; trace_id }
    | 6 ->
      let session = Wire.read_int r in
      let epoch = Wire.read_int r in
      let status = read_status r in
      let spans = Wire.read_string r in
      Report { session; epoch; status; spans }
    | 7 ->
      let session = Wire.read_int r in
      let epoch = Wire.read_int r in
      let failure = read_failure r in
      Abort { session; epoch; failure }
    | 8 ->
      let session = Wire.read_int r in
      let result = read_result r in
      let spans =
        Wire.read_list r (fun () ->
            let rm_party = read_party r in
            let rm_parent = Wire.read_int r - 1 in
            let rm_payload = Wire.read_string r in
            { Trace_wire.rm_party; rm_parent; rm_payload })
      in
      Session_result { session; result; spans }
    | 9 -> Session_end { session = Wire.read_int r }
    | 11 -> Stats_request
    | 12 -> Stats { payload = Wire.read_string r }
    | 13 -> Ping
    | 14 ->
      let h_role = read_party r in
      let h_draining = Wire.read_int r <> 0 in
      let h_active = Wire.read_int r in
      Health { h_role; h_draining; h_active }
    | 15 ->
      let scenario = Wire.read_string r in
      let deadline = read_seconds r in
      Drain { scenario; deadline }
    | 16 -> Drain_ok
    | 17 -> Draining (Wire.read_string r)
    | (18 | 20) as tag ->
      let ck_one_row = tag = 20 in
      let ck_session = Wire.read_int r in
      let ck_epoch = Wire.read_int r in
      let ck_seq = Wire.read_int r in
      let ck_sender = read_party r in
      let ck_receiver = read_party r in
      let ck_label = Wire.read_string r in
      let ck_chunk = if ck_one_row then 0 else Wire.read_int r in
      let ck_chunks = if ck_one_row then 1 else Wire.read_int r in
      if ck_chunks < 0 || ck_chunks > Secmed_core.Stream.max_chunks then
        malformed "chunk count %d exceeds the %d cap" ck_chunks Secmed_core.Stream.max_chunks;
      if ck_chunk < 0 || ck_chunk >= ck_chunks then
        malformed "chunk index %d out of range for %d chunks" ck_chunk ck_chunks;
      let ck_declared = Wire.read_int r in
      let ck_payload = Wire.read_string r in
      Msg_chunk
        { ck_session; ck_epoch; ck_seq; ck_sender; ck_receiver; ck_label; ck_chunk; ck_chunks;
          ck_declared; ck_payload; ck_one_row }
    | 19 ->
      let cr_session = Wire.read_int r in
      let cr_epoch = Wire.read_int r in
      let cr_seq = Wire.read_int r in
      let cr_n = Wire.read_int r in
      Credit { cr_session; cr_epoch; cr_seq; cr_n }
    | n -> malformed "unknown frame tag %d" n
  in
  Wire.expect_end r;
  t

let tag_name = function
  | Hello _ -> "hello"
  | Hello_ok _ -> "hello-ok"
  | Busy _ -> "busy"
  | Query _ -> "query"
  | Session_start _ -> "session-start"
  | Report _ -> "report"
  | Abort _ -> "abort"
  | Session_result _ -> "session-result"
  | Session_end _ -> "session-end"
  | Stats_request -> "stats-request"
  | Stats _ -> "stats"
  | Ping -> "ping"
  | Health _ -> "health"
  | Drain _ -> "drain"
  | Drain_ok -> "drain-ok"
  | Draining _ -> "draining"
  | Msg_chunk _ -> "msg-chunk"
  | Credit _ -> "credit"

let session_of = function
  | Hello _ | Hello_ok _ | Busy _ | Query _ | Stats_request | Stats _ | Ping | Health _
  | Drain _ | Drain_ok | Draining _ -> None
  | Session_start { session; _ }
  | Report { session; _ }
  | Abort { session; _ }
  | Session_result { session; _ }
  | Session_end { session } -> Some session
  | Msg_chunk { ck_session; _ } -> Some ck_session
  | Credit { cr_session; _ } -> Some cr_session
