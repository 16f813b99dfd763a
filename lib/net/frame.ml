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
   at (session, epoch, seq), its payload packed by [pack].  [declared]
   repeats the whole stream's transcript size on every chunk so any one
   frame identifies the delivery it belongs to. *)
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

(* Frame's own codec.  Every int is a canonical unsigned LEB128 varint
   (7 bits a byte, low group first, the high bit set on every byte but
   the last), so the small ints a header carries take a byte each; a
   string is its varint length and its bytes, a list its varint count
   and its elements.  Transcript payloads keep Wire's fixed-width ints:
   this codec carries them and never sizes them. *)
let write_int w v =
  if v < 0 then invalid_arg (Printf.sprintf "Frame.encode: negative int %d" v);
  let rec go v =
    if v < 0x80 then Buffer.add_char w (Char.chr v)
    else begin
      Buffer.add_char w (Char.chr (v land 0x7f lor 0x80));
      go (v lsr 7)
    end
  in
  go v

let write_bool w b = write_int w (if b then 1 else 0)

let write_string w s =
  write_int w (String.length s);
  Buffer.add_string w s

let write_list w write_elem items =
  write_int w (List.length items);
  List.iter write_elem items

type reader = { data : string; mutable pos : int }

let remaining r = String.length r.data - r.pos

(* Exactly what [write_int] produces: no zero final group after the
   first byte, at most nine bytes, nothing above [max_int]. *)
let read_int r =
  let rec go shift acc =
    if r.pos >= String.length r.data then malformed "truncated varint at offset %d" r.pos;
    let c = Char.code r.data.[r.pos] in
    r.pos <- r.pos + 1;
    let acc = acc lor ((c land 0x7f) lsl shift) in
    if c >= 0x80 then
      if shift = 56 then malformed "varint longer than 9 bytes" else go (shift + 7) acc
    else if c = 0 && shift > 0 then malformed "non-canonical varint"
    else if shift = 56 && c > max_int lsr 56 then malformed "varint above max_int"
    else acc
  in
  go 0 0

let read_bool r =
  match read_int r with 0 -> false | 1 -> true | n -> malformed "flag %d is not 0 or 1" n

let read_string r =
  let n = read_int r in
  if n > remaining r then malformed "%d-byte string with %d bytes left" n (remaining r);
  let s = String.sub r.data r.pos n in
  r.pos <- r.pos + n;
  s

(* Every element takes a byte at least, so a count above the bytes left
   is rejected before it can drive an allocation. *)
let read_list r read_elem =
  let n = read_int r in
  if n > remaining r then malformed "list count %d exceeds the %d bytes left" n (remaining r);
  List.init n (fun _ -> read_elem ())

let write_party w = function
  | Transcript.Client -> write_int w 0
  | Transcript.Mediator -> write_int w 1
  | Transcript.Authority -> write_int w 2
  | Transcript.Source i ->
    write_int w 3;
    write_int w i

let read_party r =
  match read_int r with
  | 0 -> Transcript.Client
  | 1 -> Transcript.Mediator
  | 2 -> Transcript.Authority
  | 3 -> Transcript.Source (read_int r)
  | n -> malformed "unknown party tag %d" n

(* Deadlines travel as milliseconds so the codec never has to round-trip
   a float bit pattern through a 63-bit int. *)
let write_seconds w f = write_int w (int_of_float (Float.round (f *. 1000.)))
let read_seconds r = float_of_int (read_int r) /. 1000.

let write_failure w (f : Fault.failure) =
  write_string w f.Fault.phase;
  write_party w f.Fault.party;
  write_string w f.Fault.reason

let read_failure r =
  let phase = read_string r in
  let party = read_party r in
  let reason = read_string r in
  { Fault.phase; party; reason }

let write_status w = function
  | St_ok -> write_int w 0
  | St_failed f ->
    write_int w 1;
    write_failure w f
  | St_aborted -> write_int w 2

let read_status r =
  match read_int r with
  | 0 -> St_ok
  | 1 -> St_failed (read_failure r)
  | 2 -> St_aborted
  | n -> malformed "unknown status tag %d" n

let write_result w = function
  | W_served { w_scheme; w_attempts; w_degraded; w_link_stats } ->
    write_int w 0;
    write_string w w_scheme;
    write_int w w_attempts;
    (match w_degraded with
    | None -> write_int w 0
    | Some (from_scheme, reason) ->
      write_int w 1;
      write_string w from_scheme;
      write_string w reason);
    write_list w
      (fun (party, sent, received) ->
        write_party w party;
        write_int w sent;
        write_int w received)
      w_link_stats
  | W_unserved tried ->
    write_int w 1;
    write_list w
      (fun (scheme, failure, attempts) ->
        write_string w scheme;
        write_failure w failure;
        write_int w attempts)
      tried

let read_result r =
  match read_int r with
  | 0 ->
    let w_scheme = read_string r in
    let w_attempts = read_int r in
    let w_degraded =
      match read_int r with
      | 0 -> None
      | 1 ->
        let from_scheme = read_string r in
        let reason = read_string r in
        Some (from_scheme, reason)
      | n -> malformed "unknown degraded tag %d" n
    in
    let w_link_stats =
      read_list r (fun () ->
          let party = read_party r in
          let sent = read_int r in
          let received = read_int r in
          (party, sent, received))
    in
    W_served { w_scheme; w_attempts; w_degraded; w_link_stats }
  | 1 ->
    W_unserved
      (read_list r (fun () ->
           let scheme = read_string r in
           let failure = read_failure r in
           let attempts = read_int r in
           (scheme, failure, attempts)))
  | n -> malformed "unknown result tag %d" n

let encode t =
  let w = Buffer.create 64 in
  (match t with
  | Hello { role; scenario } ->
    write_int w 0;
    write_party w role;
    write_string w scenario
  | Hello_ok { scenario } ->
    write_int w 1;
    write_string w scenario
  | Busy reason ->
    write_int w 2;
    write_string w reason
  | Query { scheme; query; fault_spec; deadline; fallback; trace } ->
    write_int w 3;
    write_string w scheme;
    write_string w query;
    write_string w fault_spec;
    write_seconds w deadline;
    write_bool w fallback;
    write_bool w trace
  | Session_start { session; epoch; attempt; scheme; query; fault_spec; trace_id } ->
    write_int w 4;
    write_int w session;
    write_int w epoch;
    write_int w attempt;
    write_string w scheme;
    write_string w query;
    write_string w fault_spec;
    write_string w trace_id
  | Report { session; epoch; status; spans } ->
    write_int w 6;
    write_int w session;
    write_int w epoch;
    write_status w status;
    write_string w spans
  | Abort { session; epoch; failure } ->
    write_int w 7;
    write_int w session;
    write_int w epoch;
    write_failure w failure
  | Session_result { session; result; spans } ->
    write_int w 8;
    write_int w session;
    write_result w result;
    write_list w
      (fun (rm : Trace_wire.remote) ->
        write_party w rm.rm_party;
        (* +1 keeps the on-wire value non-negative (-1 = no parent). *)
        write_int w (rm.rm_parent + 1);
        write_string w rm.rm_payload)
      spans
  | Session_end { session } ->
    write_int w 9;
    write_int w session
  | Stats_request -> write_int w 11
  | Stats { payload } ->
    write_int w 12;
    write_string w payload
  | Ping -> write_int w 13
  | Health { h_role; h_draining; h_active } ->
    write_int w 14;
    write_party w h_role;
    write_bool w h_draining;
    write_int w h_active
  | Drain { scenario; deadline } ->
    write_int w 15;
    write_string w scenario;
    write_seconds w deadline
  | Drain_ok -> write_int w 16
  | Draining reason ->
    write_int w 17;
    write_string w reason
  | Msg_chunk
      { ck_session; ck_epoch; ck_seq; ck_sender; ck_receiver; ck_label; ck_chunk; ck_chunks;
        ck_declared; ck_payload } ->
    write_int w 18;
    write_int w ck_session;
    write_int w ck_epoch;
    write_int w ck_seq;
    write_party w ck_sender;
    write_party w ck_receiver;
    write_string w ck_label;
    write_int w ck_chunk;
    write_int w ck_chunks;
    write_int w ck_declared;
    write_string w ck_payload
  | Credit { cr_session; cr_epoch; cr_seq; cr_n } ->
    write_int w 19;
    write_int w cr_session;
    write_int w cr_epoch;
    write_int w cr_seq;
    write_int w cr_n);
  Buffer.contents w

let max_chunks = 1 lsl 20

let decode body =
  let r = { data = body; pos = 0 } in
  let t =
    match read_int r with
    | 0 ->
      let role = read_party r in
      let scenario = read_string r in
      Hello { role; scenario }
    | 1 -> Hello_ok { scenario = read_string r }
    | 2 -> Busy (read_string r)
    | 3 ->
      let scheme = read_string r in
      let query = read_string r in
      let fault_spec = read_string r in
      let deadline = read_seconds r in
      let fallback = read_bool r in
      let trace = read_bool r in
      Query { scheme; query; fault_spec; deadline; fallback; trace }
    | 4 ->
      let session = read_int r in
      let epoch = read_int r in
      let attempt = read_int r in
      let scheme = read_string r in
      let query = read_string r in
      let fault_spec = read_string r in
      let trace_id = read_string r in
      Session_start { session; epoch; attempt; scheme; query; fault_spec; trace_id }
    | 6 ->
      let session = read_int r in
      let epoch = read_int r in
      let status = read_status r in
      let spans = read_string r in
      Report { session; epoch; status; spans }
    | 7 ->
      let session = read_int r in
      let epoch = read_int r in
      let failure = read_failure r in
      Abort { session; epoch; failure }
    | 8 ->
      let session = read_int r in
      let result = read_result r in
      let spans =
        read_list r (fun () ->
            let rm_party = read_party r in
            let rm_parent = read_int r - 1 in
            let rm_payload = read_string r in
            { Trace_wire.rm_party; rm_parent; rm_payload })
      in
      Session_result { session; result; spans }
    | 9 -> Session_end { session = read_int r }
    | 11 -> Stats_request
    | 12 -> Stats { payload = read_string r }
    | 13 -> Ping
    | 14 ->
      let h_role = read_party r in
      let h_draining = read_bool r in
      let h_active = read_int r in
      Health { h_role; h_draining; h_active }
    | 15 ->
      let scenario = read_string r in
      let deadline = read_seconds r in
      Drain { scenario; deadline }
    | 16 -> Drain_ok
    | 17 -> Draining (read_string r)
    | 18 ->
      let ck_session = read_int r in
      let ck_epoch = read_int r in
      let ck_seq = read_int r in
      let ck_sender = read_party r in
      let ck_receiver = read_party r in
      let ck_label = read_string r in
      let ck_chunk = read_int r in
      let ck_chunks = read_int r in
      if ck_chunks > max_chunks then
        malformed "chunk count %d exceeds the %d cap" ck_chunks max_chunks;
      if ck_chunk >= ck_chunks then
        malformed "chunk index %d out of range for %d chunks" ck_chunk ck_chunks;
      let ck_declared = read_int r in
      let ck_payload = read_string r in
      Msg_chunk
        { ck_session; ck_epoch; ck_seq; ck_sender; ck_receiver; ck_label; ck_chunk; ck_chunks;
          ck_declared; ck_payload }
    | 19 ->
      let cr_session = read_int r in
      let cr_epoch = read_int r in
      let cr_seq = read_int r in
      let cr_n = read_int r in
      Credit { cr_session; cr_epoch; cr_seq; cr_n }
    | n -> malformed "unknown frame tag %d" n
  in
  if remaining r > 0 then malformed "%d trailing bytes at offset %d" (remaining r) r.pos;
  t

let chunk_bytes = 65536

(* A chunk's payload: its rows as a Wire list of strings (4-byte count,
   then each row's 4-byte length and bytes) behind the [Fault.frame]
   tag over (label, rows).  No row carries an index: a row's index is
   its position in the stream. *)
let pack ~label rows =
  let w = Wire.writer () in
  Wire.write_list w (Wire.write_string w) rows;
  Fault.frame ~label (Wire.contents w)

let unpack c =
  match Fault.unframe ~label:c.ck_label c.ck_payload with
  | Error _ as e -> e
  | Ok payload -> (
    let r = Wire.reader payload in
    match Wire.read_list r (fun () -> Wire.read_string r) with
    | rows when Wire.at_end r -> Ok rows
    | _ -> Error "malformed rows: trailing bytes"
    | exception Wire.Malformed m -> Error ("malformed rows: " ^ m))

let row_bytes c =
  let rest = String.length c.ck_payload - 4 - Fault.tag_bytes in
  if rest < 0 then 0
  else max 0 (rest - (4 * Secmed_crypto.Bytes_util.read_be32 c.ck_payload 0))

(* Batches of at most [chunk_bytes] of payload, a larger row alone. *)
let plan rows =
  let flush acc batch = List.rev batch :: acc in
  let rec go acc batch used = function
    | [] -> List.rev (flush acc batch)
    | row :: rest ->
      let cost = 4 + String.length row in
      if batch <> [] && used + cost > chunk_bytes then go (flush acc batch) [ row ] cost rest
      else go acc (row :: batch) (used + cost) rest
  in
  go [] [] 0 rows

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
