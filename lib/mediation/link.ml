type rows_transport = {
  send_rows :
    phase:string ->
    seq:int ->
    sender:Transcript.party ->
    receiver:Transcript.party ->
    label:string ->
    size:int ->
    (int * string) list ->
    unit;
  recv_rows :
    phase:string ->
    seq:int ->
    sender:Transcript.party ->
    receiver:Transcript.party ->
    label:string ->
    size:int ->
    expect:(int * string) list ->
    unit;
  take_rows :
    phase:string ->
    seq:int ->
    sender:Transcript.party ->
    receiver:Transcript.party ->
    label:string ->
    int * string;
}

type transport = {
  role : Transcript.party;
  computes : Transcript.party -> bool;
  send :
    phase:string ->
    seq:int ->
    sender:Transcript.party ->
    receiver:Transcript.party ->
    label:string ->
    size:int ->
    string ->
    unit;
  recv :
    phase:string ->
    seq:int ->
    sender:Transcript.party ->
    receiver:Transcript.party ->
    label:string ->
    int * string;
  rows : rows_transport option;
}

type endpoint = Inproc | Remote of transport

type t = {
  endpoint : endpoint;
  fault : Fault.plan option;
  transcript : Transcript.t;
  mutable seq : int;
}

let make ?(endpoint = Inproc) ?fault transcript = { endpoint; fault; transcript; seq = 0 }

let computes t party = match t.endpoint with Inproc -> true | Remote tr -> tr.computes party

let next_seq t =
  let seq = t.seq in
  t.seq <- seq + 1;
  seq

(* The wire always carries at least [size] bytes: messages whose modelled
   size includes bytes the prototype never materialises (e.g. attached
   credentials) are zero-padded, so the socket-level byte count equals
   the transcript entry.  Both sides compute the same padded frame, so
   the receiver-side equality check is unaffected. *)
let padded payload size =
  let n = String.length payload in
  if n >= size then payload else payload ^ String.make (size - n) '\000'

let record t ~sender ~receiver ~label size =
  Transcript.record t.transcript ~sender ~receiver ~label ~size

(* The fault verdict for one delivery: chosen from the addressing and
   the plan's state alone, so every process draws the same one whether
   or not it holds the payload. *)
let select t ~guard ~sender ~receiver ~label =
  match t.fault with
  | Some plan when guard ->
    Option.map (fun action -> (plan, action)) (Fault.select plan ~sender ~receiver ~label)
  | _ -> None

let apply t ~phase ~sender ~receiver ~label ~size = function
  | None -> ()
  | Some (plan, action) ->
    Fault.apply plan t.transcript ~phase ~sender ~receiver ~label ~size action

let deliver t ~phase ~sender ~receiver ~label ?(guard = true) ?size payload =
  (* Forced only when bytes must cross the wire (or no size was
     declared): an in-process link never materialises the payload. *)
  let payload = lazy (payload ()) in
  let size = match size with Some s -> s | None -> String.length (Lazy.force payload) in
  record t ~sender ~receiver ~label size;
  apply t ~phase ~sender ~receiver ~label ~size:(Some size)
    (select t ~guard ~sender ~receiver ~label);
  match t.endpoint with
  | Inproc -> ()
  | Remote tr ->
    let seq = next_seq t in
    if Transcript.party_equal tr.role sender then
      tr.send ~phase ~seq ~sender ~receiver ~label ~size (padded (Lazy.force payload) size)
    else if Transcript.party_equal tr.role receiver then begin
      let _, received = tr.recv ~phase ~seq ~sender ~receiver ~label in
      let computed = padded (Lazy.force payload) size in
      if not (String.equal received computed) then
        Fault.fail ~phase ~party:receiver
          (Printf.sprintf "%s rejected: wire payload mismatch (%d bytes received, %d computed)"
             label (String.length received) (String.length computed))
    end

(* Row-wise delivery: same transcript entry, same fault verdict, same
   sequence slot, same declared size as [deliver] of the concatenated
   rows — the scalar and streamed encodings of a message are
   interchangeable at every layer above the transport.  The streamed
   path engages on every remote link whose transport implements it; the
   verdict never reads the payload, so a fault plan runs the same
   [select]/[apply] here as in [deliver]. *)
let deliver_rows t ~phase ~sender ~receiver ~label ?(guard = true) ~size rows =
  match t.endpoint with
  | Remote ({ rows = Some rt; _ } as tr) ->
    record t ~sender ~receiver ~label size;
    apply t ~phase ~sender ~receiver ~label ~size:(Some size)
      (select t ~guard ~sender ~receiver ~label);
    let seq = next_seq t in
    let indexed () =
      let indexed = List.mapi (fun i b -> (i, b)) (rows ()) in
      let total = List.fold_left (fun acc (_, b) -> acc + String.length b) 0 indexed in
      (* Mirror [padded]: a declared size above the materialised bytes
         travels as one trailing zero-filled row. *)
      if total < size then indexed @ [ (List.length indexed, String.make (size - total) '\000') ]
      else indexed
    in
    if Transcript.party_equal tr.role sender then
      rt.send_rows ~phase ~seq ~sender ~receiver ~label ~size (indexed ())
    else if Transcript.party_equal tr.role receiver then
      rt.recv_rows ~phase ~seq ~sender ~receiver ~label ~size ~expect:(indexed ())
  | _ ->
    deliver t ~phase ~sender ~receiver ~label ~guard ~size (fun () ->
        String.concat "" (rows ()))

(* This process plays [receiver] without having computed the message:
   the bytes are all it has.  A failing verdict fires before the frame
   is awaited (the sender, reaching the same verdict, never sends it);
   otherwise the frame's declared size is what the transcript records,
   and hostile bytes fail typed at the receiver, never as an escaped
   decoder exception. *)
let receive t ~phase ~sender ~receiver ~label ~guard ~decode take =
  let verdict = select t ~guard ~sender ~receiver ~label in
  (match verdict with
  | Some (_, action) when Fault.fails action ->
    apply t ~phase ~sender ~receiver ~label ~size:None verdict
  | _ -> ());
  let declared, payload = take ~seq:(next_seq t) in
  if String.length payload < declared then
    Fault.fail ~phase ~party:receiver
      (Printf.sprintf "%s rejected: %d bytes received, %d declared" label
         (String.length payload) declared);
  record t ~sender ~receiver ~label declared;
  apply t ~phase ~sender ~receiver ~label ~size:(Some declared) verdict;
  match decode payload with
  | value -> value
  | exception (Wire.Malformed msg | Invalid_argument msg) ->
    Fault.fail ~phase ~party:receiver
      (Printf.sprintf "%s rejected: malformed payload: %s" label msg)

let project t ~phase ~sender ~receiver ~label ~guard ~decode ~take ~send value =
  match (value, t.endpoint) with
  | Some v, _ ->
    send v;
    value
  | None, Inproc -> invalid_arg "Link.exchange: an in-process link computes every party"
  | None, Remote tr when Transcript.party_equal tr.role sender ->
    invalid_arg ("Link.exchange: the sender has no value for " ^ label)
  | None, Remote tr when Transcript.party_equal tr.role receiver ->
    Some (receive t ~phase ~sender ~receiver ~label ~guard ~decode (take tr))
  | None, Remote _ ->
    apply t ~phase ~sender ~receiver ~label ~size:None (select t ~guard ~sender ~receiver ~label);
    ignore (next_seq t);
    None

let exchange t ~phase ~sender ~receiver ~label ?(guard = true) ~size ~encode ~decode value =
  project t ~phase ~sender ~receiver ~label ~guard ~decode value
    ~send:(fun v ->
      deliver t ~phase ~sender ~receiver ~label ~guard ~size:(size v) (fun () -> encode v))
    ~take:(fun tr ~seq -> tr.recv ~phase ~seq ~sender ~receiver ~label)

let exchange_rows t ~phase ~sender ~receiver ~label ?(guard = true) ~size ~rows ~decode value =
  project t ~phase ~sender ~receiver ~label ~guard ~decode value
    ~send:(fun v ->
      deliver_rows t ~phase ~sender ~receiver ~label ~guard ~size:(size v) (fun () -> rows v))
    ~take:(fun tr ~seq ->
      (* The branch [deliver_rows] took at the sender. *)
      match tr.rows with
      | Some rt -> rt.take_rows ~phase ~seq ~sender ~receiver ~label
      | None -> tr.recv ~phase ~seq ~sender ~receiver ~label)
