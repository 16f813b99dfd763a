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
  rows : rows_transport option;
}

type endpoint = Inproc | Remote of transport

type t = {
  remote : (transport * rows_transport) option;  (* [None]: in-process *)
  fault : Fault.plan option;
  transcript : Transcript.t;
  mutable seq : int;
}

let make ?(endpoint = Inproc) ?fault transcript =
  let remote =
    match endpoint with
    | Inproc -> None
    | Remote ({ rows = Some rt; _ } as tr) -> Some (tr, rt)
    | Remote { rows = None; _ } -> invalid_arg "Link.make: a remote transport carries rows"
  in
  { remote; fault; transcript; seq = 0 }

let computes t party = match t.remote with None -> true | Some (tr, _) -> tr.computes party

let next_seq t =
  let seq = t.seq in
  t.seq <- seq + 1;
  seq

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

(* Every remote delivery is a row stream: same transcript entry, fault
   verdict, sequence slot and declared size whatever the rows, so the
   in-process run and the wire agree message for message.  The verdict
   never reads the payload, and an in-process link never materialises
   it. *)
let deliver_rows t ~phase ~sender ~receiver ~label ~guard ~size rows =
  Transcript.record t.transcript ~sender ~receiver ~label ~size;
  apply t ~phase ~sender ~receiver ~label ~size:(Some size)
    (select t ~guard ~sender ~receiver ~label);
  match t.remote with
  | None -> ()
  | Some (tr, rt) ->
    let seq = next_seq t in
    let indexed () =
      let indexed = List.mapi (fun i b -> (i, b)) (rows ()) in
      let total = List.fold_left (fun acc (_, b) -> acc + String.length b) 0 indexed in
      (* The wire always carries at least [size] bytes: a modelled size
         above the materialised bytes (e.g. attached credentials) travels
         as zero bytes appended to the last row (a row of its own when
         there is none), so the socket-level byte count equals the
         transcript entry and a padded scalar message is still one
         row. *)
      if total >= size then indexed
      else
        let pad = String.make (size - total) '\000' in
        match List.rev indexed with
        | [] -> [ (0, pad) ]
        | (i, last) :: rest -> List.rev ((i, last ^ pad) :: rest)
    in
    if Transcript.party_equal tr.role sender then
      rt.send_rows ~phase ~seq ~sender ~receiver ~label ~size (indexed ())
    else if Transcript.party_equal tr.role receiver then
      rt.recv_rows ~phase ~seq ~sender ~receiver ~label ~size ~expect:(indexed ())

(* This process plays [receiver] without having computed the message:
   the bytes are all it has.  A failing verdict fires before the frame
   is awaited (the sender, reaching the same verdict, never sends it);
   otherwise the frame's declared size is what the transcript records —
   the bytes must match it exactly — and hostile bytes fail typed at
   the receiver, never as an escaped decoder exception. *)
let receive t rt ~phase ~sender ~receiver ~label ~guard ~decode =
  let verdict = select t ~guard ~sender ~receiver ~label in
  (match verdict with
  | Some (_, action) when Fault.fails action ->
    apply t ~phase ~sender ~receiver ~label ~size:None verdict
  | _ -> ());
  let declared, payload = rt.take_rows ~phase ~seq:(next_seq t) ~sender ~receiver ~label in
  if String.length payload <> declared then
    Fault.fail ~phase ~party:receiver
      (Printf.sprintf "%s rejected: %d bytes received, %d declared" label
         (String.length payload) declared);
  Transcript.record t.transcript ~sender ~receiver ~label ~size:declared;
  apply t ~phase ~sender ~receiver ~label ~size:(Some declared) verdict;
  match decode payload with
  | value -> value
  | exception (Wire.Malformed msg | Invalid_argument msg) ->
    Fault.fail ~phase ~party:receiver
      (Printf.sprintf "%s rejected: malformed payload: %s" label msg)

let exchange_rows t ~phase ~sender ~receiver ~label ?(guard = true) ~size ~rows ~decode value =
  match (value, t.remote) with
  | Some v, _ ->
    deliver_rows t ~phase ~sender ~receiver ~label ~guard ~size:(size v) (fun () -> rows v);
    value
  | None, None -> invalid_arg "Link.exchange: an in-process link computes every party"
  | None, Some (tr, _) when Transcript.party_equal tr.role sender ->
    invalid_arg ("Link.exchange: the sender has no value for " ^ label)
  | None, Some (tr, rt) when Transcript.party_equal tr.role receiver ->
    Some (receive t rt ~phase ~sender ~receiver ~label ~guard ~decode)
  | None, Some _ ->
    apply t ~phase ~sender ~receiver ~label ~size:None (select t ~guard ~sender ~receiver ~label);
    ignore (next_seq t);
    None

let exchange t ~phase ~sender ~receiver ~label ?guard ~size ~encode ~decode value =
  exchange_rows t ~phase ~sender ~receiver ~label ?guard ~size
    ~rows:(fun v -> [ encode v ])
    ~decode value
