type rows_transport = {
  send_rows :
    phase:string ->
    seq:int ->
    sender:Transcript.party ->
    receiver:Transcript.party ->
    label:string ->
    size:int ->
    ?damage:(string -> string list) ->
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
  speaks : Transcript.party -> bool;
  computes : Transcript.party -> bool;
  rows : rows_transport option;
}

type t = {
  transport : transport;
  rt : rows_transport;
  fault : Fault.plan option;
  transcript : Transcript.t;
  mutable seq : int;
  mutable lost : bool;  (* a damaging fault was chosen: this attempt fails *)
}

let make ~transport ?fault transcript =
  match transport.rows with
  | Some rt -> { transport; rt; fault; transcript; seq = 0; lost = false }
  | None -> invalid_arg "Link.make: a transport carries rows"

let computes t party = t.transport.computes party

let next_seq t =
  t.seq <- t.seq + 1;
  t.seq - 1

(* The fault choice for one delivery, made in every process from the
   addressing and the plan's state alone, and noted.  Only a sending
   transport acts on it, through [damage].  A damaging choice fails the
   attempt wherever its bytes go, so a process that carries on past it
   makes no further choice in the attempt — as a run in one process,
   which fails right there, makes none — and every process consumes the
   plan's rules alike. *)
let choose t ~guard ~sender ~receiver ~label =
  match t.fault with
  | Some plan when guard && not t.lost ->
    Option.map
      (fun action ->
        Fault.note plan t.transcript ~sender ~receiver ~label action;
        t.lost <- (match action with Fault.Duplicate | Delay _ -> false | _ -> true);
        (plan, action))
      (Fault.select plan ~sender ~receiver ~label)
  | _ -> None

(* A process that knows the delivery's size accounts for the replayed
   copy a [Duplicate] sends. *)
let account_replay t ~sender ~receiver ~label ~size = function
  | Some (_, Fault.Duplicate) ->
    Transcript.record t.transcript ~sender ~receiver ~label:(label ^ "(dup)") ~size
  | _ -> ()

(* Every delivery is a row stream: same transcript entry, fault choice,
   sequence slot and declared size whatever the rows, so every
   transport agrees message for message. *)
let deliver_rows t ~phase ~sender ~receiver ~label ~guard ~size rows =
  Transcript.record t.transcript ~sender ~receiver ~label ~size;
  let verdict = choose t ~guard ~sender ~receiver ~label in
  account_replay t ~sender ~receiver ~label ~size verdict;
  let seq = next_seq t and speaks = t.transport.speaks in
  if speaks sender || speaks receiver then begin
    let indexed = List.mapi (fun i b -> (i, b)) (rows ()) in
    let total = List.fold_left (fun acc (_, b) -> acc + String.length b) 0 indexed in
    (* The wire always carries at least [size] bytes: a modelled size
       above the materialised bytes (e.g. attached credentials) travels
       as zero bytes appended to the last row (a row of its own when
       there is none), so the socket-level byte count equals the
       transcript entry and a padded scalar message is still one row. *)
    let indexed =
      if total >= size then indexed
      else
        let pad = String.make (size - total) '\000' in
        match List.rev indexed with
        | [] -> [ (0, pad) ]
        | (i, last) :: rest -> List.rev ((i, last ^ pad) :: rest)
    in
    if speaks sender then
      t.rt.send_rows ~phase ~seq ~sender ~receiver ~label ~size
        ?damage:(Option.map (fun (plan, action) -> Fault.damage plan action) verdict)
        indexed;
    if speaks receiver then
      t.rt.recv_rows ~phase ~seq ~sender ~receiver ~label ~size ~expect:indexed
  end

(* This process plays [receiver] without having computed the message:
   the bytes are all it has.  The frame's declared size is what the
   transcript records — the bytes must match it exactly — and hostile
   bytes fail typed at the receiver, never as an escaped decoder
   exception. *)
let receive t ~phase ~sender ~receiver ~label ~guard ~decode =
  let verdict = choose t ~guard ~sender ~receiver ~label in
  let declared, payload = t.rt.take_rows ~phase ~seq:(next_seq t) ~sender ~receiver ~label in
  if String.length payload <> declared then
    Fault.fail ~phase ~party:receiver
      (Printf.sprintf "%s rejected: %d bytes received, %d declared" label
         (String.length payload) declared);
  Transcript.record t.transcript ~sender ~receiver ~label ~size:declared;
  account_replay t ~sender ~receiver ~label ~size:declared verdict;
  match decode payload with
  | value -> value
  | exception (Wire.Malformed msg | Invalid_argument msg) ->
    Fault.fail ~phase ~party:receiver
      (Printf.sprintf "%s rejected: malformed payload: %s" label msg)

let exchange_rows t ~phase ~sender ~receiver ~label ?(guard = true) ~size ~rows ~decode value =
  match value with
  | Some v ->
    deliver_rows t ~phase ~sender ~receiver ~label ~guard ~size:(size v) (fun () -> rows v);
    value
  | None when t.transport.speaks sender ->
    invalid_arg ("Link.exchange: the sender has no value for " ^ label)
  | None when t.transport.speaks receiver ->
    Some (receive t ~phase ~sender ~receiver ~label ~guard ~decode)
  | None ->
    ignore (choose t ~guard ~sender ~receiver ~label);
    ignore (next_seq t);
    None

let exchange t ~phase ~sender ~receiver ~label ?guard ~size ~encode ~decode value =
  exchange_rows t ~phase ~sender ~receiver ~label ?guard ~size
    ~rows:(fun v -> [ encode v ])
    ~decode value
