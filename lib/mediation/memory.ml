(* The sender and the receiver of a delivery are the same call of
   [Link], so one slot holds the delivery in flight: its sequence
   number, declared size, the framed original with its payload, and the
   copies that travelled. *)
let transport ?(after_io = fun ~phase:_ -> ()) () =
  let slot = ref None in
  let send_rows ~phase ~seq ~sender:_ ~receiver ~label ~size ?(damage = fun p -> [ p ]) rows =
    let payload = String.concat "" (List.map snd rows) in
    let framed = Fault.frame ~label payload in
    (match damage framed with
    | [] -> Fault.lost ~phase ~receiver ~label
    | copies -> slot := Some (seq, size, framed, payload, copies));
    after_io ~phase
  in
  (* The first copy at [seq] must pass its tag check.  The framed
     original passes it by construction, so only a damaged copy is
     hashed again; a replayed copy is discarded unread. *)
  let read ~phase ~seq ~receiver ~label =
    let taken = !slot in
    slot := None;
    match taken with
    | Some (s, declared, framed, payload, copy :: _) when s = seq -> (
      match if copy == framed then Ok payload else Fault.unframe ~label copy with
      | Ok payload ->
        after_io ~phase;
        (declared, payload)
      | Error reason ->
        Fault.fail ~phase ~party:receiver (Printf.sprintf "%s rejected: %s" label reason))
    | _ -> Fault.lost ~phase ~receiver ~label
  in
  let recv_rows ~phase ~seq ~sender:_ ~receiver ~label ~size:_ ~expect =
    let _, payload = read ~phase ~seq ~receiver ~label in
    if not (String.equal payload (String.concat "" (List.map snd expect))) then
      Fault.fail ~phase ~party:receiver (label ^ " rejected: wire payload mismatch")
  in
  let take_rows ~phase ~seq ~sender:_ ~receiver ~label = read ~phase ~seq ~receiver ~label in
  let every_party _ = true in
  {
    Link.speaks = every_party;
    computes = every_party;
    rows = Some { Link.send_rows; recv_rows; take_rows };
  }
