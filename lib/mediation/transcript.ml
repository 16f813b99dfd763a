type party =
  | Client
  | Mediator
  | Source of int
  | Authority

let party_name = function
  | Client -> "Client"
  | Mediator -> "Mediator"
  | Source i -> Printf.sprintf "Source%d" i
  | Authority -> "CA"

let party_equal (a : party) (b : party) = a = b

type message = {
  seq : int;
  sender : party;
  receiver : party;
  label : string;
  size : int;
}

type note = { at_seq : int; text : string }

type t = {
  mutable rev_messages : message list;
  mutable rev_notes : note list;
  mutable next_seq : int;
  (* Running totals, maintained by [record] so the hot accessors don't
     re-walk the message list on every call. *)
  mutable n_bytes : int;
}

let create () = { rev_messages = []; rev_notes = []; next_seq = 0; n_bytes = 0 }

(* Interned eagerly at module init, like the transport's cells.  The
   histogram observe takes a lock: concurrent sessions record into the
   same cell, and an unsynchronized bucket bump could lose a count. *)
let m_messages = Secmed_obs.Metrics.counter "transcript.messages"
let m_message_bytes = Secmed_obs.Metrics.histogram "transcript.message_bytes"
let m_mu = Mutex.create ()

let record t ~sender ~receiver ~label ~size =
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  t.rev_messages <- { seq; sender; receiver; label; size } :: t.rev_messages;
  t.n_bytes <- t.n_bytes + size;
  if Secmed_obs.Trace.enabled () then
    Secmed_obs.Trace.event "message"
      ~attrs:
        [
          ("from", Secmed_obs.Json.Str (party_name sender));
          ("to", Secmed_obs.Json.Str (party_name receiver));
          ("label", Secmed_obs.Json.Str label);
          ("bytes", Secmed_obs.Json.Int size);
        ];
  Mutex.protect m_mu (fun () ->
      Secmed_obs.Metrics.incr m_messages;
      Secmed_obs.Metrics.observe m_message_bytes (float_of_int size))

let note t text =
  t.rev_notes <- { at_seq = t.next_seq; text } :: t.rev_notes;
  if Secmed_obs.Trace.enabled () then
    Secmed_obs.Trace.event "note" ~attrs:[ ("text", Secmed_obs.Json.Str text) ]

let notes t = List.rev t.rev_notes

let messages t = List.rev t.rev_messages

let message_count t = t.next_seq

let total_bytes t = t.n_bytes

let bytes_on_link t sender receiver =
  List.fold_left
    (fun acc m ->
      if party_equal m.sender sender && party_equal m.receiver receiver then acc + m.size
      else acc)
    0 t.rev_messages

let bytes_sent_by t party =
  List.fold_left
    (fun acc m -> if party_equal m.sender party then acc + m.size else acc)
    0 t.rev_messages

let bytes_received_by t party =
  List.fold_left
    (fun acc m -> if party_equal m.receiver party then acc + m.size else acc)
    0 t.rev_messages

let sends_by t party =
  List.fold_left
    (fun acc m -> if party_equal m.sender party then acc + 1 else acc)
    0 t.rev_messages

let rounds t a b =
  let on_link m =
    (party_equal m.sender a && party_equal m.receiver b)
    || (party_equal m.sender b && party_equal m.receiver a)
  in
  let link_messages = List.filter on_link (messages t) in
  let count, _ =
    List.fold_left
      (fun (count, previous) m ->
        match previous with
        | Some p when party_equal p m.sender -> (count, previous)
        | Some _ | None -> (count + 1, Some m.sender))
      (0, None) link_messages
  in
  count

let parties t =
  List.fold_left
    (fun acc m ->
      let add acc p = if List.exists (party_equal p) acc then acc else acc @ [ p ] in
      add (add acc m.sender) m.receiver)
    [] (messages t)

let labels_seen_by t party =
  List.filter_map
    (fun m -> if party_equal m.receiver party then Some m.label else None)
    (messages t)

let flow_diagram t =
  let ps = Array.of_list (parties t) in
  let n = Array.length ps in
  let position p =
    let rec go i = if party_equal ps.(i) p then i else go (i + 1) in
    go 0
  in
  let col_width = 24 in
  let buf = Buffer.create 1024 in
  let center width s =
    let pad = width - String.length s in
    if pad <= 0 then s
    else String.make (pad / 2) ' ' ^ s ^ String.make (pad - (pad / 2)) ' '
  in
  Array.iter (fun p -> Buffer.add_string buf (center col_width (party_name p))) ps;
  Buffer.add_char buf '\n';
  Array.iter (fun _ -> Buffer.add_string buf (center col_width "|")) ps;
  Buffer.add_char buf '\n';
  List.iter
    (fun m ->
      let a = position m.sender and b = position m.receiver in
      let lo = Stdlib.min a b and hi = Stdlib.max a b in
      let annotation = Printf.sprintf "%s (%dB)" m.label m.size in
      let line = Bytes.make (n * col_width) ' ' in
      for i = 0 to n - 1 do
        Bytes.set line ((i * col_width) + (col_width / 2)) '|'
      done;
      let start = (lo * col_width) + (col_width / 2) + 1 in
      let stop = (hi * col_width) + (col_width / 2) - 1 in
      for i = start to stop do
        Bytes.set line i '-'
      done;
      if a < b then Bytes.set line stop '>' else Bytes.set line start '<';
      (* Fit the annotation between the arrow ends, eliding the tail when
         the span is too narrow. *)
      let available = stop - start - 2 in
      let annotation =
        if String.length annotation <= available then annotation
        else if available <= 2 then ""
        else String.sub annotation 0 (available - 2) ^ ".."
      in
      let label_start = start + 1 + ((available - String.length annotation) / 2) in
      String.iteri
        (fun i c ->
          let pos = label_start + i in
          if pos > start && pos < stop then Bytes.set line pos c)
        annotation;
      Buffer.add_string buf (Bytes.to_string line);
      Buffer.add_char buf '\n')
    (messages t);
  Buffer.contents buf

let summary t =
  let links = Hashtbl.create 8 in
  let order = ref [] in
  List.iter
    (fun m ->
      let key = (m.sender, m.receiver) in
      match Hashtbl.find_opt links key with
      | Some (count, bytes) -> Hashtbl.replace links key (count + 1, bytes + m.size)
      | None ->
        Hashtbl.add links key (1, m.size);
        order := key :: !order)
    (messages t);
  let buf = Buffer.create 256 in
  List.iter
    (fun ((sender, receiver) as key) ->
      let count, bytes = Hashtbl.find links key in
      Buffer.add_string buf
        (Printf.sprintf "%-10s -> %-10s : %3d message%s %8d bytes\n" (party_name sender)
           (party_name receiver) count
           (if count = 1 then ", " else "s,")
           bytes))
    (List.rev !order);
  Buffer.add_string buf
    (Printf.sprintf "total: %d messages, %d bytes\n" (message_count t) (total_bytes t));
  List.iter
    (fun n -> Buffer.add_string buf (Printf.sprintf "note (seq %d): %s\n" n.at_seq n.text))
    (notes t);
  Buffer.contents buf
