open Secmed_crypto

type action =
  | Drop
  | Truncate of int
  | Corrupt of int
  | Duplicate
  | Delay of float

let action_name = function
  | Drop -> "drop"
  | Truncate n -> Printf.sprintf "truncate(%d)" n
  | Corrupt n -> Printf.sprintf "corrupt(%d)" n
  | Duplicate -> "duplicate"
  | Delay s -> Printf.sprintf "delay(%.3fs)" s

type byzantine_mode =
  | Malformed_ciphertexts
  | Wrong_partition_ids
  | Stale_commutative_key
  | Garbage_paillier

let mode_name = function
  | Malformed_ciphertexts -> "malformed-ciphertexts"
  | Wrong_partition_ids -> "wrong-partition-ids"
  | Stale_commutative_key -> "stale-commutative-key"
  | Garbage_paillier -> "garbage-paillier"

let mode_of_name = function
  | "malformed-ciphertexts" -> Some Malformed_ciphertexts
  | "wrong-partition-ids" -> Some Wrong_partition_ids
  | "stale-commutative-key" -> Some Stale_commutative_key
  | "garbage-paillier" -> Some Garbage_paillier
  | _ -> None

type rule = {
  rule_sender : Transcript.party option;
  rule_receiver : Transcript.party option;
  rule_label : string option;
  rule_action : action;
  mutable remaining : int;
}

let rule ?sender ?receiver ?label ?(times = max_int) action =
  {
    rule_sender = sender;
    rule_receiver = receiver;
    rule_label = label;
    rule_action = action;
    remaining = times;
  }

type event = {
  event_sender : Transcript.party;
  event_receiver : Transcript.party;
  event_label : string;
  event_action : action;
  detail : string;
}

type failure = { phase : string; party : Transcript.party; reason : string }

exception Fault_detected of failure

let fail ~phase ~party reason = raise (Fault_detected { phase; party; reason })

type plan = {
  prng : Prng.t;
  prng_mu : Mutex.t;  (* the chaos proxy damages from two pump threads *)
  rules : rule list;
  byzantine : (int * byzantine_mode) list;
  retry_budget : int;
  mutable rev_events : event list;
  mutable attempt : int;
  mutable pending_note : string option;
  mutable last_failure : failure option;
}

let plan ?(seed = 0) ?(max_retries = 2) ?(byzantine = []) rules =
  {
    prng = Prng.create ~seed:(Printf.sprintf "fault-plan-%d" seed);
    prng_mu = Mutex.create ();
    rules;
    byzantine;
    retry_budget = max_retries;
    rev_events = [];
    attempt = 1;
    pending_note = None;
    last_failure = None;
  }

let events p = List.rev p.rev_events

let attempts p = p.attempt

let byzantine_mode plan source =
  match plan with None -> None | Some p -> List.assoc_opt source p.byzantine

let auditing = function None -> false | Some _ -> true

let max_retries = function None -> 0 | Some p -> p.retry_budget

(* Retrying cannot clear a byzantine datasource, only transient channel
   faults. *)
let retryable = function
  | None -> false
  | Some p -> p.byzantine = []

let start_attempt plan ~attempt =
  match plan with
  | None -> ()
  | Some p ->
    p.attempt <- attempt;
    if attempt > 1 then
      let why =
        match p.last_failure with
        | None -> "transient fault"
        | Some f -> Printf.sprintf "%s at %s: %s" f.phase (Transcript.party_name f.party) f.reason
      in
      p.pending_note <-
        Some (Printf.sprintf "retry: attempt %d with a fresh request after %s" attempt why)

let record_failure plan f = match plan with None -> () | Some p -> p.last_failure <- Some f

let attach plan transcript =
  match plan with
  | None -> ()
  | Some p ->
    (match p.pending_note with
     | None -> ()
     | Some text ->
       Transcript.note transcript text;
       p.pending_note <- None)

(* ------------------------------------------------------------------ *)
(* Channel tampering.

   Every payload a transport carries travels in an integrity envelope:
   the sender appends a 16-byte SHA-256 tag over (label, payload), so a
   receiver detects truncation and byte corruption at the frame boundary
   instead of crashing deep inside a parser.  Byzantine *content*
   (validly framed but semantically malformed) is the receiver-side
   validators' job. *)

let tag_bytes = 16

let tag ~label payload =
  let ctx = Sha256.init () in
  List.iter (Sha256.update ctx) [ "secmed-frame\x00"; label; "\x00"; payload ];
  String.sub (Sha256.finalize ctx) 0 tag_bytes

let frame ~label payload = payload ^ tag ~label payload

let unframe ~label framed =
  let n = String.length framed in
  if n < tag_bytes then Error "frame truncated below the integrity tag"
  else begin
    let payload = String.sub framed 0 (n - tag_bytes) in
    if Bytes_util.constant_time_equal (String.sub framed (n - tag_bytes) tag_bytes)
         (tag ~label payload)
    then Ok payload
    else Error "integrity tag mismatch"
  end

let rule_matches ~sender ~receiver ~label r =
  r.remaining > 0
  && (match r.rule_sender with None -> true | Some p -> Transcript.party_equal p sender)
  && (match r.rule_receiver with None -> true | Some p -> Transcript.party_equal p receiver)
  && (match r.rule_label with None -> true | Some l -> String.equal l label)

(* The choice for one delivery depends only on its addressing and the
   plan's state, never on the payload bytes, so every process of a
   distributed run — holding the payload or not — consumes the same
   rule at the same delivery. *)
let select p ~sender ~receiver ~label =
  match List.find_opt (rule_matches ~sender ~receiver ~label) p.rules with
  | None -> None
  | Some r ->
    r.remaining <- r.remaining - 1;
    Some r.rule_action

let log_external p ~sender ~receiver ~label ~action detail =
  p.rev_events <-
    { event_sender = sender; event_receiver = receiver; event_label = label;
      event_action = action; detail }
    :: p.rev_events

let note p transcript ~sender ~receiver ~label action =
  let detail =
    match action with
    | Drop -> "message lost in transit"
    | Delay seconds -> Printf.sprintf "delivery delayed by %.3fs" seconds
    | Duplicate -> "duplicate delivered; receiver discarded the replayed copy"
    | Truncate n -> Printf.sprintf "frame truncated by %d byte(s)" (Stdlib.max 1 n)
    | Corrupt n -> Printf.sprintf "%d byte(s) corrupted" (Stdlib.max 1 n)
  in
  log_external p ~sender ~receiver ~label ~action detail;
  Transcript.note transcript
    (Printf.sprintf "fault: %s on %s (%s -> %s): %s" (action_name action) label
       (Transcript.party_name sender) (Transcript.party_name receiver) detail);
  if Secmed_obs.Trace.enabled () then
    Secmed_obs.Trace.event "fault"
      ~attrs:
        [
          ("action", Secmed_obs.Json.Str (action_name action));
          ("label", Secmed_obs.Json.Str label);
          ("from", Secmed_obs.Json.Str (Transcript.party_name sender));
          ("to", Secmed_obs.Json.Str (Transcript.party_name receiver));
          ("detail", Secmed_obs.Json.Str detail);
        ]

(* Distinct bits, so the copy always differs from the original. *)
let corrupt_bytes p ~count s =
  let n = String.length s in
  if n = 0 then s
  else
    Mutex.protect p.prng_mu @@ fun () ->
    let b = Bytes.of_string s in
    let rec flip flipped todo =
      if todo > 0 then
        let i = Prng.uniform_int p.prng n in
        let bit = 1 lsl Prng.uniform_int p.prng 8 in
        if List.mem (i, bit) flipped then flip flipped todo
        else begin
          Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor bit));
          flip ((i, bit) :: flipped) (todo - 1)
        end
    in
    flip [] (Stdlib.min (Stdlib.max 1 count) (8 * n));
    Bytes.to_string b

(* The one place a channel fault happens to bytes: whatever carries a
   framed payload — the in-memory transport, a socket sender, the chaos
   proxy — sends what this returns in its place.  A damaged frame never
   passes the receiver's tag check; a replayed one is discarded by the
   reader. *)
let damage p action framed =
  match action with
  | Drop -> []
  | Duplicate -> [ framed; framed ]
  | Delay seconds ->
    Unix.sleepf seconds;
    [ framed ]
  | Truncate n -> [ String.sub framed 0 (Stdlib.max 0 (String.length framed - Stdlib.max 1 n)) ]
  | Corrupt n -> [ corrupt_bytes p ~count:n framed ]

let lost ~phase ~receiver ~label =
  fail ~phase ~party:receiver (Printf.sprintf "%s never arrived (timeout)" label)

(* Byzantine helper: damage a ciphertext without breaking its framing —
   flipping the last byte (MAC / tag material in every ciphertext format
   used here) guarantees an authentication failure at the decryptor while
   the blob still parses structurally. *)
let flip_tail s =
  let n = String.length s in
  if n = 0 then s
  else String.init n (fun i -> if i = n - 1 then Char.chr (Char.code s.[i] lxor 1) else s.[i])

(* ------------------------------------------------------------------ *)
(* Textual fault specs (the CLI's --fault flag). *)

let party_of_name name =
  match String.lowercase_ascii name with
  | "*" | "any" -> Ok None
  | "client" -> Ok (Some Transcript.Client)
  | "mediator" -> Ok (Some Transcript.Mediator)
  | "ca" | "authority" -> Ok (Some Transcript.Authority)
  | s ->
    let digits =
      if String.length s > 6 && String.sub s 0 6 = "source" then
        Some (String.sub s 6 (String.length s - 6))
      else if String.length s > 1 && s.[0] = 's' then Some (String.sub s 1 (String.length s - 1))
      else None
    in
    (match Option.bind digits int_of_string_opt with
     | Some i -> Ok (Some (Transcript.Source i))
     | None -> Error (Printf.sprintf "unknown party %S" name))

let clause_error clause detail = Error (Printf.sprintf "clause %S: %s" clause detail)

(* ACTION:FROM->TO[:LABEL][:times=N] *)
let parse_rule_clause clause = function
  | action_name :: link :: rest ->
    let action =
      match String.lowercase_ascii action_name with
      | "drop" -> Ok Drop
      | "duplicate" -> Ok Duplicate
      | "truncate" -> Ok (Truncate 4)
      | "corrupt" -> Ok (Corrupt 1)
      | "delay" -> Ok (Delay 0.05)
      | other -> clause_error clause (Printf.sprintf "unknown action %S" other)
    in
    let options, plain = List.partition (fun f -> String.contains f '=') rest in
    let label = match plain with [] | "*" :: _ -> None | l :: _ -> Some l in
    let times =
      List.fold_left
        (fun acc field ->
          match String.split_on_char '=' field with
          | [ "times"; n ] -> Option.value ~default:acc (int_of_string_opt n)
          | _ -> acc)
        max_int options
    in
    (match String.index_opt link '>' with
     | Some i when i > 0 && link.[i - 1] = '-' ->
       let from_part = String.sub link 0 (i - 1) in
       let to_part = String.sub link (i + 1) (String.length link - i - 1) in
       (match (action, party_of_name from_part, party_of_name to_part) with
        | Ok action, Ok sender, Ok receiver ->
          Ok (rule ?sender ?receiver ?label ~times action)
        | (Error _ as e), _, _ -> e
        | _, Error e, _ | _, _, Error e -> clause_error clause e)
     | _ -> clause_error clause "expected FROM->TO link")
  | _ -> clause_error clause "expected ACTION:FROM->TO[:LABEL[:times=N]]"

let of_spec spec =
  let clauses =
    List.filter (fun s -> s <> "") (List.map String.trim (String.split_on_char ';' spec))
  in
  let rec go seed retries byzantine rules = function
    | [] -> Ok (plan ~seed ~max_retries:retries ~byzantine (List.rev rules))
    | clause :: tail ->
      let fields = String.split_on_char ':' clause in
      (match fields with
       | [ kv ] when String.contains kv '=' ->
         (match String.split_on_char '=' kv with
          | [ "seed"; n ] ->
            (match int_of_string_opt n with
             | Some seed -> go seed retries byzantine rules tail
             | None -> clause_error clause "seed needs an integer")
          | [ "retries"; n ] ->
            (match int_of_string_opt n with
             | Some retries -> go seed retries byzantine rules tail
             | None -> clause_error clause "retries needs an integer")
          | _ -> clause_error clause "unknown setting")
       | "byzantine" :: source :: mode :: _ ->
         (match (int_of_string_opt source, mode_of_name mode) with
          | Some sid, Some mode -> go seed retries ((sid, mode) :: byzantine) rules tail
          | None, _ -> clause_error clause "byzantine needs a source id"
          | _, None -> clause_error clause (Printf.sprintf "unknown byzantine mode %S" mode))
       | fields ->
         (match parse_rule_clause clause fields with
          | Ok r -> go seed retries byzantine (r :: rules) tail
          | Error _ as e -> e))
  in
  go 0 2 [] [] clauses

let pp_event fmt e =
  Format.fprintf fmt "%s on %s (%s -> %s): %s" (action_name e.event_action) e.event_label
    (Transcript.party_name e.event_sender)
    (Transcript.party_name e.event_receiver)
    e.detail
