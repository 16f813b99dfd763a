open Secmed_bigint
open Secmed_crypto
open Secmed_relalg
open Secmed_mediation

type _ forward =
  | Payload : 'p forward
  | Id : 'p forward
  | Bare : unit forward

(* What travels beside a hash once the mediator forwards a set. *)
type _ slot =
  | Carried : 'p -> 'p slot
  | Ref : int -> 'p slot
  | Nothing : unit slot

let slot (type p) (form : p forward) i (payload : p) : p slot =
  match form with Payload -> Carried payload | Id -> Ref i | Bare -> Nothing

let slot_codec (type p) (form : p forward) (payload : p Codec.t) : p slot Codec.t =
  {
    Codec.size = (function Carried p -> payload.Codec.size p | Ref _ -> 8 | Nothing -> 0);
    write =
      (fun w -> function
        | Carried p -> payload.write w p
        | Ref i -> Wire.write_int w i
        | Nothing -> ());
    read =
      (fun r ->
        match form with
        | Payload -> Carried (payload.read r)
        | Id -> Ref (Wire.read_int r)
        | Bare -> Nothing);
    malformed = Fun.id;
  }

(* The mediator maps a doubly-encrypted entry back to the payload it
   retained (ids), or takes the one that travelled with it. *)
let resolve (type p) (retained : p array) label : p slot -> p = function
  | Carried p -> p
  | Ref i when i >= 0 && i < Array.length retained -> retained.(i)
  | Ref i ->
    Fault.fail ~phase:"mediator-match" ~party:Mediator
      (Printf.sprintf "%s entry names unknown id %d" label i)
  | Nothing -> ()

type 'p set = {
  groups : (Join_key.t * Tuple.t list) list Lazy.t;
  seal : Prng.t -> Join_key.t -> Tuple.t list -> 'p;
  payload : 'p Codec.t;
  forward : 'p forward;
  labels : string * string * string;
}

let run b link ?fault env request ~left ~right =
  let computes = Link.computes link in
  let step party phase f = Outcome.Builder.step link party phase f in
  let group = env.Env.group in
  let point = Codec.point group in
  let s1 = request.Request.decomposition.Catalog.left.Catalog.source in
  let s2 = request.Request.decomposition.Catalog.right.Catalog.source in
  let at_mediator v = if computes Mediator then v else None in

  (* Steps 1-3: each source hashes and encrypts its keys under a fresh
     commutative key, seals each key's payload, shuffles, and sends the
     set to the mediator.  Per-key work runs on independent split streams
     (Batch), so the set is bit-identical however its threads
     interleave; the
     shuffle draws from the parent stream.  A byzantine source ships
     payloads that parse but fail authentication at the client. *)
  let send sid set =
    let built =
      step (Source sid) "source-encrypt" (fun () ->
          let prng = Env.prng_for env (Printf.sprintf "comm-source-%d" sid) in
          let key = Commutative.keygen prng group in
          let shuffled =
            Batch.map_seeded ~prng ~label:"comm-msg"
              (fun _ prng (a, tuples) ->
                ( Commutative.apply key (Random_oracle.hash group (Join_key.encode a)),
                  set.seal prng a tuples ))
              (Array.of_list (Lazy.force set.groups))
          in
          Prng.shuffle prng shuffled;
          let messages = Array.to_list shuffled in
          match Fault.byzantine_mode fault sid with
          | Some Fault.Malformed_ciphertexts ->
            (key, List.map (fun (h, p) -> (h, set.payload.Codec.malformed p)) messages)
          | _ -> (key, messages))
    in
    let label, _, _ = set.labels in
    let messages =
      Codec.exchange_list link ~phase:"mediator-exchange" ~sender:(Source sid) ~receiver:Mediator
        ~label (Codec.pair point set.payload) (Option.map snd built)
    in
    (Option.map fst built, messages)
  in
  let key1, m1 = send s1 left in
  let key2, m2 = send s2 right in
  (* Conformance audit (only under a fault plan, so honest runs stay
     byte-identical): a public canary h0 travels the same path as the
     sets — each source's f_ei(h0) to the mediator, on to the opposite
     source, back doubly encrypted — and the mediator checks
     f_e1(f_e2(h0)) = f_e2(f_e1(h0)), which catches a source whose second
     pass used a stale key. *)
  let canary ~phase ~sender ~receiver ~label value =
    if Fault.auditing fault then
      Codec.exchange link ~phase ~sender ~receiver ~label ~guard:false point (value ())
    else None
  in
  let h0 = lazy (Random_oracle.hash group "commutative-canary") in
  let send_canary sid key =
    canary ~phase:"mediator-match" ~sender:(Source sid) ~receiver:Mediator ~label:"canary"
      (fun () -> Option.map (fun key -> Commutative.apply key (Lazy.force h0)) key)
  in
  let canary1 = at_mediator (send_canary s1 key1) in
  let canary2 = at_mediator (send_canary s2 key2) in
  let m1 = at_mediator m1 and m2 = at_mediator m2 in
  (match (m1, m2) with
  | Some m1, Some m2 ->
    Outcome.Builder.mediator_sees b "cardinality-domactive-R1" (List.length m1);
    Outcome.Builder.mediator_sees b "cardinality-domactive-R2" (List.length m2)
  | _ -> ());

  (* Step 4: the mediator forwards each set to the opposite source in
     the set's forward form: the payload itself, a fixed-length id into
     the copy it retains (the paper's footnote 1), or the bare hash. *)
  let forward sid set messages =
    let _, label, _ = set.labels in
    let codec = Codec.pair point (slot_codec set.forward set.payload) in
    let entries =
      Link.exchange link ~phase:"source-reencrypt" ~sender:Mediator ~receiver:(Source sid) ~label
        ~size:(List.fold_left (fun acc e -> acc + codec.Codec.size e) 0)
        ~encode:(fun entries -> String.concat "" (List.map (Codec.encode codec) entries))
        ~decode:(Codec.decode_all codec)
        (Option.map (List.mapi (fun i (h, p) -> (h, slot set.forward i p))) messages)
    in
    Option.iter
      (fun entries ->
        if computes (Source sid) then
          Outcome.Builder.source_sees b sid "cardinality-domactive-opposite" (List.length entries))
      entries;
    entries
  in
  let to_s2 = forward s2 left m1 in
  let to_s1 = forward s1 right m2 in
  let opposite1 =
    canary ~phase:"source-reencrypt" ~sender:Mediator ~receiver:(Source s1)
      ~label:"opposite-canary" (fun () -> canary2)
  in
  let opposite2 =
    canary ~phase:"source-reencrypt" ~sender:Mediator ~receiver:(Source s2)
      ~label:"opposite-canary" (fun () -> canary1)
  in

  (* Steps 5-6: each source applies its key on top of the other's and
     returns the set.  A byzantine source may use a stale (different) key
     for the second pass, which would silently empty the match — the
     canary audit catches it. *)
  let double_encrypt sid key set entries opposite =
    let done_ =
      match (key, entries) with
      | Some key, Some entries ->
        step (Source sid) "source-reencrypt" (fun () ->
            let key =
              match Fault.byzantine_mode fault sid with
              | Some Fault.Stale_commutative_key ->
                Commutative.keygen (Env.prng_for env (Printf.sprintf "stale-comm-key-%d" sid)) group
              | _ -> key
            in
            ( List.map (fun (h, s) -> (Commutative.apply key h, s)) entries,
              Option.map (Commutative.apply key) opposite ))
      | _ -> None
    in
    let _, _, label = set.labels in
    let reencrypted =
      Codec.exchange_list link ~phase:"mediator-match" ~sender:(Source sid) ~receiver:Mediator
        ~label (Codec.pair point (slot_codec set.forward set.payload)) (Option.map fst done_)
    in
    let double_canary =
      canary ~phase:"mediator-match" ~sender:(Source sid) ~receiver:Mediator
        ~label:"double-canary" (fun () -> Option.bind done_ snd)
    in
    (at_mediator reencrypted, at_mediator double_canary)
  in
  let from_s1, double_canary1 = double_encrypt s1 key1 right to_s1 opposite1 in
  let from_s2, double_canary2 = double_encrypt s2 key2 left to_s2 opposite2 in
  (match (double_canary1, double_canary2) with
  | Some a, Some b when not (Bigint.equal a b) ->
    Fault.fail ~phase:"mediator-match" ~party:Mediator
      "commutative canary mismatch: a source re-encrypted under a stale key"
  | _ -> ());

  (* Step 7's input: both sets doubly encrypted, each entry carrying its
     own set's payload again. *)
  let resolved set retained entries =
    let _, _, label = set.labels in
    let retained = Array.of_list (List.map snd retained) in
    List.map (fun (h, s) -> (h, resolve retained label s)) entries
  in
  match (from_s1, from_s2, m1, m2) with
  | Some from_s1, Some from_s2, Some m1, Some m2 ->
    Some (resolved left m1 from_s2, resolved right m2 from_s1)
  | _ -> None

let pairs ~left ~right =
  let table = Hashtbl.create 64 in
  List.iter (fun (h, p1) -> Hashtbl.replace table (Bigint.to_string h) p1) left;
  List.filter_map
    (fun (h, p2) -> Option.map (fun p1 -> (p1, p2)) (Hashtbl.find_opt table (Bigint.to_string h)))
    right
