open Secmed_relalg
open Secmed_sql
open Secmed_mediation

exception Access_denied of int
exception Bad_credential of int

type t = {
  decomposition : Catalog.decomposition;
  client_pk : Secmed_crypto.Elgamal.public_key;
  left_result : Relation.t option;
  right_result : Relation.t option;
}

let credential_size credentials =
  List.fold_left (fun acc c -> acc + Credential.size c) 0 credentials

(* The mediator forwards the credential subset relevant to a source: those
   carrying at least one property key the source advertises (all of them
   when the source advertises nothing). *)
let select_credentials env (entry : Catalog.entry) credentials =
  match (Env.source_by_id env entry.Catalog.source).Env.advertised with
  | [] -> credentials
  | keys ->
    List.filter
      (fun c ->
        List.exists
          (fun p -> List.exists (String.equal p.Credential.key) keys)
          (Credential.properties c))
      credentials

let step link party f = Outcome.Builder.step link party "request" f

(* A request-phase message is its text, zero-padded up to the declared
   size: the credential and join-attribute bytes the prototype never
   materialises.  A receiver that did not compute it takes the text back
   and rejects padding that is not all NUL bytes. *)
let send_text link ~sender ~receiver ~label ~padding ~decode text =
  Link.exchange link ~phase:"request" ~sender ~receiver ~label
    ~size:(fun text -> String.length text + padding)
    ~encode:Fun.id
    ~decode:(fun payload ->
      let n = Option.value (String.index_opt payload '\000') ~default:(String.length payload) in
      if not (String.for_all (Char.equal '\000') (String.sub payload n (String.length payload - n)))
      then raise (Wire.Malformed "padding is not all NUL bytes");
      decode (String.sub payload 0 n))
    text

let send_query link (client : Env.client) ~query =
  send_text link ~sender:Client ~receiver:Mediator ~label:"global-query"
    ~padding:(credential_size client.Env.credentials) ~decode:Fun.id
    (step link Client (fun () -> query))

let send_partial link (entry : Catalog.entry) ~padding q =
  let sid = entry.Catalog.source in
  let check received =
    if String.equal received q then received
    else raise (Wire.Malformed (Printf.sprintf "q_%d is %S, not %S" sid received q))
  in
  ignore
    (send_text link ~sender:Mediator ~receiver:(Source sid) ~label:"partial-query" ~padding
       ~decode:check (if Link.computes link Mediator then Some q else None))

(* Step 4 at S_i, and only there (Listing 1, Figure 2): verify every
   credential, then evaluate q_i under the source's policy. *)
let authorize link env (entry : Catalog.entry) credentials =
  let sid = entry.Catalog.source in
  step link (Source sid) (fun () ->
      let source = Env.source_by_id env sid in
      List.iter
        (fun c ->
          if not (Credential.Authority.verify env.Env.ca c) then raise (Bad_credential sid))
        credentials;
      if credentials = [] then raise (Access_denied sid);
      let relation =
        match List.assoc_opt entry.Catalog.source_relation source.Env.relations with
        | Some r -> r
        | None -> raise (Access_denied sid)
      in
      let properties = List.concat_map Credential.properties credentials in
      match Policy.apply source.Env.policy properties relation with
      | None -> raise (Access_denied sid)
      | Some granted -> Relation.rename entry.Catalog.relation granted)

let decompose env query = Catalog.decompose env.Env.catalog (Parser.parse query)

let run link env (client : Env.client) ~query =
  (* Step 1: client -> mediator: the query and the credential set CR. *)
  let received = send_query link client ~query in
  (* Step 2: the mediator decomposes the text it received and localizes
     the sources.  A process that does not compute the mediator reads
     the session's shape off the query it was started with. *)
  let decomposition =
    match Option.bind received (fun q -> step link Mediator (fun () -> decompose env q)) with
    | Some d -> d
    | None -> decompose env query
  in
  let left = decomposition.Catalog.left and right = decomposition.Catalog.right in
  let credentials_left = select_credentials env left client.Env.credentials in
  let credentials_right = select_credentials env right client.Env.credentials in
  (* Step 3: mediator -> S_i : <q_i, CR_i, A_i>. *)
  let attrs_bytes =
    List.fold_left (fun acc a -> acc + String.length a) 0 decomposition.Catalog.join_attrs
  in
  send_partial link left ~padding:(credential_size credentials_left + attrs_bytes)
    decomposition.Catalog.partial_query_left;
  send_partial link right ~padding:(credential_size credentials_right + attrs_bytes)
    decomposition.Catalog.partial_query_right;
  (* Step 4 at each source. *)
  let left_result = authorize link env left credentials_left in
  let right_result = authorize link env right credentials_right in
  let client_pk =
    match credentials_left with
    | c :: _ -> Credential.public_key c
    | [] -> raise (Access_denied left.Catalog.source)
  in
  { decomposition; client_pk; left_result; right_result }

let finalize t joined =
  let with_where =
    match t.decomposition.Catalog.residual_where with
    | None -> joined
    | Some predicate -> Relation.select predicate joined
  in
  let with_aggregation =
    match t.decomposition.Catalog.aggregation with
    | None -> with_where
    | Some (specs, keys) -> Aggregate.group_by with_where ~keys ~specs
  in
  let with_projection =
    match t.decomposition.Catalog.projection with
    | None -> with_aggregation
    | Some columns -> Relation.project columns with_aggregation
  in
  if t.decomposition.Catalog.distinct then Relation.distinct with_projection
  else with_projection

let schema t which =
  let d = t.decomposition in
  let entry = match which with `Left -> d.Catalog.left | `Right -> d.Catalog.right in
  Schema.qualify entry.Catalog.relation entry.Catalog.schema

let partial t which =
  match (which, t.left_result, t.right_result) with
  | `Left, Some r, _ | `Right, _, Some r -> r
  | _ -> invalid_arg "Request.partial: this process does not compute the source"

let result_schema t =
  let empty which = Relation.make (schema t which) [] in
  Relation.schema (finalize t (Relation.natural_join (empty `Left) (empty `Right)))

let exact_result t =
  (* The reference join is harness work, not protocol work: it gets its
     own operation span so traced runs can separate it from the scheme. *)
  Secmed_obs.Trace.with_span "ground-truth" (fun () ->
      finalize t (Relation.natural_join (partial t `Left) (partial t `Right)))

let frame ~scheme ?fault ?endpoint env client ~query body =
  Outcome.Builder.run ~scheme ?fault ?endpoint (fun b link ->
      let request = run link env client ~query in
      let client_view = body b link request in
      (* After the body, so a body that rejects the query does so before
         the reference is built — and only where the client is. *)
      let exact =
        if Link.computes link Client then exact_result request
        else Relation.make (result_schema request) []
      in
      (exact, client_view))

let join_attrs t = t.decomposition.Catalog.join_attrs

let join_attr_values t which = Join_key.distinct_keys (partial t which) (join_attrs t)

let groups t which = Join_key.group_by (partial t which) (join_attrs t)
