open Secmed_crypto
open Secmed_relalg
open Secmed_sql
open Secmed_mediation

exception Unsupported of string

let unsupported fmt = Printf.ksprintf (fun s -> raise (Unsupported s)) fmt

(* Rewrite attribute references to their bare names so the translated
   condition lines up with the mediator's idx_<bare> columns. *)
let normalize_predicate schema p =
  let bare name =
    let position = Schema.find schema name in
    (Schema.attr_at schema position).Schema.name
  in
  let term = function
    | Predicate.Attr a -> Predicate.Attr (bare a)
    | Predicate.Const _ as c -> c
  in
  let rec go = function
    | Predicate.True -> Predicate.True
    | Predicate.False -> Predicate.False
    | Predicate.Cmp (op, x, y) -> Predicate.Cmp (op, term x, term y)
    | Predicate.And (a, b) -> Predicate.And (go a, go b)
    | Predicate.Or (a, b) -> Predicate.Or (go a, go b)
    | Predicate.Not a -> Predicate.Not (go a)
    | Predicate.In (x, vs) -> Predicate.In (term x, vs)
  in
  go p

(* Canonical q_S encoding: the predicate's nodes in prefix order — each
   node's tag, then its operands — as one tuple of values, so decoding
   starts from the hardened tuple decoder.  The mediator decodes the
   client's bytes: every failure, nesting included, is [Wire.Malformed]. *)
let comparisons = Predicate.[| Eq; Ne; Lt; Le; Gt; Ge |]

let condition_to_wire condition =
  let term = function
    | Predicate.Attr a -> [ Value.Int 0; Value.Str a ]
    | Predicate.Const v -> [ Value.Int 1; v ]
  in
  let rec go = function
    | Predicate.True -> [ Value.Int 0 ]
    | Predicate.False -> [ Value.Int 1 ]
    | Predicate.Not a -> Value.Int 2 :: go a
    | Predicate.And (a, b) -> (Value.Int 3 :: go a) @ go b
    | Predicate.Or (a, b) -> (Value.Int 4 :: go a) @ go b
    | Predicate.In (x, vs) -> (Value.Int 5 :: term x) @ (Value.Int (List.length vs) :: vs)
    | Predicate.Cmp (op, x, y) ->
      (Value.Int (6 + Option.get (Array.find_index (( = ) op) comparisons)) :: term x) @ term y
  in
  Tuple.encode (Tuple.of_list (go condition))

let condition_of_wire blob =
  let malformed what = raise (Wire.Malformed ("q_S: " ^ what)) in
  let rest =
    ref (try Tuple.to_list (Tuple.decode blob) with Invalid_argument msg -> malformed msg)
  in
  let next () =
    match !rest with
    | v :: tail ->
      rest := tail;
      v
    | [] -> malformed "truncated"
  in
  let int () = match next () with Value.Int n -> n | Value.Str _ | Value.Bool _ -> malformed "tag" in
  let term () =
    match (int (), next ()) with
    | 0, Value.Str a -> Predicate.Attr a
    | 1, v -> Predicate.Const v
    | _ -> malformed "term"
  in
  let rec go depth =
    if depth > 256 then malformed "nests too deeply";
    let sub () = go (depth + 1) in
    match int () with
    | 0 -> Predicate.True
    | 1 -> Predicate.False
    | 2 -> Predicate.Not (sub ())
    | 3 ->
      let a = sub () in
      Predicate.And (a, sub ())
    | 4 ->
      let a = sub () in
      Predicate.Or (a, sub ())
    | 5 ->
      let x = term () in
      let n = int () in
      if n < 0 || n > List.length !rest then malformed "IN list count";
      Predicate.In (x, List.init n (fun _ -> next ()))
    | n when n >= 6 && n < 12 ->
      let x = term () in
      Predicate.Cmp (comparisons.(n - 6), x, term ())
    | n -> malformed (Printf.sprintf "node tag %d" n)
  in
  let condition = go 0 in
  if !rest <> [] then malformed "trailing values";
  condition

let run ?fault ?(strategy = Das_partition.Equi_depth 4) env client ~query =
  Outcome.Builder.run ~scheme:"das-select" ?fault (fun b link ->
      let computes = Link.computes link in
      let step party phase f = Outcome.Builder.step link party phase f in
      let ast = Parser.parse query in
      if ast.Ast.joins <> [] then
        unsupported "selection protocol handles single relations; use the join protocols";
      if Ast.has_aggregates ast || ast.Ast.group_by <> [] then
        unsupported "use the aggregation protocol for aggregate queries";
      let entry =
        try Catalog.locate env.Env.catalog ast.Ast.from.Ast.table
        with Not_found -> unsupported "unknown relation %s" ast.Ast.from.Ast.table
      in
      let sid = entry.Catalog.source in
      (* Request phase, single partial query. *)
      let credentials = client.Env.credentials in
      let granted =
        Outcome.Builder.replicated link Mediator "request" (fun () ->
            Link.deliver link ~phase:"request" ~sender:Client ~receiver:Mediator
              ~label:"global-query"
              ~size:(String.length query + Request.credential_size credentials)
              (fun () -> query);
            Link.deliver link ~phase:"request" ~sender:Mediator ~receiver:(Source sid)
              ~label:"partial-query"
              ~size:
                (String.length entry.Catalog.source_relation
                + Request.credential_size credentials)
              (fun () -> entry.Catalog.source_relation);
            Request.authorize link env sid entry credentials)
      in
      let schema = Relation.schema granted in
      let where =
        Option.map
          (fun w -> normalize_predicate schema (Algebra.predicate_of_expr w))
          ast.Ast.where
      in
      (* Reference result. *)
      let apply_clauses relation =
        let filtered =
          match where with None -> relation | Some p -> Relation.select p relation
        in
        let projected =
          match ast.Ast.select with
          | None -> filtered
          | Some items ->
            Relation.project
              (List.map
                 (function
                   | Ast.S_column c -> Ast.column_name c
                   | Ast.S_aggregate _ -> assert false)
                 items)
              filtered
        in
        if ast.Ast.distinct then Relation.distinct projected else projected
      in
      let exact = apply_clauses granted in

      (* The source indexes every attribute the condition references. *)
      let indexed_attrs =
        match where with
        | None -> []
        | Some p ->
          List.sort_uniq String.compare
            (List.filter_map
               (fun name ->
                 match Schema.find_opt schema name with
                 | Some position -> Some (Schema.attr_at schema position).Schema.name
                 | None -> None)
               (Predicate.attrs_used p))
      in
      let upload =
        step (Source sid) "source-encrypt" (fun () ->
            let prng = Env.prng_for env (Printf.sprintf "select-source-%d" sid) in
            let pk =
              match credentials with
              | c :: _ -> Credential.public_key c
              | [] -> raise (Request.Access_denied sid)
            in
            let tables =
              List.map
                (fun attr ->
                  let column = Relation.column granted attr in
                  Das_partition.build
                    (Das_partition.adapt strategy column)
                    ~relation:entry.Catalog.relation ~attr column)
                indexed_attrs
            in
            let encrypted =
              Das.encrypt_relation prng pk tables ~join_attrs:indexed_attrs granted
            in
            let w = Wire.writer () in
            Wire.write_list w
              (fun (attr, table) ->
                Wire.write_string w attr;
                Wire.write_string w (Das_partition.to_wire table))
              (List.combine indexed_attrs tables);
            (encrypted, Das.Sealed (Hybrid.encrypt prng pk (Wire.contents w))))
      in
      let upload =
        Das.exchange_upload link ~sid ~label:"RS+enc(ITables)"
          ~arity:(List.length indexed_attrs) ~tables:`Sealed upload
      in
      let upload = if computes Mediator then upload else None in
      Option.iter
        (fun (er, _) ->
          Outcome.Builder.mediator_sees b "cardinality-RS" (List.length er.Das.rows))
        upload;

      (* Client setting: tables travel to the client, which translates. *)
      let enc_tables =
        Codec.exchange link ~phase:"client-translate" ~sender:Mediator ~receiver:Client
          ~label:"enc(ITables)" Codec.hybrid
          (match upload with Some (_, Das.Sealed ct) -> Some ct | _ -> None)
      in
      let server_condition =
        Option.bind enc_tables (fun enc_tables ->
            step Client "client-translate" (fun () ->
                match where with
                | None -> Predicate.True
                | Some p ->
                  let r =
                    Wire.reader
                      (Das.decrypt_or_fail ~phase:"client-translate" ~party:Client
                         client.Env.key "ITables" enc_tables)
                  in
                  let decoded =
                    Wire.read_list r (fun () ->
                        let attr = Wire.read_string r in
                        (attr, Das_partition.of_wire (Wire.read_string r)))
                  in
                  Wire.expect_end r;
                  Das_translate.translate ~tables:(fun attr -> List.assoc_opt attr decoded) p))
      in
      let server_condition =
        Link.exchange link ~phase:"mediator-server-query" ~sender:Client ~receiver:Mediator
          ~label:"server-query-qS"
          ~size:(fun c -> 24 * Stdlib.max 1 (Predicate.size c))
          ~encode:condition_to_wire ~decode:condition_of_wire server_condition
      in

      (* The mediator filters the encrypted relation with the relational
         engine over the index columns. *)
      let rc =
        match (server_condition, upload) with
        | Some condition, Some (er, _) when computes Mediator ->
          Outcome.Builder.mediator_sees b "condition-size-qS" (Predicate.size condition);
          step Mediator "mediator-server-query" (fun () ->
              let index_schema =
                Schema.make
                  (Schema.attr "etuple" Value.Tstring
                  :: List.map
                       (fun attr -> Schema.attr (Das_translate.index_attr attr) Value.Tint)
                       indexed_attrs)
              in
              let index_relation =
                Relation.make index_schema
                  (List.map
                     (fun (ct, indexes) ->
                       Tuple.of_list
                         (Value.Str (Hybrid.to_wire ct)
                         :: Array.to_list (Array.map (fun i -> Value.Int i) indexes)))
                     er.Das.rows)
              in
              List.map
                (fun t ->
                  match Tuple.get t 0 with
                  | Value.Str wire -> Hybrid.of_wire wire
                  | Value.Int _ | Value.Bool _ -> assert false)
                (Relation.tuples (Relation.select condition index_relation)))
        | _ -> None
      in
      Option.iter
        (fun rc -> Outcome.Builder.mediator_sees b "cardinality-RC" (List.length rc))
        rc;
      let rc =
        Codec.exchange_list link ~phase:"client-postprocess" ~sender:Mediator ~receiver:Client
          ~label:"RC" Codec.hybrid rc
      in

      (* Client: decrypt, post-filter with the original condition. *)
      let client_view =
        match rc with
        | Some rc when computes Client ->
          Outcome.Builder.client_sees b "candidates-received" (List.length rc);
          step Client "client-postprocess" (fun () ->
              let tuples =
                List.map
                  (fun ct ->
                    Tuple.decode
                      (Das.decrypt_or_fail ~phase:"client-postprocess" ~party:Client
                         client.Env.key "etuple" ct))
                  rc
              in
              (apply_clauses (Relation.make schema tuples), List.length rc))
        | _ -> None
      in
      (exact, client_view))
