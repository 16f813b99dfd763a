open Secmed_bigint
open Secmed_crypto
open Secmed_relalg
open Secmed_mediation
module Round = Commutative_round

type strategy =
  | Bundles
  | Homomorphic

exception Unsupported of string

let unsupported fmt = Printf.ksprintf (fun s -> raise (Unsupported s)) fmt

(* Which relation an aggregated column lives in. *)
type side = L | R

type kind =
  | K_count
  | K_sum of side * string
  | K_avg of side * string
  | K_min of side * string
  | K_max of side * string

let classify ~join_attrs left_schema right_schema (spec : Aggregate.spec) =
  match spec.Aggregate.column with
  | None -> K_count
  | Some column ->
    let bare =
      match String.index_opt column '.' with
      | None -> column
      | Some i -> String.sub column (i + 1) (String.length column - i - 1)
    in
    let in_left = Schema.mem left_schema column in
    let in_right = Schema.mem right_schema column in
    let side =
      (* A join attribute lives in both relations but carries the same
         value on both sides of every matched pair; source it from the
         left. *)
      if List.exists (String.equal bare) join_attrs then L
      else begin
        match (in_left, in_right) with
        | true, false -> L
        | false, true -> R
        | true, true -> unsupported "aggregated column %s is ambiguous, qualify it" column
        | false, false -> unsupported "aggregated column %s not found" column
      end
    in
    (match spec.Aggregate.func with
     | Aggregate.Count -> K_count
     | Aggregate.Sum -> K_sum (side, column)
     | Aggregate.Avg -> K_avg (side, column)
     | Aggregate.Min -> K_min (side, column)
     | Aggregate.Max -> K_max (side, column))

(* Per-key statistics one source contributes for one of its keys. *)
let own_partials ~schema ~kinds ~own_side tuples =
  let value_of column tuple = Tuple.get tuple (Schema.find schema column) in
  let ints column =
    List.map
      (fun t ->
        match value_of column t with
        | Value.Int n -> n
        | Value.Str _ | Value.Bool _ ->
          unsupported "aggregate over non-integer column %s" column)
      tuples
  in
  List.mapi (fun index kind -> (index, kind)) kinds
  |> List.filter_map (fun (index, kind) ->
         match kind with
         | K_count -> None
         | K_sum (s, c) | K_avg (s, c) when s = own_side ->
           Some (index, List.fold_left ( + ) 0 (ints c))
         | K_min (s, c) when s = own_side ->
           Some (index, List.fold_left Stdlib.min max_int (ints c))
         | K_max (s, c) when s = own_side ->
           Some (index, List.fold_left Stdlib.max min_int (ints c))
         | K_sum _ | K_avg _ | K_min _ | K_max _ -> None)

let encode_bundle ~count ~partials =
  let w = Wire.writer () in
  Wire.write_int w count;
  Wire.write_list w
    (fun (index, v) ->
      Wire.write_int w index;
      Wire.write_int w v)
    partials;
  Wire.contents w

let decode_bundle blob =
  let r = Wire.reader blob in
  let count = Wire.read_int r in
  let partials =
    Wire.read_list r (fun () ->
        let index = Wire.read_int r in
        let v = Wire.read_int r in
        (index, v))
  in
  Wire.expect_end r;
  (count, partials)

(* Combine the two sides' per-key statistics into the per-key value of one
   aggregate over the joined pairs. *)
let combine_per_key kind ~c1 ~c2 ~p1 ~p2 index =
  let own side = match side with L -> List.assoc index p1 | R -> List.assoc index p2 in
  let opposite_count side = match side with L -> c2 | R -> c1 in
  match kind with
  | K_count -> `Weighted (c1 * c2)
  | K_sum (s, _) -> `Weighted (own s * opposite_count s)
  | K_avg (s, _) ->
    (* Per-key average is the side's own average (pair multiplicity
       cancels); for scalar queries the weighted sum/count pair is used. *)
    `Ratio (own s * opposite_count s, c1 * c2)
  | K_min (s, _) -> `Extremum (own s)
  | K_max (s, _) -> `Extremum (own s)

(* Paillier ciphertexts at the fixed modulus width, [count] per value. *)
let ciphertexts ppk ~count =
  let width = (Bigint.numbits ppk.Paillier.n_squared + 7) / 8 in
  {
    Codec.size = (fun cts -> width * List.length cts);
    write =
      (fun w ->
        List.iter (fun c ->
            Wire.write_raw w (Bigint.to_bytes_be_padded width (Paillier.ciphertext_to_bigint c))));
    read =
      (fun r ->
        List.init count (fun _ ->
            Paillier.ciphertext_of_bigint ppk (Bigint.of_bytes_be (Wire.read_raw r width))));
    malformed = Fun.id;
  }

let render = function
  | `Weighted v | `Extremum v -> Value.Int v
  | `Ratio (num, den) -> Value.Int (num / den)

(* Two keys' values of one aggregate combined: a scalar query's fold. *)
let merge kind a b =
  match (kind, a, b) with
  | K_min _, `Extremum x, `Extremum y -> `Extremum (Stdlib.min x y)
  | K_max _, `Extremum x, `Extremum y -> `Extremum (Stdlib.max x y)
  | _, `Weighted x, `Weighted y -> `Weighted (x + y)
  | _, `Ratio (n, d), `Ratio (n', d') -> `Ratio (n + n', d + d')
  | _ -> assert false

(* The client's assembly of the per-key values into the aggregate
   relation: one row per key when grouped, else one row overall. *)
let assemble ~grouped ~group_keys ~join_attrs ~left_schema ~right_schema kinds specs per_key =
  let spec_ty kind =
    match kind with
    | K_count | K_sum _ | K_avg _ -> Value.Tint
    | K_min (side, column) | K_max (side, column) ->
      let schema = match side with L -> left_schema | R -> right_schema in
      (Schema.attr_at schema (Schema.find schema column)).Schema.ty
  in
  let agg_attrs =
    List.map2
      (fun kind (spec : Aggregate.spec) -> Schema.attr spec.Aggregate.alias (spec_ty kind))
      kinds specs
  in
  if grouped then begin
    let key_attrs =
      List.map (fun name -> Schema.attr_at left_schema (Schema.find left_schema name)) group_keys
    in
    (* The key tuple follows join_attrs; group_keys may reorder them. *)
    let rows =
      List.map
        (fun (key, values) ->
          List.map
            (fun name ->
              Tuple.get key (Option.get (List.find_index (String.equal name) join_attrs)))
            group_keys
          @ List.map render values)
        per_key
    in
    Relation.sort (Relation.of_rows (Schema.make (key_attrs @ agg_attrs)) rows)
  end
  else begin
    let row =
      match per_key with
      | [] ->
        (* Match Aggregate.group_by semantics on empty input. *)
        List.map
          (function
            | K_count -> Value.Int 0
            | K_sum _ | K_avg _ | K_min _ | K_max _ ->
              invalid_arg "Aggregate.group_by: non-count aggregate over empty relation")
          kinds
      | (_, first) :: rest ->
        List.map render
          (List.fold_left
             (fun acc (_, values) ->
               List.map2 (fun kind (a, b) -> merge kind a b) kinds (List.combine acc values))
             first rest)
    in
    Relation.of_rows (Schema.make agg_attrs) [ row ]
  end

let run ?fault ?(strategy = Bundles) env client ~query =
  let scheme =
    match strategy with Bundles -> "aggregate" | Homomorphic -> "aggregate-homomorphic"
  in
  Outcome.Builder.run_request ~scheme ?fault env client ~query (fun b link request _exact ->
      let computes = Link.computes link in
      let step party phase f = Outcome.Builder.step link party phase f in
      let d = request.Request.decomposition in
      let specs, group_keys =
        match d.Catalog.aggregation with
        | Some (specs, keys) -> (specs, keys)
        | None -> unsupported "query has no aggregates; use the join protocols"
      in
      if d.Catalog.residual_where <> None then
        unsupported "WHERE is not supported by the aggregation protocol";
      let join_attrs = Request.join_attrs request in
      let grouped =
        match group_keys with
        | [] -> false
        | keys ->
          if List.sort compare keys = List.sort compare join_attrs then true
          else unsupported "GROUP BY must list exactly the join attributes"
      in
      let left_schema = Relation.schema request.Request.left_result in
      let right_schema = Relation.schema request.Request.right_result in
      (* Classify here: the frame builds the reference only after the
         body, so malformed queries surface as Unsupported rather than a
         raw Not_found. *)
      let kinds = List.map (classify ~join_attrs left_schema right_schema) specs in
      let pk = request.Request.client_pk in
      let finalize relation =
        let projected =
          match d.Catalog.projection with
          | None -> relation
          | Some columns -> Relation.project columns relation
        in
        if d.Catalog.distinct then Relation.distinct projected else projected
      in
      let client_view =
        match strategy with
        | Bundles ->
          (* Each source seals, per key, a bundle of its per-key
             statistics; the mediator keeps both sets and forwards
             ids. *)
          let set which ~own_side ~schema label =
            {
              Round.groups = Request.groups request which;
              seal =
                (fun prng a tuples ->
                  let w = Wire.writer () in
                  Wire.write_string w (Join_key.encode a);
                  Wire.write_string w
                    (encode_bundle ~count:(List.length tuples)
                       ~partials:(own_partials ~schema ~kinds ~own_side tuples));
                  Hybrid.encrypt prng pk (Wire.contents w));
              payload = Codec.hybrid;
              forward = Round.Id;
              labels = ("agg-bundles", label, "doubly-encrypted");
            }
          in
          let doubled =
            Round.run b link ?fault env request
              ~left:(set `Left ~own_side:L ~schema:left_schema "hashes-1")
              ~right:(set `Right ~own_side:R ~schema:right_schema "hashes-2")
          in
          let forwarded =
            Option.bind doubled (fun (left, right) ->
                step Mediator "mediator-match" (fun () -> Round.pairs ~left ~right))
          in
          Option.iter
            (fun f -> Outcome.Builder.mediator_sees b "intersection-size" (List.length f))
            forwarded;
          let forwarded =
            Codec.exchange_list link ~phase:"client-postprocess" ~sender:Mediator
              ~receiver:Client ~label:"matched-bundles" (Codec.pair Codec.hybrid Codec.hybrid)
              forwarded
          in
          (* Client: decrypt bundles, combine per key, assemble. *)
          (match forwarded with
          | Some forwarded when computes Client ->
            Outcome.Builder.client_sees b "bundles-received" (2 * List.length forwarded);
            step Client "client-postprocess" (fun () ->
                let decrypt ct =
                  let r =
                    Wire.reader
                      (Das.decrypt_or_fail ~phase:"client-postprocess" ~party:Client
                         client.Env.key "bundle" ct)
                  in
                  let key = Tuple.decode (Wire.read_string r) in
                  let count, partials = decode_bundle (Wire.read_string r) in
                  Wire.expect_end r;
                  (key, count, partials)
                in
                let per_key =
                  List.map
                    (fun (ct1, ct2) ->
                      let key, c1, p1 = decrypt ct1 in
                      let _, c2, p2 = decrypt ct2 in
                      ( key,
                        List.mapi
                          (fun index kind -> combine_per_key kind ~c1 ~c2 ~p1 ~p2 index)
                          kinds ))
                    forwarded
                in
                ( finalize
                    (assemble ~grouped ~group_keys ~join_attrs ~left_schema ~right_schema kinds
                       specs per_key),
                  List.length forwarded ))
          | _ -> None)
        | Homomorphic ->
          (* Scalar COUNT/SUM over right-side columns, mediator-side
             combination under the client's Paillier key. *)
          if grouped then unsupported "Homomorphic strategy supports scalar queries only";
          List.iter
            (fun kind ->
              match kind with
              | K_count | K_sum (R, _) -> ()
              | K_sum (L, _) | K_avg _ | K_min _ | K_max _ ->
                unsupported
                  "Homomorphic strategy supports COUNT and right-side SUM aggregates only")
            kinds;
          (* c1(a) must be 1 for every left key so that pair weighting is
             trivial; S1 verifies this on its own plaintext. *)
          if
            List.exists
              (fun (_, tuples) -> List.length tuples > 1)
              (Request.groups request `Left)
          then
            unsupported
              "Homomorphic strategy requires duplicate-free join keys in the left relation";
          let ppk = Paillier.public client.Env.paillier_key in
          let cts = ciphertexts ppk ~count:(List.length kinds) in
          (* S1: bare hashes.  S2: per key, one Paillier ciphertext per
             aggregate, which the mediator keeps and forwards by id. *)
          let doubled =
            Round.run b link ?fault env request
              ~left:
                {
                  Round.groups = Request.groups request `Left;
                  seal = (fun _ _ _ -> ());
                  payload = Codec.none;
                  forward = Round.Bare;
                  labels = ("hashes", "hashes-1", "doubly-encrypted");
                }
              ~right:
                {
                  Round.groups = Request.groups request `Right;
                  seal =
                    (fun prng _ tuples ->
                      let sums = own_partials ~schema:right_schema ~kinds ~own_side:R tuples in
                      List.mapi
                        (fun index kind ->
                          let plain =
                            match kind with
                            | K_count -> List.length tuples
                            | _ -> List.assoc index sums
                          in
                          Paillier.encrypt prng ppk (Bigint.of_int plain))
                        kinds);
                  payload = cts;
                  forward = Round.Id;
                  labels = ("agg-ciphertexts", "hashes-2", "doubly-encrypted");
                }
          in
          (* Mediator: match, then combine the matched ciphertexts. *)
          let matched =
            Option.bind doubled (fun (left, right) ->
                step Mediator "mediator-match" (fun () ->
                    List.map snd (Round.pairs ~left ~right)))
          in
          Option.iter
            (fun m -> Outcome.Builder.mediator_sees b "intersection-size" (List.length m))
            matched;
          let totals =
            Option.bind matched (fun matched ->
                step Mediator "mediator-combine" (fun () ->
                    let mediator_prng = Env.prng_for env "agg-mediator" in
                    List.mapi
                      (fun index _ ->
                        match List.map (fun cts -> List.nth cts index) matched with
                        | [] -> Paillier.encrypt mediator_prng ppk Bigint.zero
                        | first :: rest -> List.fold_left (Paillier.add ppk) first rest)
                      kinds))
          in
          let totals =
            Codec.exchange link ~phase:"client-postprocess" ~sender:Mediator ~receiver:Client
              ~label:"aggregate-totals" cts totals
          in
          (match totals with
          | Some totals when computes Client ->
            Outcome.Builder.client_sees b "ciphertexts-received" (List.length totals);
            step Client "client-postprocess" (fun () ->
                let schema =
                  Schema.make
                    (List.map
                       (fun (spec : Aggregate.spec) ->
                         Schema.attr spec.Aggregate.alias Value.Tint)
                       specs)
                in
                let row =
                  List.map
                    (fun ct ->
                      Value.Int (Bigint.to_int (Paillier.decrypt client.Env.paillier_key ct)))
                    totals
                in
                ( finalize (Relation.of_rows schema [ row ]),
                  Option.fold ~none:0 ~some:List.length matched ))
          | _ -> None)
      in
      client_view)
