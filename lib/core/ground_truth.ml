open Secmed_relalg

type t = {
  card_left : int;
  card_right : int;
  domactive_left : int;
  domactive_right : int;
  domactive_intersection : int;
  exact_join_pairs : int;
}

let compute_keys left right ~join_attrs =
  let dom_left = Join_key.distinct_keys left join_attrs in
  let dom_right = Join_key.distinct_keys right join_attrs in
  let intersection =
    List.filter (fun k -> List.exists (Join_key.equal k) dom_right) dom_left
  in
  let groups relation = Join_key.group_by relation join_attrs in
  let right_groups = groups right in
  let exact_join_pairs =
    List.fold_left
      (fun acc (key, tuples) ->
        match List.find_opt (fun (k, _) -> Join_key.equal k key) right_groups with
        | Some (_, opposite) -> acc + (List.length tuples * List.length opposite)
        | None -> acc)
      0 (groups left)
  in
  {
    card_left = Relation.cardinality left;
    card_right = Relation.cardinality right;
    domactive_left = List.length dom_left;
    domactive_right = List.length dom_right;
    domactive_intersection = List.length intersection;
    exact_join_pairs;
  }

let compute left right ~join_attr = compute_keys left right ~join_attrs:[ join_attr ]

let pp fmt t =
  Format.fprintf fmt
    "|R1|=%d |R2|=%d |dom1|=%d |dom2|=%d |dom1∩dom2|=%d |R1⋈R2|=%d" t.card_left
    t.card_right t.domactive_left t.domactive_right t.domactive_intersection
    t.exact_join_pairs
