(** Secure mediation of aggregation queries over a join
    (SELECT ... COUNT/SUM/MIN/MAX/AVG ... FROM R1 NATURAL JOIN R2
    [GROUP BY A_join]).

    Related work the paper surveys ([14], [9], [18]) computes aggregates
    over encrypted data; this module brings that query class to the
    mediated setting.  The key observation: every aggregate over the join
    decomposes into per-join-key statistics each source can compute on its
    own plaintext — count c_i(a), sum/min/max of its own columns over
    Tup_i(a) — so the sources only ship *per-key aggregate bundles*, never
    tuples.  Matching is the commutative round of Listing 3
    ({!Commutative_round}).

    Two delivery strategies:

    - {b Bundles} (default): each source hybrid-encrypts one bundle per
      key; the mediator keeps both sets, forwards ids, and sends the client
      the matched pairs; the client combines
      them (e.g. SUM(R2.y) = Σ_a c_1(a)·s_2(a)).  The client learns per-key
      aggregates — strictly less than the full join it is entitled to.
    - {b Homomorphic}: for scalar (non-grouped) COUNT/SUM over right-side
      columns with duplicate-free left join keys, the left source sends
      bare hashes, the right source Paillier ciphertexts (forwarded by id),
      and the *mediator* combines the matched ones
      homomorphically, so the client receives a single ciphertext per
      aggregate and learns nothing but the totals. *)

type strategy =
  | Bundles
  | Homomorphic

exception Unsupported of string
(** Query shapes outside this protocol: a residual WHERE, GROUP BY on
    anything but the join attributes, aggregated columns not clearly
    belonging to one relation, or — for {!Homomorphic} — grouped queries,
    non-COUNT/SUM aggregates, left-side columns, or a left relation whose
    join keys are not duplicate-free. *)

val run :
  ?fault:Secmed_mediation.Fault.plan ->
  ?strategy:strategy ->
  Env.t ->
  Env.client ->
  query:string ->
  Outcome.t
(** The outcome's [result] is the aggregate relation (group keys followed
    by one column per aggregate, or a single row for scalar queries);
    [exact] is the trusted-mediator reference.

    Every message goes through {!Secmed_mediation.Link}, so with a fault
    plan the run may raise [Secmed_mediation.Fault.Fault_detected]:
    channel faults at the receiver, a bundle that fails authentication
    (byzantine [Malformed_ciphertexts]) at the client in
    [client-postprocess], a stale re-encryption key at the mediator's
    canary audit in [mediator-match].  It makes a single attempt. *)
