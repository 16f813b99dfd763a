(** Selection queries over a single encrypted relation — the original DAS
    query class ([13], [19], [24] in the paper's related work), brought to
    the mediated setting.

    The source DAS-encrypts its relation ({!Das.encrypt_relation}) with
    one index table per attribute the WHERE clause references; the client
    (query translator) maps the plaintext condition to a server condition
    over index values ({!Das_translate}); the mediator — never seeing a
    plaintext — filters the encrypted rows with the relational engine and
    returns a guaranteed superset, which the client decrypts and
    post-filters. *)

exception Unsupported of string
(** Queries with joins, aggregates or GROUP BY (use the join /
    aggregation protocols for those). *)

val run :
  ?fault:Secmed_mediation.Fault.plan ->
  ?strategy:Das_partition.strategy ->
  Env.t ->
  Env.client ->
  query:string ->
  Outcome.t
(** Default strategy: [Equi_depth 4] per indexed attribute.  A query
    without a WHERE clause transfers the whole (encrypted) relation.
    Access control is {!Request.authorize}.

    Every message goes through {!Secmed_mediation.Link}, so with a fault
    plan the run may raise [Secmed_mediation.Fault.Fault_detected]:
    channel faults at the receiver, and a ciphertext that fails
    authentication at the client — the index tables in
    [client-translate], a candidate tuple in [client-postprocess].
    Byzantine sources are not modelled for selection.  It makes a single
    attempt. *)

val condition_to_wire : Secmed_relalg.Predicate.t -> string

val condition_of_wire : string -> Secmed_relalg.Predicate.t
(** The server condition q_S as it travels from the client to the
    mediator; the decoder raises only [Secmed_mediation.Wire.Malformed],
    on any hostile bytes.  The transcript models q_S at 24 bytes per
    predicate node whatever its encoding. *)
