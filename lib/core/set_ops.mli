(** Secure mediation of further relational operations (the paper's
    Section 8: "Inclusion of other relational operations is a demanding
    field of further research").

    All three operations run the commutative round
    ({!Commutative_round}) in which only the *left* source seals
    payloads — the mediator keeps them and forwards ids — while the right
    source contributes bare commutatively-encrypted key hashes.  The
    mediator matches doubly-encrypted hashes exactly as in Listing 3 and
    forwards the selected left payloads:

    - {b Intersection}: keys are whole tuples; matched payloads decrypt to
      the distinct tuples present in both relations.
    - {b Semi-join} (R1 ⋉ R2): keys are the join attributes; matched
      payloads carry Tup_1(a), so the client obtains every R1 tuple whose
      key appears in R2 (bag semantics).
    - {b Difference} (R1 ∖ R2): keys are whole tuples; the mediator
      forwards the *unmatched* payloads.

    Compared to running the full join protocol and projecting, the right
    source ships no tuple data at all — the ablation benchmark quantifies
    the saving. *)

type op =
  | Intersection
  | Semi_join
  | Difference

val op_name : op -> string

val run :
  ?fault:Secmed_mediation.Fault.plan ->
  ?on:string list ->
  Env.t ->
  Env.client ->
  op ->
  left:string ->
  right:string ->
  Outcome.t
(** [run env client op ~left ~right] mediates the operation over the two
    named global relations.  [on] overrides the key attributes for
    {!Semi_join} (default: all common attributes); it is ignored by the
    whole-tuple operations.  Raises [Invalid_argument] when the relations
    are not layout-compatible for {!Intersection}/{!Difference}, plus
    everything {!Request.run} raises.

    Every message goes through {!Secmed_mediation.Link}, so with a fault
    plan the run may raise [Secmed_mediation.Fault.Fault_detected]:
    channel faults at the receiver, a payload that fails authentication
    (byzantine [Malformed_ciphertexts]) at the client in
    [client-postprocess], a stale re-encryption key at the mediator's
    canary audit in [mediator-match].  It makes a single attempt: retries
    are the caller's. *)
