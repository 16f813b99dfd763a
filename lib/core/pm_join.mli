(** The private-matching delivery phase (paper Listing 4, after Freedman,
    Nissim and Pinkas).

    The client is the only holder of a homomorphic (Paillier) key pair; its
    public key is distributed with the credentials.  Each source encodes
    its active join domain as the roots of a polynomial, sends the
    encrypted coefficients through the mediator to the opposite source,
    which homomorphically evaluates the polynomial at each of its own
    values, masks with fresh randomness and embeds its value and payload:
    e = E(r·P(a) + (a ‖ payload)).  The client decrypts all n+m values;
    only values in the intersection decrypt to well-formed payloads. *)

type variant =
  | Direct_payload
      (** the tuple set itself is packed into the Paillier plaintext
          (limited by the plaintext capacity) *)
  | Session_keys
      (** the paper's footnote-2 refinement: only a session key and an ID
          are packed; the tuple sets travel DEM-encrypted in an ID table *)

val variant_name : variant -> string

val run :
  ?fault:Secmed_mediation.Fault.plan ->
  ?endpoint:Secmed_mediation.Link.transport ->
  ?variant:variant ->
  Env.t ->
  Env.client ->
  query:string ->
  Outcome.t
(** Default variant: [Session_keys] (never hits capacity limits).  With
    [Direct_payload], a Tup_i(a) that does not fit the Paillier
    plaintext space raises [Secmed_mediation.Fault.Fault_detected],
    blamed on the evaluating source in its ["source-evaluate"] phase.

    With a fault plan the run may raise
    [Secmed_mediation.Fault.Fault_detected]: channel faults are caught by
    the integrity envelope, garbage Paillier values by the receivers'
    group-membership check, and damaged ID-table blobs (byzantine
    [Malformed_ciphertexts], session-key variant) at the client, which
    fails closed on any root-matched entry whose payload does not
    recover. *)

val root_of_value : Secmed_relalg.Value.t -> Secmed_bigint.Bigint.t
(** Deterministic 128-bit encoding of a join value into the plaintext ring
    (shared by both sources; exposed for tests). *)
