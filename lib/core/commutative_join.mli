(** The commutative-encryption delivery phase (paper Listing 3, after
    Agrawal et al.).

    Each source commutatively encrypts the ideal-hash values of its active
    join domain and hybrid-encrypts the associated tuple sets Tup_i(a); the
    sets of messages are exchanged through the mediator so each side adds
    its own key on top of the other's.  Commutativity makes the doubly
    encrypted hashes of equal join values collide, letting the mediator
    assemble exactly the matching pairs — the client receives the exact
    global result, encrypted. *)

val run :
  ?fault:Secmed_mediation.Fault.plan ->
  ?endpoint:Secmed_mediation.Link.transport ->
  ?use_ids:bool ->
  Env.t ->
  Env.client ->
  query:string ->
  Outcome.t
(** [use_ids] enables the paper's footnote-1 optimization: the mediator
    keeps the encrypted tuple sets and forwards only fixed-length IDs with
    the hash values, so sources never see each other's ciphertexts and the
    exchange shrinks.  Default [false] (the literal Listing 3).

    With a fault plan the run may raise
    [Secmed_mediation.Fault.Fault_detected]: channel faults are caught by
    the integrity envelope, byzantine ciphertexts at the client's
    authenticated decryption, and a stale re-encryption key by the canary
    audit the mediator runs when a plan is installed (a public canary
    value is double-encrypted along both paths and the results compared —
    commutativity makes honest paths agree). *)
