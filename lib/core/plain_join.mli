(** Non-private reference pipeline: the sources ship plaintext partial
    results and the (trusted) mediator joins them — Figure 1's basic
    mediated system.  Used as the correctness oracle and the no-crypto
    baseline in benchmarks. *)

val run :
  ?fault:Secmed_mediation.Fault.plan ->
  ?endpoint:Secmed_mediation.Link.transport ->
  Env.t ->
  Env.client ->
  query:string ->
  Outcome.t
(** With a fault plan the run may raise
    [Secmed_mediation.Fault.Fault_detected] on the plaintext links (the
    integrity envelope still applies — the reference pipeline fails closed
    like the others so the differential suite can compare them). *)
