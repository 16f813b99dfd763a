(** The prior-work baseline ([4]: "Secure mediation with mobile code").

    The datasources hybrid-encrypt their complete partial results; the
    mediator cannot combine them and instead forwards everything to the
    client together with an executable join program (here: the rendered
    algebra tree standing in for the mobile code).  The client decrypts
    both partial results and computes the join locally.  Functionally
    correct, but the client receives both full partial results — exactly
    the disclosure the paper's three protocols improve on. *)

val run :
  ?fault:Secmed_mediation.Fault.plan ->
  ?endpoint:Secmed_mediation.Link.transport ->
  Env.t ->
  Env.client ->
  query:string ->
  Outcome.t
(** With a fault plan the run may raise
    [Secmed_mediation.Fault.Fault_detected] (integrity envelope on the
    forwarded ciphertexts; authenticated decryption at the client). *)
