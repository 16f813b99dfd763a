(** A fault-injecting TCP proxy: the {!Secmed_mediation.Fault} rule
    table replayed against live byte streams.

    Interpose an instance on a mediator↔datasource link and it decodes
    the frames flowing through, matches each delivery — by its first
    [Msg_chunk] frame — against the plan's rules by
    (sender, receiver, label), consuming [times] counters exactly as the
    simulated layer does, and damages that frame for
    real: dropped frames are never forwarded, delays stall the socket,
    corruption flips payload bits, truncation cuts a frame short and
    kills the connection.  The conformance suite checks that each
    surfaces as the same typed outcome as its simulated counterpart.

    Everything it does is appended to the plan's event log via
    {!Fault.log_external}. *)

open Secmed_mediation

type t

val start :
  plan:Fault.plan ->
  target_host:string ->
  target_port:int ->
  ?port:int ->
  ?listen:Unix.file_descr * int ->
  unit ->
  t
(** Listen (default: an ephemeral port on 127.0.0.1; [listen] supplies
    an already-bound socket instead, so a harness can reserve ports
    before forking) and, per accepted connection, dial the target and
    pump frames both ways through the rule table. *)

val port : t -> int
(** Where to point the party that believes it is dialing the target. *)

val plan : t -> Fault.plan
(** The live plan — its event log accumulates what the proxy did. *)

val stop : t -> unit
(** Shut the listener down (it refuses connections from now on, and the
    accepting thread closes it as it leaves) and every live proxied
    connection; its two pump threads then stop and close it. *)
