(** The in-memory transport.  A run in one process speaks for, and
    computes, every party, and takes the deployment's path: each delivery
    crosses this transport as bytes in the same [Fault.frame] integrity
    envelope the socket chunks carry, and a chosen fault damages those
    bytes through [Fault.damage].  So a damaged delivery fails the same
    tag check, with the same typed reason, as on the wire; a dropped one
    fails its sender with {!Fault.lost}; a replayed copy is discarded by
    the reader; a delay really waits. *)

val transport : ?after_io:(phase:string -> unit) -> unit -> Link.transport
(** A fresh transport.  [after_io] runs after every send and every
    receive: [Protocol.run_session] checks its query deadline there, as
    the mediator does on its sockets, so a [Delay] trips the budget on
    real time. *)
