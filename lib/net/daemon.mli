(** The lifecycle every daemon shares — the mediator ({!Server}) and a
    datasource ({!Peer.source}) alike: drain state, SIGTERM, the frames
    answered before any admission, and the accept loop that ends a
    drain.  Each daemon keeps its own session handling and teardown. *)

type t

val create :
  role:Secmed_mediation.Transcript.party -> scenario:string -> drain_deadline:float -> t
(** [scenario] is the digest a [Drain] or [Hello] frame must carry;
    [drain_deadline] bounds a drain started by SIGTERM or by a [Drain]
    frame that names no deadline of its own. *)

val draining : t -> bool

val serve :
  t ->
  listen_fd:Unix.file_descr ->
  io_timeout:float ->
  active:(unit -> int) ->
  idle:(unit -> bool) ->
  (Io.conn -> Frame.t -> unit) ->
  unit
(** Install SIGTERM → drain, then accept connections on [listen_fd],
    each on its own thread with [io_timeout] per blocking operation.  A
    connection's first frame is answered here when every daemon answers
    it the same way:
    - [Ping] gets [Health] (with [active ()] sessions in flight);
    - [Drain] with the right digest starts the drain and gets
      [Drain_ok]; with a wrong one it gets [Busy];
    - a [Hello] with a wrong digest gets [Busy].

    Any other first frame goes to the daemon's handler.  The connection
    is closed when the handler returns, and a transport or decode error
    just ends it.  The loop ticks on a 0.2 s select, so a drain is seen
    promptly; it keeps accepting while draining (probes stay answerable,
    late [Hello]s get refused by the handler) and returns once [idle ()]
    holds or the drain deadline has passed, closing the listener.  Before
    it closes, every connection already queued on the listener is
    accepted and answered the same way, with an I/O timeout of at most
    a second, so a peer that connected during the drain reads a typed
    refusal, never a reset. *)
