(** Socket plumbing: framed, timeout-guarded, short-read/short-write safe.

    Everything [Secmed_net] puts on a wire is a {!Wire.frame}: a 4-byte
    big-endian length prefix followed by the body.  This module owns the
    two hard parts of stream sockets — partial reads and partial writes —
    so every layer above deals only in complete frames.

    All I/O failures (closed peer, reset, timeout, malformed framing)
    surface as {!Transport_error}; callers translate that into a typed
    fault at the protocol layer. *)

exception Transport_error of string

type conn
(** One connected stream socket plus its receive buffer and byte
    counters.  Sends are serialized by an internal mutex so concurrent
    session threads can share a connection without interleaving frames;
    receives are {e not} — a connection must have a single reader
    (either the owning thread or a {!Endpoint.Mux} receive thread). *)

val of_fd : ?timeout:float -> peer:string -> Unix.file_descr -> conn
(** Wrap an already-connected descriptor.  [timeout] (seconds) applies
    to each blocking read and write ([SO_RCVTIMEO]/[SO_SNDTIMEO]);
    [0.] or omitted means block indefinitely. *)

val parse_addr : string -> (string * int, string) result
(** ["HOST:PORT"], the address syntax of every flag: PORT in 1–65535,
    HOST an IPv4 address or name without [':'], [','], [';'], ['='] or
    blanks, and an empty HOST means [127.0.0.1] ([":7000"]). *)

val connect : ?timeout:float -> host:string -> port:int -> unit -> conn
(** TCP connect (with [TCP_NODELAY]); raises {!Transport_error} when the
    peer is unreachable. *)

val listen : ?backlog:int -> ?host:string -> port:int -> unit -> Unix.file_descr * int
(** Bound, listening socket (with [SO_REUSEADDR]) and the port actually
    bound — pass [port:0] for an ephemeral port.  Every socket this
    module opens ({!connect}, [listen], {!accept}) is close-on-exec, so
    no program the process starts inherits one. *)

val accept : ?timeout:float -> Unix.file_descr -> conn
(** Block until a peer connects. *)

val set_timeout : conn -> float -> unit
(** Change the per-operation timeout of both directions. *)

val closed_by_peer : conn -> bool
(** Whether a read on this connection met end of file or a reset: the
    peer closed it.  A timeout does not count. *)

val bytes_in : conn -> int
val bytes_out : conn -> int
(** Raw socket bytes moved (framing included) since the connection was
    wrapped.  Bytes and complete frames are also summed process-wide
    into the [net.bytes_sent], [net.bytes_recv], [net.frames_sent] and
    [net.frames_recv] metrics counters. *)

val send_frame : conn -> string -> unit
(** Frame [body] and write it whole, looping over short writes and
    [EINTR]; [EAGAIN]/[EWOULDBLOCK] (the send timeout) and any socket
    error raise {!Transport_error}. *)

val send_raw : conn -> string -> unit
(** Write bytes with no framing — only for the chaos proxy's truncated
    frames, which are deliberately not valid wire units. *)

val recv_frame : conn -> string
(** The next complete frame body, reading as many chunks as needed.
    EOF mid-frame, a timeout, or an over-limit length prefix raise
    {!Transport_error}. *)

val attach_reader : conn -> Thread.t -> unit
(** Declare the thread that reads this connection (an {!Endpoint.Mux}
    receive thread).  {!close} then shuts the socket down and joins the
    thread before releasing the descriptor. *)

val close : conn -> unit
(** Idempotent.  With an attached reader (other than the caller), wakes
    it by a shutdown and waits for it to exit first, so no reader
    outlives the descriptor and steals frames from whatever socket
    reuses the number. *)

val shutdown : conn -> unit
(** [Unix.shutdown] both directions without releasing the descriptor:
    reliably wakes any thread blocked reading this socket (which a
    cross-thread [close] need not), surfacing as {!Transport_error} at
    the reader.  Safe to call concurrently with the owner; idempotent
    and silent on an already-closed connection. *)
