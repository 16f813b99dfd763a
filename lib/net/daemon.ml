open Secmed_mediation

(* The drain state changes only by idempotent field writes: the SIGTERM
   handler starts a drain, and OCaml signal handlers run at any safe
   point — taking a mutex there could deadlock against the very thread
   that was interrupted. *)
type t = {
  role : Transcript.party;
  scenario : string;
  drain_deadline : float;
  mutable draining : bool;
  mutable deadline_at : float;
}

let create ~role ~scenario ~drain_deadline =
  { role; scenario; drain_deadline; draining = false; deadline_at = infinity }

let draining d = d.draining

let begin_drain d deadline =
  if not d.draining then begin
    d.deadline_at <- Unix.gettimeofday () +. deadline;
    d.draining <- true
  end

let answer d ~active handle conn =
  let reply f = Io.send_frame conn (Frame.encode f) in
  match Frame.decode (Io.recv_frame conn) with
  | Frame.Ping ->
    reply (Frame.Health { h_role = d.role; h_draining = d.draining; h_active = active () })
  | Frame.Drain { scenario; deadline } ->
    (* The same credential as the Hello handshake: only a process built
       from the shared seed can present the digest. *)
    if String.equal scenario d.scenario then begin
      begin_drain d (if deadline > 0. then deadline else d.drain_deadline);
      reply Frame.Drain_ok
    end
    else reply (Frame.Busy "drain refused: scenario digest mismatch")
  | Frame.Hello { scenario; _ } when not (String.equal scenario d.scenario) ->
    reply (Frame.Busy "scenario digest mismatch (wrong workload or parameters)")
  | frame -> handle conn frame

(* [Io.accept]'s timeout binds the accepted connection, not the accept
   call, so a blocking accept would pin a drained daemon to its socket
   until one more peer showed up: the loop ticks on a short select.
   Each accepted connection runs on a parked thread from
   [Thread_cache], which serves a later connection once this one is
   done. *)
let serve d ~listen_fd ~io_timeout ~active ~idle handle =
  Sys.set_signal Sys.sigterm (Sys.Signal_handle (fun _ -> begin_drain d d.drain_deadline));
  let connection conn =
    Fun.protect ~finally:(fun () -> Io.close conn) @@ fun () ->
    try answer d ~active handle conn with Io.Transport_error _ | Wire.Malformed _ -> ()
  in
  let rec loop () =
    if d.draining && (idle () || Unix.gettimeofday () > d.deadline_at) then ()
    else
      match Unix.select [ listen_fd ] [] [] 0.2 with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
      | exception Unix.Unix_error _ -> ()
      | [], _, _ -> loop ()
      | _ :: _, _, _ ->
        (match Io.accept ~timeout:io_timeout listen_fd with
        | conn -> Secmed_core.Thread_cache.spawn (fun () -> connection conn)
        | exception Io.Transport_error _ -> ());
        loop ()
  in
  (* Closing the listener would reset every connection still queued on
     it: answer each first, on its own thread under a short timeout, so
     a [Hello] gets the handler's typed refusal.  At most a listen
     backlog's worth, so a flood of new peers cannot hold the exit. *)
  let rec queued n threads =
    match Unix.select [ listen_fd ] [] [] 0. with
    | _ :: _, _, _ when n > 0 -> (
      match Io.accept ~timeout:(Float.min io_timeout 1.) listen_fd with
      | conn -> queued (n - 1) (Thread.create connection conn :: threads)
      | exception Io.Transport_error _ -> threads)
    | _ | (exception Unix.Unix_error _) -> threads
  in
  loop ();
  List.iter Thread.join (queued 256 []);
  try Unix.close listen_fd with Unix.Unix_error _ -> ()
