(* A bounded pool of worker systhreads with a FIFO submission queue.

   The mediator hands each accepted session to [run], which blocks the
   connection thread until a worker has executed the thunk and either
   returns its result or re-raises its exception.  Admission control
   (Server.max_sessions) bounds how many sessions are accepted at all;
   the pool bounds how many protocol drivers execute at once — sessions
   beyond [workers] queue in FIFO order instead of failing.  Workers are
   plain systhreads: driver state (Counters, Bigint caches) is
   thread-local, so concurrent drivers on different workers never
   interleave their accounting. *)

exception Stopped

type job = Job : (unit -> 'a) * 'a slot -> job

and 'a slot = {
  mutable outcome : 'a outcome;
  s_mu : Mutex.t;
  s_cond : Condition.t;
}

and 'a outcome = Pending | Done of 'a | Raised of exn * Printexc.raw_backtrace

type t = {
  mu : Mutex.t;
  cond : Condition.t;
  queue : job Queue.t;
  mutable stopping : bool;
  mutable threads : Thread.t list;
  workers : int;
  (* Lifetime accounting, all under [mu]; [busy_seconds] accumulates
     wall time inside job thunks, so utilization over an interval is
     (Δbusy_seconds / Δwall) / workers. *)
  mutable busy : int;
  mutable submitted : int;
  mutable completed : int;
  mutable rejected : int;
  mutable busy_seconds : float;
}

type stats = {
  st_workers : int;
  st_busy : int;
  st_queued : int;
  st_submitted : int;
  st_completed : int;
  st_rejected : int;
  st_busy_seconds : float;
}

let worker t =
  let rec loop () =
    let job =
      Mutex.protect t.mu (fun () ->
          while Queue.is_empty t.queue && not t.stopping do
            Condition.wait t.cond t.mu
          done;
          if Queue.is_empty t.queue then None
          else begin
            t.busy <- t.busy + 1;
            Some (Queue.pop t.queue)
          end)
    in
    match job with
    | None -> ()
    | Some (Job (f, slot)) ->
      let started = Unix.gettimeofday () in
      let outcome =
        match f () with
        | v -> Done v
        | exception e -> Raised (e, Printexc.get_raw_backtrace ())
      in
      Mutex.protect t.mu (fun () ->
          t.busy <- t.busy - 1;
          t.completed <- t.completed + 1;
          t.busy_seconds <- t.busy_seconds +. (Unix.gettimeofday () -. started));
      Mutex.protect slot.s_mu (fun () ->
          slot.outcome <- outcome;
          Condition.signal slot.s_cond);
      loop ()
  in
  loop ()

let create ~workers =
  let workers = max 1 workers in
  let t =
    {
      mu = Mutex.create ();
      cond = Condition.create ();
      queue = Queue.create ();
      stopping = false;
      threads = [];
      workers;
      busy = 0;
      submitted = 0;
      completed = 0;
      rejected = 0;
      busy_seconds = 0.;
    }
  in
  t.threads <- List.init workers (fun _ -> Thread.create worker t);
  t

let workers t = t.workers

let stats t =
  Mutex.protect t.mu (fun () ->
      {
        st_workers = t.workers;
        st_busy = t.busy;
        st_queued = Queue.length t.queue;
        st_submitted = t.submitted;
        st_completed = t.completed;
        st_rejected = t.rejected;
        st_busy_seconds = t.busy_seconds;
      })

let run t f =
  let slot = { outcome = Pending; s_mu = Mutex.create (); s_cond = Condition.create () } in
  Mutex.protect t.mu (fun () ->
      if t.stopping then raise Stopped;
      t.submitted <- t.submitted + 1;
      Queue.push (Job (f, slot)) t.queue;
      Condition.signal t.cond);
  let pending () = match slot.outcome with Pending -> true | _ -> false in
  Mutex.protect slot.s_mu (fun () ->
      while pending () do
        Condition.wait slot.s_cond slot.s_mu
      done);
  match slot.outcome with
  | Done v -> v
  | Raised (e, bt) -> Printexc.raise_with_backtrace e bt
  | Pending -> assert false

(* Queued-but-unstarted jobs are rejected with a typed [Stopped] raised
   at their blocked submitter, not silently dropped (which would leave
   the submitter waiting forever on a slot no worker will ever fill). *)
let stop t =
  let rejected =
    Mutex.protect t.mu (fun () ->
        t.stopping <- true;
        let jobs = List.of_seq (Queue.to_seq t.queue) in
        Queue.clear t.queue;
        t.rejected <- t.rejected + List.length jobs;
        Condition.broadcast t.cond;
        jobs)
  in
  List.iter
    (fun (Job (_, slot)) ->
      Mutex.protect slot.s_mu (fun () ->
          slot.outcome <- Raised (Stopped, Printexc.get_callstack 0);
          Condition.signal slot.s_cond))
    rejected;
  List.iter Thread.join t.threads;
  t.threads <- []
