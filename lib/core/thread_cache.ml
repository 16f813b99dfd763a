open Secmed_crypto

(* Each parked thread waits on its own condition for a task put in its
   own slot, so [spawn] wakes exactly the thread it hands the task to.
   The most recently parked thread is reused first.  One mutex guards
   the parked list and every slot. *)
type slot = { wake : Condition.t; mutable task : (unit -> unit) option }

type cache = { pid : int; mu : Mutex.t; mutable idle : slot list; parent : cache option }

let fresh parent = { pid = Unix.getpid (); mu = Mutex.create (); idle = []; parent }

let current = Atomic.make (fresh None)

(* A forked child inherits the parent's record, but not its threads,
   and perhaps its mutex held by a thread that no longer exists.  The
   child's own record keeps the parent's reachable: the finalizer of a
   condition that a parent's thread was parked on would call
   [pthread_cond_destroy], which waits for that waiter to leave — in
   the child, forever, and inside the GC, holding the runtime lock. *)
let cache () =
  let c = Atomic.get current in
  if c.pid = Unix.getpid () then c
  else begin
    ignore (Atomic.compare_and_set current c (fresh (Some c)) : bool);
    Atomic.get current
  end

let run task =
  (try task () with e -> Thread.default_uncaught_exception_handler e);
  Counters.release ()

(* In a child forked inside [task], [c] is the parent's cache: the
   thread ends instead of parking there. *)
let rec worker c slot task =
  run task;
  if c.pid = Unix.getpid () then
    worker c slot
      (Mutex.protect c.mu (fun () ->
           c.idle <- slot :: c.idle;
           while Option.is_none slot.task do
             Condition.wait slot.wake c.mu
           done;
           let next = Option.get slot.task in
           slot.task <- None;
           next))

let spawn task =
  if not (Domain.is_main_domain ()) then ignore (Thread.create run task : Thread.t)
  else begin
    let c = cache () in
    let handed =
      Mutex.protect c.mu (fun () ->
          match c.idle with
          | slot :: rest ->
            c.idle <- rest;
            slot.task <- Some task;
            Condition.signal slot.wake;
            true
          | [] -> false)
    in
    if not handed then
      ignore
        (Thread.create (fun () -> worker c { wake = Condition.create (); task = None } task) ()
          : Thread.t)
  end

let parked () =
  let c = cache () in
  Mutex.protect c.mu (fun () -> List.length c.idle)
