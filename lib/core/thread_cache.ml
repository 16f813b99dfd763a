open Secmed_crypto

(* Each parked thread waits on its own condition for a task put in its
   own slot, so [spawn] wakes exactly the thread it hands the task to.
   The most recently parked thread is reused first.  One mutex guards
   the parked list and every slot. *)
type slot = { wake : Condition.t; mutable task : (unit -> unit) option }

let mu = Mutex.create ()
let idle = ref []

let run task =
  (try task () with e -> Thread.default_uncaught_exception_handler e);
  Counters.release ()

let rec worker slot task =
  run task;
  worker slot
    (Mutex.protect mu (fun () ->
         idle := slot :: !idle;
         while Option.is_none slot.task do
           Condition.wait slot.wake mu
         done;
         let next = Option.get slot.task in
         slot.task <- None;
         next))

let spawn task =
  if not (Domain.is_main_domain ()) then ignore (Thread.create run task : Thread.t)
  else begin
    let handed =
      Mutex.protect mu (fun () ->
          match !idle with
          | slot :: rest ->
            idle := rest;
            slot.task <- Some task;
            Condition.signal slot.wake;
            true
          | [] -> false)
    in
    if not handed then
      ignore
        (Thread.create (fun () -> worker { wake = Condition.create (); task = None } task) ()
          : Thread.t)
  end

let parked () = Mutex.protect mu (fun () -> List.length !idle)
