open Secmed_crypto

(* Thread-parallel batch executor for the independent per-item crypto
   loops (source-side encryption and evaluation, the client's PM batch
   decryption).

   Parallelism.  A call of two or more items runs them on the calling
   thread and on helper systhreads, one fewer than the machine's
   recommended domain count and at most one fewer than the items.  The
   threads share one domain and so one runtime lock: they overlap only
   inside the kernel's large exponentiations (every Paillier call),
   which run without it, and other work runs one thread at a time.
   Domains would overlap everywhere; the executor has not moved to them
   yet.  Helpers are parked threads from {!Thread_cache}; they and the
   caller take items from a shared atomic cursor, and the caller returns
   once every helper has counted itself finished (on the process's one
   wait condition, below).

   Determinism.  Outputs do not depend on which thread ran which item.
   Work needing randomness goes through {!map_seeded}: item [i] gets its
   own PRNG stream [Prng.split prng (label ^ "#" ^ i)], derived from the
   parent's seed alone — never a shared mutable [Prng.t] whose position
   would depend on scheduling.

   Counting.  [Counters] state is per-thread; each helper starts at zero
   (the cache releases a thread's table after every task), and once the
   helpers are done the calling thread folds their snapshots back in with
   [Counters.merge], inside the caller's open phase span — so the span's
   [ops.<primitive>] attributes are the same as a sequential run's. *)

let item_prng prng label i = Prng.split prng (label ^ "#" ^ string_of_int i)

(* Every call's caller waits for its helpers on this one pair, shared by
   all calls: each caller rechecks its own count. *)
let mu = Mutex.create ()
let finished = Condition.create ()

(* Apply [f i item] over the array.  After an item fails, no thread
   takes a further item; the ones already taken finish, and since the
   cursor hands out indices in order, every item below the failed one
   has run, so the lowest failing index is the one a sequential map
   would raise.  It is re-raised after every helper has finished. *)
let parallel_mapi f items =
  let n = Array.length items in
  let helpers = min (Domain.recommended_domain_count () - 1) (n - 1) in
  if helpers <= 0 then Array.mapi f items
  else begin
    let results = Array.make n None in
    let cursor = Atomic.make 0 and failed = Atomic.make false in
    let rec work () =
      if not (Atomic.get failed) then begin
        let i = Atomic.fetch_and_add cursor 1 in
        if i < n then begin
          (match f i items.(i) with
           | v -> results.(i) <- Some (Ok v)
           | exception e ->
             results.(i) <- Some (Error e);
             Atomic.set failed true);
          work ()
        end
      end
    in
    let counts = Array.make helpers [] in
    let pending = ref helpers in
    let helper h () =
      work ();
      counts.(h) <- Counters.snapshot ();
      Mutex.protect mu (fun () ->
          decr pending;
          (* Other calls may wait on the same condition. *)
          if !pending = 0 then Condition.broadcast finished)
    in
    for h = 0 to helpers - 1 do
      Thread_cache.spawn (helper h)
    done;
    work ();
    Mutex.protect mu (fun () ->
        while !pending > 0 do
          Condition.wait finished mu
        done);
    Array.iter Counters.merge counts;
    Array.map
      (function
        | Some (Ok v) -> v
        | Some (Error e) -> raise e
        | None -> assert false)
      results
  end

let parallel_map f items = parallel_mapi (fun _ x -> f x) items

let map_seeded ~prng ~label f items =
  parallel_mapi (fun i item -> f i (item_prng prng label i) item) items

let map_list f items = Array.to_list (parallel_map f (Array.of_list items))

let map_seeded_list ~prng ~label f items =
  Array.to_list (map_seeded ~prng ~label f (Array.of_list items))
