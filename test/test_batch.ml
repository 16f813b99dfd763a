(* Differential tests of the thread-parallel Batch executor: each call
   equals a sequential map over the same per-item streams, counters merge
   to the sequential totals, the lowest-index exception is the one
   raised, a process that ran a parallel batch can still fork (also while
   threads wait in a batch and on a mux), and all
   five schemes give identical results, transcripts and counters on
   repeated runs, whose thread interleavings differ.  Then the thread
   cache the helpers come from: reuse, a clean start per task, and a
   raising task. *)

open Secmed_crypto
open Secmed_relalg
open Secmed_core

let fast = { Env.group_bits = 160; paillier_bits = 384 }

let small_spec =
  {
    Workload.default with
    rows_left = 10;
    rows_right = 10;
    distinct_left = 5;
    distinct_right = 5;
    overlap = 3;
    extra_attrs = 1;
  }

(* The per-item stream Batch.map_seeded documents. *)
let stream prng label i = Prng.split prng (label ^ "#" ^ string_of_int i)

(* ------------------------------------------------------------------ *)
(* Executor semantics. *)

let test_parallel_map_basics () =
  let items = Array.init 37 Fun.id in
  Alcotest.(check (array int)) "map" (Array.map (fun x -> x * x) items)
    (Batch.parallel_map (fun x -> x * x) items);
  Alcotest.(check (array int)) "mapi passes indices"
    (Array.init 10 (fun i -> 2 * i))
    (Batch.parallel_mapi (fun i x -> i + x) (Array.init 10 Fun.id));
  Alcotest.(check (array int)) "empty input" [||] (Batch.parallel_map Fun.id [||]);
  Alcotest.(check (array int)) "one item" [| 7 |] (Batch.parallel_map Fun.id [| 7 |]);
  Alcotest.(check (list int)) "list wrapper" [ 2; 4; 6 ]
    (Batch.map_list (fun x -> 2 * x) [ 1; 2; 3 ]);
  let prng = Prng.create ~seed:"batch-streams" in
  let draw _ prng x = x ^ Prng.bytes prng 16 in
  let labels = Array.init 9 string_of_int in
  Alcotest.(check (array string)) "map_seeded is Array.mapi over the per-item streams"
    (Array.mapi (fun i x -> draw i (stream prng "s" i) x) labels)
    (Batch.map_seeded ~prng ~label:"s" draw labels);
  (* Items that sleep give up the runtime lock, so on a machine with two
     or more cores a helper thread takes some of them. *)
  if Domain.recommended_domain_count () >= 2 then begin
    let ids =
      Batch.parallel_map
        (fun () ->
          Thread.delay 0.002;
          Thread.id (Thread.self ()))
        (Array.make 8 ())
    in
    Alcotest.(check bool) "a helper thread ran items" true
      (Array.exists (fun id -> id <> ids.(0)) ids)
  end

(* Items 5, 9 and 20 raise; item 5 sleeps first, so a later item fails
   earlier in time, and the exception raised must still be item 5's. *)
let test_lowest_exception () =
  let fail i = Failure (string_of_int i) in
  let f i =
    if i = 5 then begin
      Thread.delay 0.01;
      raise (fail i)
    end
    else if i = 9 || i = 20 then raise (fail i)
    else i
  in
  for _ = 1 to 5 do
    Alcotest.check_raises "lowest-index exception" (fail 5) (fun () ->
        ignore (Batch.parallel_map f (Array.init 37 Fun.id)))
  done;
  Alcotest.check_raises "same as Array.map" (fail 5) (fun () ->
      ignore (Array.map f (Array.init 37 Fun.id)))

(* ------------------------------------------------------------------ *)
(* The thread cache: parked threads are reused, start each task clean,
   survive a raising task, and leave a forked child a cache of its own. *)

(* Wait until at least [n] threads are parked: a thread parks only after
   its task has returned, so a caller that awaited the task alone could
   race the park and see a fresh thread. *)
let await_parked n =
  let deadline = Unix.gettimeofday () +. 10. in
  while Thread_cache.parked () < n && Unix.gettimeofday () < deadline do
    Thread.delay 0.001
  done;
  if Thread_cache.parked () < n then Alcotest.fail "no thread parked"

(* Run [f] through the cache and return its result once its thread has
   parked again. *)
let on_cache f =
  let before = Thread_cache.parked () in
  let mu = Mutex.create () and cv = Condition.create () and result = ref None in
  Thread_cache.spawn (fun () ->
      let v = f () in
      Mutex.protect mu (fun () ->
          result := Some v;
          Condition.signal cv));
  let v =
    Mutex.protect mu (fun () ->
        let rec wait () =
          match !result with
          | Some v -> v
          | None ->
            Condition.wait cv mu;
            wait ()
        in
        wait ())
  in
  await_parked (max before 1);
  v

let self_id () = Thread.id (Thread.self ())

let test_sequential_tasks_one_thread () =
  let ids = List.init 10 (fun _ -> on_cache self_id) in
  Alcotest.(check (list int)) "ten tasks, one thread" (List.map (fun _ -> List.hd ids) ids) ids;
  Alcotest.(check bool) "not the caller's thread" true (List.hd ids <> self_id ())

(* Two-item calls take one helper each; parked between calls, it is the
   same helper every time. *)
let test_batch_helpers_reused () =
  let caller = self_id () in
  let helpers = Hashtbl.create 4 in
  for _ = 1 to 50 do
    let before = Thread_cache.parked () in
    let ids =
      Batch.parallel_map
        (fun () ->
          Thread.delay 0.001;
          self_id ())
        [| (); () |]
    in
    Array.iter (fun id -> if id <> caller then Hashtbl.replace helpers id ()) ids;
    if Domain.recommended_domain_count () >= 2 then await_parked (max before 1)
  done;
  Alcotest.(check bool)
    (Printf.sprintf "%d distinct helper threads" (Hashtbl.length helpers))
    true
    (Hashtbl.length helpers <= Domain.recommended_domain_count () - 1)

let test_reused_thread_starts_clean () =
  let first =
    on_cache (fun () ->
        Counters.bump_by Counters.Hash 3;
        Secmed_obs.Trace.with_collector (Secmed_obs.Trace.create ()) (fun () ->
            Counters.bump Counters.Random_number;
            Alcotest.(check bool) "collector bound in the first task" true
              (Secmed_obs.Trace.enabled ()));
        self_id ())
  in
  let id, counts, traced =
    on_cache (fun () -> (self_id (), Counters.snapshot (), Secmed_obs.Trace.enabled ()))
  in
  Alcotest.(check int) "same thread" first id;
  Alcotest.(check bool) "counters start at zero" true
    (List.for_all (fun (_, n) -> n = 0) counts);
  Alcotest.(check bool) "no collector bound" false traced

(* The report goes to stderr, which the test points at a file while the
   task runs. *)
let test_raising_task_reported () =
  let log = Filename.temp_file "thread-cache" ".err" in
  let saved = Unix.dup Unix.stderr in
  let raised_on = Atomic.make (-1) in
  Fun.protect
    ~finally:(fun () ->
      Unix.dup2 saved Unix.stderr;
      Unix.close saved)
    (fun () ->
      let fd = Unix.openfile log [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
      Unix.dup2 fd Unix.stderr;
      Unix.close fd;
      let before = Thread_cache.parked () in
      Thread_cache.spawn (fun () ->
          Atomic.set raised_on (self_id ());
          failwith "thread-cache-probe");
      await_parked (max before 1));
  let report = In_channel.with_open_bin log In_channel.input_all in
  Sys.remove log;
  let mentions s sub =
    let n = String.length sub in
    let rec at i = i + n <= String.length s && (String.sub s i n = sub || at (i + 1)) in
    at 0
  in
  Alcotest.(check bool) ("reported: " ^ String.trim report) true
    (mentions report "thread-cache-probe");
  Alcotest.(check int) "next task on the parked thread" (Atomic.get raised_on)
    (on_cache self_id)

(* A process that has just run a parallel batch can still fork: helpers
   are threads, and OCaml refuses Unix.fork only after a Domain.spawn.
   The child inherits none of the parent's parked threads: it starts a
   cache of its own, runs a task, a full major GC and a two-item batch
   there, and exits 0.  An alarm bounds a child that hangs. *)
let test_fork_after_batch () =
  let ids =
    Batch.parallel_map
      (fun () ->
        Thread.delay 0.002;
        self_id ())
      (Array.make 4 ())
  in
  Alcotest.(check int) "items ran" 4 (Array.length ids);
  if Domain.recommended_domain_count () >= 2 then await_parked 1;
  let parked = Thread_cache.parked () in
  match Unix.fork () with
  | 0 ->
    ignore (Unix.alarm 20 : int);
    let ok =
      try
        let fresh = Thread_cache.parked () = 0 in
        let ran = on_cache (fun () -> true) in
        (* The parent's parked threads wait on conditions this copy
           inherited; a major GC must not try to destroy them. *)
        Gc.full_major ();
        let squares = Batch.parallel_map (fun x -> Thread.delay 0.001; x * x) [| 3; 4 |] in
        fresh && ran && squares = [| 9; 16 |]
      with _ -> false
    in
    Unix._exit (if ok then 0 else 1)
  | pid ->
    let _, status = Unix.waitpid [] pid in
    Alcotest.(check bool) "child exited 0" true (status = Unix.WEXITED 0);
    Alcotest.(check bool) "parent's threads still parked" true (Thread_cache.parked () >= parked)

(* Fork while one thread waits in [Mux.next] and another in a [Batch]
   call for its helper.  Only those threads hold the mux and the call,
   so in the child both are garbage at once, and the finalizer of a
   condition whose waiter the child did not inherit would hang its GC:
   the child runs a full major GC and a two-item batch and must exit 0
   under an alarm.  The batch's caller takes one item and returns it
   only once the helper holds the other, which blocks on a pipe. *)
let test_fork_while_threads_wait () =
  let module Io = Secmed_net.Io in
  let module Mux = Secmed_net.Endpoint.Mux in
  let fd_a, fd_b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let a = Io.of_fd ~peer:"producer" fd_a in
  let mux_waiting = Atomic.make false in
  let mux_thread =
    Thread.create
      (fun () ->
        let mux = Mux.create (Io.of_fd ~peer:"consumer" fd_b) in
        Mux.subscribe mux 1;
        Atomic.set mux_waiting true;
        (try ignore (Mux.next mux ~session:1 ~timeout:0. : Secmed_net.Frame.t)
         with Io.Transport_error _ -> ());
        Io.close (Mux.conn mux))
      ()
  in
  let two_cores = Domain.recommended_domain_count () >= 2 in
  let release_r, release_w = Unix.pipe () in
  let helper_holds = Atomic.make (not two_cores) in
  let batch_thread =
    Thread.create
      (fun () ->
        if two_cores then begin
          let caller = self_id () in
          ignore
            (Batch.parallel_map
               (fun () ->
                 if self_id () = caller then
                   while not (Atomic.get helper_holds) do
                     Thread.delay 0.001
                   done
                 else begin
                   Atomic.set helper_holds true;
                   ignore (Unix.read release_r (Bytes.create 1) 0 1 : int)
                 end)
               [| (); () |]
              : unit array)
        end)
      ()
  in
  while not (Atomic.get mux_waiting && Atomic.get helper_holds) do
    Thread.delay 0.001
  done;
  (* Let both threads reach their condition waits. *)
  Thread.delay 0.1;
  let status =
    match Unix.fork () with
    | 0 ->
      ignore (Unix.alarm 20 : int);
      let ok =
        try
          Gc.full_major ();
          Batch.parallel_map (fun x -> Thread.delay 0.001; x * x) [| 3; 4 |] = [| 9; 16 |]
        with _ -> false
      in
      Unix._exit (if ok then 0 else 1)
    | pid -> snd (Unix.waitpid [] pid)
  in
  ignore (Unix.write release_w (Bytes.of_string "x") 0 1 : int);
  Io.close a;
  Thread.join batch_thread;
  Thread.join mux_thread;
  Unix.close release_r;
  Unix.close release_w;
  Alcotest.(check bool) "child exited 0" true (status = Unix.WEXITED 0)

(* Helper-thread counters must fold back into the caller's open phase:
   the totals and the phase span's ops.* attributes equal a sequential
   run's over the same streams. *)
let test_counter_merge () =
  let group = Group.default ~bits:160 in
  let kp = Elgamal.keygen (Prng.create ~seed:"batch-counter-key") group in
  let pk = Elgamal.public kp in
  let prng = Prng.create ~seed:"batch-counter" in
  let payloads = Array.init 12 (fun i -> String.make 40 (Char.chr (65 + i))) in
  (* The sleep gives up the runtime lock, so a helper takes items. *)
  let encrypt _ prng p =
    Thread.delay 0.001;
    Hybrid.encrypt prng pk p
  in
  let run map =
    let ((), counts), t =
      Secmed_obs.Trace.collect (fun () ->
          Counters.with_fresh (fun () ->
              Outcome.Builder.phase ~party:"S1" "source-encrypt" (fun () ->
                  ignore (map encrypt payloads))))
    in
    let ops =
      List.concat_map
        (fun s ->
          List.filter
            (fun (key, _) -> String.starts_with ~prefix:"ops." key)
            (Secmed_obs.Trace.attrs s))
        (Secmed_obs.Trace.spans t)
    in
    (ops, counts)
  in
  let ops1, counts1 =
    run (fun f items -> Array.mapi (fun i x -> f i (stream prng "cnt" i) x) items)
  in
  Alcotest.(check int) "sequential run counted hybrid encryptions" 12
    (List.assoc Counters.Hybrid_encrypt counts1);
  Alcotest.(check bool) "phase span carries them" true
    (ops1 = [ ("ops.hybrid-encrypt", Secmed_obs.Json.Int 12) ]);
  for run_no = 1 to 3 do
    let opsb, countsb = run (Batch.map_seeded ~prng ~label:"cnt") in
    Alcotest.(check bool) (Printf.sprintf "totals, batch run %d" run_no) true (counts1 = countsb);
    Alcotest.(check bool) (Printf.sprintf "phase ops, batch run %d" run_no) true (ops1 = opsb)
  done

(* ------------------------------------------------------------------ *)
(* Bit-identical ciphertext bytes, batch against sequential. *)

let test_seeded_bit_identical () =
  let group = Group.default ~bits:160 in
  let kp = Elgamal.keygen (Prng.create ~seed:"batch-bytes-key") group in
  let pk = Elgamal.public kp in
  let prng = Prng.create ~seed:"batch-bytes" in
  let payloads = Array.init 17 (fun i -> String.make (20 + i) (Char.chr (97 + (i mod 26)))) in
  let wire cts = String.concat "" (Array.to_list (Array.map Hybrid.to_wire cts)) in
  let reference =
    wire (Array.mapi (fun i p -> Hybrid.encrypt (stream prng "bytes" i) pk p) payloads)
  in
  for run_no = 1 to 3 do
    Alcotest.(check bool)
      (Printf.sprintf "bytes, batch run %d" run_no)
      true
      (String.equal reference
         (wire (Batch.map_seeded ~prng ~label:"bytes" (fun _ prng p -> Hybrid.encrypt prng pk p)
                  payloads)))
  done;
  (* The parent stream is not consumed by splitting: a draw after the
     batch is position-independent of the batch size. *)
  let p1 = Prng.create ~seed:"parent-probe" in
  ignore (Batch.map_seeded ~prng:p1 ~label:"probe"
            (fun _ prng _ -> Prng.bytes prng 8) (Array.make 5 ()));
  let after_batch = Prng.bytes p1 8 in
  let p2 = Prng.create ~seed:"parent-probe" in
  Alcotest.(check string) "parent stream untouched" (Prng.bytes p2 8) after_batch

(* DAS source encryption: the full encrypted relation (ciphertexts and
   index vectors) equals a sequential encryption over the same streams,
   run after run. *)
let test_das_rows_identical () =
  let left, _ = Workload.generate small_spec in
  let group = Group.default ~bits:160 in
  let kp = Elgamal.keygen (Prng.create ~seed:"batch-das-key") group in
  let pk = Elgamal.public kp in
  let join_attrs = [ "a_join" ] in
  let table =
    Das_partition.build (Das_partition.Equi_depth 3) ~relation:"R1" ~attr:"a_join"
      (Relation.column left "a_join")
  in
  let encode rows =
    String.concat ""
      (List.map
         (fun (ct, idx) ->
           Hybrid.to_wire ct
           ^ String.concat ":" (Array.to_list (Array.map string_of_int idx)))
         rows)
  in
  let position = List.hd (Array.to_list (Join_key.positions (Relation.schema left) join_attrs)) in
  let reference =
    encode
      (List.mapi
         (fun i tuple ->
           ( Hybrid.encrypt (stream (Prng.create ~seed:"batch-das") "das-row" i) pk (Tuple.encode tuple),
             [| Das_partition.index_of table (Tuple.get tuple position) |] ))
         (Relation.tuples left))
  in
  for run_no = 1 to 3 do
    let er = Das.encrypt_relation (Prng.create ~seed:"batch-das") pk [ table ] ~join_attrs left in
    Alcotest.(check bool)
      (Printf.sprintf "rows, run %d" run_no)
      true
      (String.equal reference (encode er.Das.rows))
  done

(* ------------------------------------------------------------------ *)
(* Full protocols: every scheme must produce the same result relation,
   transcript (labels, sizes, order) and counter totals on every run,
   however the batch executor's threads interleave. *)

let test_all_schemes_interleaving_invariant () =
  let run scheme =
    let env, client, query = Workload.scenario ~params:fast small_spec in
    Protocol.run_exn scheme env client ~query
  in
  List.iter
    (fun scheme ->
      let name = Protocol.scheme_name scheme in
      let reference = run scheme in
      Alcotest.(check bool)
        (Printf.sprintf "%s correct" name)
        true (Outcome.correct reference);
      for run_no = 2 to 3 do
        let o = run scheme in
        Alcotest.(check string)
          (Printf.sprintf "%s result, run %d" name run_no)
          (Relation.to_string reference.Outcome.result)
          (Relation.to_string o.Outcome.result);
        Alcotest.(check bool)
          (Printf.sprintf "%s transcript, run %d" name run_no)
          true
          (Secmed_mediation.Transcript.messages reference.Outcome.transcript
          = Secmed_mediation.Transcript.messages o.Outcome.transcript);
        Alcotest.(check bool)
          (Printf.sprintf "%s counters, run %d" name run_no)
          true
          (reference.Outcome.counters = o.Outcome.counters)
      done)
    Protocol.all_schemes

let () =
  Alcotest.run "batch"
    [
      ( "executor",
        [
          Alcotest.test_case "parallel map semantics" `Quick test_parallel_map_basics;
          Alcotest.test_case "lowest-index exception" `Quick test_lowest_exception;
          Alcotest.test_case "counter merge" `Quick test_counter_merge;
          Alcotest.test_case "fork after a parallel batch" `Quick test_fork_after_batch;
          Alcotest.test_case "fork while threads wait" `Quick test_fork_while_threads_wait;
        ] );
      ( "thread cache",
        [
          Alcotest.test_case "sequential tasks on one thread" `Quick
            test_sequential_tasks_one_thread;
          Alcotest.test_case "batch helpers reused" `Quick test_batch_helpers_reused;
          Alcotest.test_case "reused thread starts clean" `Quick test_reused_thread_starts_clean;
          Alcotest.test_case "raising task reported, thread parks again" `Quick
            test_raising_task_reported;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "seeded encryption bit-identical" `Quick
            test_seeded_bit_identical;
          Alcotest.test_case "das rows bit-identical" `Quick test_das_rows_identical;
          Alcotest.test_case "all schemes interleaving-invariant" `Quick
            test_all_schemes_interleaving_invariant;
        ] );
    ]
