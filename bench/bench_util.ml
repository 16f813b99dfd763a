(* Shared helpers for the benchmark harness: text tables and direct
   timing. *)

let heading title =
  let bar = String.make (String.length title) '=' in
  Printf.printf "\n%s\n%s\n\n" title bar

let subheading title = Printf.printf "\n--- %s ---\n\n" title

(* Render rows as an aligned text table. *)
let print_table ~headers rows =
  let columns = List.length headers in
  let widths = Array.make columns 0 in
  let measure row =
    List.iteri (fun i cell -> widths.(i) <- Stdlib.max widths.(i) (String.length cell)) row
  in
  measure headers;
  List.iter measure rows;
  let line () =
    print_char '+';
    Array.iter
      (fun w ->
        print_string (String.make (w + 2) '-');
        print_char '+')
      widths;
    print_newline ()
  in
  let row cells =
    print_char '|';
    List.iteri (fun i cell -> Printf.printf " %-*s |" widths.(i) cell) cells;
    print_newline ()
  in
  line ();
  row headers;
  line ();
  List.iter row rows;
  line ()

let fmt_ms seconds = Printf.sprintf "%.1f" (seconds *. 1000.0)
let fmt_bytes b =
  if b >= 1_048_576 then Printf.sprintf "%.2f MiB" (float_of_int b /. 1_048_576.0)
  else if b >= 1024 then Printf.sprintf "%.1f KiB" (float_of_int b /. 1024.0)
  else Printf.sprintf "%d B" b

(* Direct timing: median over [runs] repetitions (the lower middle one
   for an even count), on the monotonic clock (wall-clock steps from NTP
   would silently skew gettimeofday samples). *)
let time_median ?(runs = 3) f =
  Secmed_net.Loadgen.quantile 0.5
    (List.init runs (fun _ ->
         let t0 = Secmed_obs.Clock.now_ns () in
         ignore (f ());
         Secmed_obs.Clock.ns_to_s (Secmed_obs.Clock.elapsed_ns ~since:t0)))

(* Best-of-[rounds] seconds per call, with the repetition count calibrated
   so each sample runs for at least [min_time] (keeps fast primitives well
   above timer resolution without hardcoding per-benchmark rep counts). *)
let best_time ?(rounds = 5) ?(min_time = 0.02) f =
  let sample reps =
    let t0 = Secmed_obs.Clock.now_ns () in
    for _ = 1 to reps do
      ignore (f ())
    done;
    Secmed_obs.Clock.ns_to_s (Secmed_obs.Clock.elapsed_ns ~since:t0) /. float_of_int reps
  in
  let rec calibrate reps =
    let t = sample reps in
    if t *. float_of_int reps >= min_time || reps >= 1 lsl 20 then (reps, t)
    else calibrate (reps * 4)
  in
  let reps, first = calibrate 1 in
  let best = ref first in
  for _ = 2 to rounds do
    best := Float.min !best (sample reps)
  done;
  !best

let fmt_ns ns =
  if ns >= 1e9 then Printf.sprintf "%.2f s" (ns /. 1e9)
  else if ns >= 1e6 then Printf.sprintf "%.2f ms" (ns /. 1e6)
  else if ns >= 1e3 then Printf.sprintf "%.2f µs" (ns /. 1e3)
  else Printf.sprintf "%.0f ns" ns
