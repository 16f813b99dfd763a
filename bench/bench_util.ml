(* Shared helpers for the benchmark harness: text tables and direct
   timing. *)

(* Display width of UTF-8 text: its code points, so a header such as
   "schoolbook µs" pads like its ASCII rows (a continuation byte,
   0b10xxxxxx, starts no code point). *)
let width s = String.fold_left (fun n c -> if Char.code c land 0xC0 = 0x80 then n else n + 1) 0 s

let heading title =
  let bar = String.make (width title) '=' in
  Printf.printf "\n%s\n%s\n\n" title bar

let subheading title = Printf.printf "\n--- %s ---\n\n" title

(* Render rows as an aligned text table. *)
let print_table ~headers rows =
  let columns = List.length headers in
  let widths = Array.make columns 0 in
  let measure row =
    List.iteri (fun i cell -> widths.(i) <- Stdlib.max widths.(i) (width cell)) row
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
    List.iteri
      (fun i cell -> Printf.printf " %s%s |" cell (String.make (widths.(i) - width cell) ' '))
      cells;
    print_newline ()
  in
  line ();
  row headers;
  line ();
  List.iter row rows;
  line ()

let fmt_ms seconds = Printf.sprintf "%.1f" (seconds *. 1000.0)

(* Run [f] under a fresh trace collector and return its result with the
   phase times of that run: the Phase spans `secmed report` renders,
   seconds summed per phase name, in first-appearance order. *)
let with_phase_times f =
  let module Trace = Secmed_obs.Trace in
  let result, trace = Trace.collect f in
  let phases = List.filter (fun s -> s.Trace.kind = Trace.Phase) (Trace.spans trace) in
  let names =
    List.fold_left
      (fun acc s -> if List.mem s.Trace.name acc then acc else s.Trace.name :: acc)
      [] phases
  in
  let seconds name =
    List.fold_left
      (fun acc s ->
        if s.Trace.name = name then acc +. Secmed_obs.Clock.ns_to_s (Trace.duration_ns s)
        else acc)
      0.0 phases
  in
  (result, List.rev_map (fun name -> (name, seconds name)) names)

let phase_time phases name = Option.value ~default:0.0 (List.assoc_opt name phases)

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

(* Seconds per call of each of the compared variants [fs], sampled so
   they can be ranked: each variant's repetition count is calibrated so
   one sample runs for at least [min_time], then every round takes one
   sample of each variant in turn, in alternating order, so drift in the
   host's speed falls on all of them alike.  [samples.(i).(round)] is
   variant i's sample in that round. *)
let interleaved ?(rounds = 9) ?(min_time = 0.01) fs =
  let sample reps f =
    let t0 = Secmed_obs.Clock.now_ns () in
    for _ = 1 to reps do
      ignore (f ())
    done;
    Secmed_obs.Clock.ns_to_s (Secmed_obs.Clock.elapsed_ns ~since:t0) /. float_of_int reps
  in
  let rec calibrate f reps =
    if reps >= 1 lsl 20 || sample reps f *. float_of_int reps >= min_time then reps
    else calibrate f (reps * 4)
  in
  let reps = Array.map (fun f -> calibrate f 1) fs in
  let n = Array.length fs in
  let samples = Array.make_matrix n rounds 0.0 in
  for round = 0 to rounds - 1 do
    for step = 0 to n - 1 do
      let i = if round land 1 = 0 then step else n - 1 - step in
      samples.(i).(round) <- sample reps.(i) fs.(i)
    done
  done;
  samples

(* Best-of-[rounds] seconds per call, with the repetition count calibrated
   so each sample runs for at least [min_time] (keeps fast primitives well
   above timer resolution without hardcoding per-benchmark rep counts). *)
let best_time ?(rounds = 5) ?(min_time = 0.02) f =
  Array.fold_left Float.min infinity (interleaved ~rounds ~min_time [| f |]).(0)

let quantile q samples = Secmed_net.Loadgen.quantile q (Array.to_list samples)
let median samples = quantile 0.5 samples

(* "median (IQR)" of one variant's samples, both times [scale]. *)
let fmt_spread ?(scale = 1e3) samples =
  Printf.sprintf "%.4f (%.4f)" (scale *. median samples)
    (scale *. (quantile 0.75 samples -. quantile 0.25 samples))

(* The rounds in which variant [a]'s sample beat variant [b]'s. *)
let wins a b =
  let n = ref 0 in
  Array.iteri (fun round t -> if t < b.(round) then incr n) a;
  !n

let fmt_ns ns =
  if ns >= 1e9 then Printf.sprintf "%.2f s" (ns /. 1e9)
  else if ns >= 1e6 then Printf.sprintf "%.2f ms" (ns /. 1e6)
  else if ns >= 1e3 then Printf.sprintf "%.2f µs" (ns /. 1e3)
  else Printf.sprintf "%.0f ns" ns
