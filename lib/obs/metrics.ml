(* Log-scale buckets: 4 per octave.  Bucket 0 is the underflow bucket
   (zero and negative observations); bucket [i >= 1] covers values whose
   [4 * log2 v] rounds to [i - bias]. *)
let buckets = 296
let bias = 121 (* v = 1e-9 -> 4 * log2 v ~ -119.6 -> bucket 1 *)

let bucket_of v =
  if not (Float.is_finite v) || v <= 0.0 then 0
  else
    let i = int_of_float (Float.round (4.0 *. Float.log2 v)) + bias in
    if i < 1 then 1 else if i >= buckets then buckets - 1 else i

(* Geometric representative of a bucket (its center in log space). *)
let bucket_value i = if i = 0 then 0.0 else Float.pow 2.0 (float_of_int (i - bias) /. 4.0)

type counter = { mutable c_value : int }
type gauge = { mutable g_value : float }

type histogram = {
  counts : int array;
  mutable h_count : int;
  mutable h_sum : float;
  mutable h_min : float;
  mutable h_max : float;
}

type metric =
  | Counter of counter
  | Gauge of gauge
  | Histogram of histogram

let registry : (string, metric) Hashtbl.t = Hashtbl.create 32

let intern name make describe =
  match Hashtbl.find_opt registry name with
  | Some m -> describe m
  | None ->
    let fresh = make () in
    Hashtbl.add registry name fresh;
    describe fresh

let counter name =
  intern name
    (fun () -> Counter { c_value = 0 })
    (function
      | Counter c -> c
      | _ -> invalid_arg (Printf.sprintf "Metrics.counter: %S is registered as another kind" name))

let incr ?(by = 1) c = c.c_value <- c.c_value + by
let counter_value c = c.c_value

let gauge name =
  intern name
    (fun () -> Gauge { g_value = 0.0 })
    (function
      | Gauge g -> g
      | _ -> invalid_arg (Printf.sprintf "Metrics.gauge: %S is registered as another kind" name))

let set_gauge g v = g.g_value <- v
let gauge_value g = g.g_value

let histogram name =
  intern name
    (fun () ->
      Histogram
        {
          counts = Array.make buckets 0;
          h_count = 0;
          h_sum = 0.0;
          h_min = Float.infinity;
          h_max = Float.neg_infinity;
        })
    (function
      | Histogram h -> h
      | _ ->
        invalid_arg (Printf.sprintf "Metrics.histogram: %S is registered as another kind" name))

(* A fresh unregistered cell — never visible to the registry, so a
   recorder (one per loadgen worker, say) can own it without
   synchronisation and fold it into a shared histogram afterwards. *)
let private_histogram () =
  {
    counts = Array.make buckets 0;
    h_count = 0;
    h_sum = 0.0;
    h_min = Float.infinity;
    h_max = Float.neg_infinity;
  }

let observe h v =
  let i = bucket_of v in
  h.counts.(i) <- h.counts.(i) + 1;
  h.h_count <- h.h_count + 1;
  h.h_sum <- h.h_sum +. v;
  if v < h.h_min then h.h_min <- v;
  if v > h.h_max then h.h_max <- v

let histogram_count h = h.h_count
let histogram_sum h = h.h_sum
let histogram_min h = if h.h_count = 0 then 0.0 else h.h_min
let histogram_max h = if h.h_count = 0 then 0.0 else h.h_max

(* Bucket-wise addition: because every observation lands in exactly one
   bucket, merging per-recorder histograms is exact — the merged counts,
   sum, extrema, and therefore every quantile estimate equal what a
   single recorder seeing all the samples would report. *)
let merge_into ~into src =
  Array.iteri (fun i n -> if n <> 0 then into.counts.(i) <- into.counts.(i) + n) src.counts;
  into.h_count <- into.h_count + src.h_count;
  into.h_sum <- into.h_sum +. src.h_sum;
  if src.h_count > 0 then begin
    if src.h_min < into.h_min then into.h_min <- src.h_min;
    if src.h_max > into.h_max then into.h_max <- src.h_max
  end

let quantile h q =
  if h.h_count = 0 then 0.0
  else begin
    let q = Float.min 1.0 (Float.max 0.0 q) in
    let target =
      let t = int_of_float (Float.round (q *. float_of_int h.h_count)) in
      if t < 1 then 1 else if t > h.h_count then h.h_count else t
    in
    let rec walk i seen =
      let seen = seen + h.counts.(i) in
      if seen >= target || i = buckets - 1 then i else walk (i + 1) seen
    in
    let i = walk 0 0 in
    (* Clamp the bucket estimate to the observed range so single-sample
       and extreme-quantile answers stay plausible. *)
    Float.min h.h_max (Float.max h.h_min (bucket_value i))
  end

let percentiles h = (quantile h 0.5, quantile h 0.9, quantile h 0.99)

let reset () =
  Hashtbl.iter
    (fun _ m ->
      match m with
      | Counter c -> c.c_value <- 0
      | Gauge g -> g.g_value <- 0.0
      | Histogram h ->
        Array.fill h.counts 0 buckets 0;
        h.h_count <- 0;
        h.h_sum <- 0.0;
        h.h_min <- Float.infinity;
        h.h_max <- Float.neg_infinity)
    registry
