open Secmed_crypto

(* Domain-parallel batch executor for the embarrassingly-parallel
   per-tuple crypto loops (source-side hybrid encryption, the client's
   PM batch decryption).

   Two contracts drive the design:

   Determinism.  Outputs are bit-identical regardless of domain count.
   Work needing randomness goes through {!map_seeded}: item [i] gets its
   own PRNG stream [Prng.split prng (label ^ "#" ^ i)], derived from the
   parent's seed alone — never a shared mutable [Prng.t] whose position
   would depend on scheduling.  The sequential path (domains = 1) draws
   from the identical per-item streams, so parallel and sequential runs
   produce the same ciphertext bytes.

   Counting.  [Counters] state is per-thread; each worker starts at
   zero and returns its snapshot along with its chunk.  The spawning
   thread folds worker snapshots back in with [Counters.merge] at join
   time, inside the caller's open phase span — so the span's
   [ops.<primitive>] attributes are the same as a sequential run's.

   Domains are spawned per call and joined before returning: no
   persistent pool, so processes remain fork-safe (the loopback
   transport forks mediator/source/client processes). *)

let default = ref 1

let set_default_domains k =
  if k < 1 then invalid_arg "Batch.set_default_domains: must be >= 1";
  default := k

let () =
  match Sys.getenv_opt "SECMED_DOMAINS" with
  | Some s ->
    (match int_of_string_opt (String.trim s) with
     | Some k when k >= 1 -> default := k
     | _ -> ())
  | None -> ()

let default_domains () = !default

let recommended_domains () = Domain.recommended_domain_count ()

let item_prng prng label i = Prng.split prng (label ^ "#" ^ string_of_int i)

(* Core: apply [f i item] over the array, chunked contiguously across
   [k] domains.  Workers return (chunk, counter snapshot); all domains
   are joined (even when one raises) before counters merge and the
   first worker exception is re-raised. *)
let run_mapi k f items =
  let n = Array.length items in
  let k = min k n in
  if n = 0 then [||]
  else if k <= 1 then Array.mapi f items
  else begin
    let job lo hi () =
      let out = Array.init (hi - lo) (fun j -> f (lo + j) items.(lo + j)) in
      (out, Counters.snapshot ())
    in
    let doms =
      Array.init k (fun d -> Domain.spawn (job (d * n / k) ((d + 1) * n / k)))
    in
    let parts =
      Array.map (fun d -> try Ok (Domain.join d) with e -> Error e) doms
    in
    let first_error = ref None in
    Array.iter
      (function
        | Ok (_, counts) -> Counters.merge counts
        | Error e -> if !first_error = None then first_error := Some e)
      parts;
    match !first_error with
    | Some e -> raise e
    | None ->
      Array.concat
        (Array.to_list
           (Array.map (function Ok (out, _) -> out | Error _ -> assert false) parts))
  end

let domains_of opt = max 1 (match opt with Some k -> k | None -> !default)

let parallel_mapi ?domains f items = run_mapi (domains_of domains) f items
let parallel_map ?domains f items = run_mapi (domains_of domains) (fun _ x -> f x) items

let map_seeded ?domains ~prng ~label f items =
  run_mapi (domains_of domains)
    (fun i item -> f i (item_prng prng label i) item)
    items

let map_list ?domains f items =
  Array.to_list (parallel_map ?domains f (Array.of_list items))

let map_seeded_list ?domains ~prng ~label f items =
  Array.to_list (map_seeded ?domains ~prng ~label f (Array.of_list items))
