(* Tracked high-water-mark accounting for transport-held buffers.

   Every byte a streaming transport holds alive — frame reassembly
   buffers, send scratch, parked mux frames, decoded-but-unmerged chunk
   entries — is registered against a named region, so tests and benches
   can assert the claim the chunk protocol makes: transport memory stays
   flat while the row count scales.  The hot path is one mutex and two
   adds. *)

type t = {
  name : string;
  mutable current : int;
  mutable peak : int;
}

let mu = Mutex.create ()
let registry : (string, t) Hashtbl.t = Hashtbl.create 16

let locked f =
  Mutex.lock mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock mu) f

let region name =
  locked (fun () ->
      match Hashtbl.find_opt registry name with
      | Some r -> r
      | None ->
        let r = { name; current = 0; peak = 0 } in
        Hashtbl.add registry name r;
        r)

let name r = r.name

let alloc r n =
  if n <> 0 then
    locked (fun () ->
        r.current <- r.current + n;
        if r.current > r.peak then r.peak <- r.current)

let release r n =
  if n <> 0 then
    locked (fun () -> r.current <- max 0 (r.current - n))

let current r = locked (fun () -> r.current)
let peak r = locked (fun () -> r.peak)

let reset () =
  locked (fun () ->
      Hashtbl.iter
        (fun _ r ->
          r.current <- 0;
          r.peak <- 0)
        registry)

let regions () =
  locked (fun () ->
      Hashtbl.fold (fun _ r acc -> (r.name, r.current, r.peak) :: acc) registry [])
  |> List.sort compare

let global_peak () =
  locked (fun () -> Hashtbl.fold (fun _ r acc -> acc + r.peak) registry 0)

let snapshot () =
  Json.Obj
    (List.map
       (fun (name, current, peak) ->
         (name, Json.Obj [ ("current", Json.Int current); ("peak", Json.Int peak) ]))
       (regions ()))
