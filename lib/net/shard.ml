(* Sharded datasource addressing (DESIGN.md §16).

   A logical source may be split into k daemon processes, each computing
   the whole source's steps and transmitting only its round-robin
   partition of every streamed delivery (shard 0 alone speaks the
   scalar frames).
   This module owns the two pieces both sides must agree on: the CLI
   address syntax and the per-shard scenario digest. *)

let digest base ~shard:(j, k) =
  if k <= 0 || j < 0 || j >= k then invalid_arg "Shard.digest: shard out of range";
  (* k = 1 keeps the base digest so unsharded deployments interoperate
     with every earlier incarnation unchanged; a real shard mixes its
     coordinates in, so a mediator can never mistake which partition a
     daemon serves — a miswired shard fails the Hello handshake instead
     of corrupting the merge. *)
  if k = 1 then base
  else Secmed_crypto.Sha256.hex_digest (Printf.sprintf "%s|shard %d/%d" base j k)

(* "HOST:PORT" with an optional "shard@" marker (redundant — position
   assigns the index — but it lets an operator label intent). *)
let parse_addr s =
  let s =
    match String.index_opt s '@' with
    | Some i when String.sub s 0 i = "shard" ->
      String.sub s (i + 1) (String.length s - i - 1)
    | Some _ | None -> s
  in
  match String.rindex_opt s ':' with
  | None -> Error (Printf.sprintf "bad address %S (expected HOST:PORT)" s)
  | Some i -> (
    let host = String.sub s 0 i in
    let port = String.sub s (i + 1) (String.length s - i - 1) in
    if String.equal host "" then Error (Printf.sprintf "bad address %S (empty host)" s)
    else
      match int_of_string_opt port with
      | Some p when p > 0 && p < 65536 -> Ok (host, p)
      | Some _ | None -> Error (Printf.sprintf "bad address %S (bad port)" s))

let split_on c s = String.split_on_char c s |> List.filter (fun x -> not (String.equal x ""))

(* "ID=shard@H:P,H:P;shard@H:P;..." — [;] separates shards, [,]
   separates a shard's failover replicas.  The unsharded form
   "ID=H:P,H:P" parses as one shard, so existing deployments read
   unchanged. *)
let parse_source s =
  match String.index_opt s '=' with
  | None -> Error (Printf.sprintf "bad source %S (expected ID=HOST:PORT[,...][;...])" s)
  | Some i -> (
    let id = String.sub s 0 i in
    let rest = String.sub s (i + 1) (String.length s - i - 1) in
    match int_of_string_opt id with
    | None -> Error (Printf.sprintf "bad source id %S" id)
    | Some id -> (
      let shards = split_on ';' rest in
      if shards = [] then Error (Printf.sprintf "source %d: no addresses" id)
      else
        let parse_shard shard_s =
          let replicas = split_on ',' shard_s in
          if replicas = [] then Error (Printf.sprintf "source %d: empty shard" id)
          else
            List.fold_left
              (fun acc a ->
                match (acc, parse_addr a) with
                | Error e, _ -> Error e
                | _, Error e -> Error e
                | Ok l, Ok addr -> Ok (addr :: l))
              (Ok []) replicas
            |> Result.map List.rev
        in
        List.fold_left
          (fun acc sh ->
            match (acc, parse_shard sh) with
            | Error e, _ -> Error e
            | _, Error e -> Error e
            | Ok l, Ok replicas -> Ok (replicas :: l))
          (Ok []) shards
        |> Result.map (fun l -> (id, List.rev l))))

let parse_shard_flag s =
  match String.split_on_char '/' s with
  | [ j; k ] -> (
    match (int_of_string_opt j, int_of_string_opt k) with
    | Some j, Some k when k > 0 && j >= 0 && j < k -> Ok (j, k)
    | _ -> Error (Printf.sprintf "bad shard %S (expected J/K with 0 <= J < K)" s))
  | _ -> Error (Printf.sprintf "bad shard %S (expected J/K)" s)
