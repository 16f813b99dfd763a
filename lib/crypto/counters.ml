type primitive =
  | Hash
  | Ideal_hash
  | Hybrid_encrypt
  | Hybrid_decrypt
  | Commutative_encrypt
  | Commutative_decrypt
  | Homomorphic_encrypt
  | Homomorphic_decrypt
  | Homomorphic_add
  | Homomorphic_scalar
  | Random_number

let all =
  [ Hash; Ideal_hash; Hybrid_encrypt; Hybrid_decrypt; Commutative_encrypt;
    Commutative_decrypt; Homomorphic_encrypt; Homomorphic_decrypt;
    Homomorphic_add; Homomorphic_scalar; Random_number ]

let name = function
  | Hash -> "hash"
  | Ideal_hash -> "ideal-hash"
  | Hybrid_encrypt -> "hybrid-encrypt"
  | Hybrid_decrypt -> "hybrid-decrypt"
  | Commutative_encrypt -> "commutative-encrypt"
  | Commutative_decrypt -> "commutative-decrypt"
  | Homomorphic_encrypt -> "homomorphic-encrypt"
  | Homomorphic_decrypt -> "homomorphic-decrypt"
  | Homomorphic_add -> "homomorphic-add"
  | Homomorphic_scalar -> "homomorphic-scalar"
  | Random_number -> "random-number"

let index = function
  | Hash -> 0
  | Ideal_hash -> 1
  | Hybrid_encrypt -> 2
  | Hybrid_decrypt -> 3
  | Commutative_encrypt -> 4
  | Commutative_decrypt -> 5
  | Homomorphic_encrypt -> 6
  | Homomorphic_decrypt -> 7
  | Homomorphic_add -> 8
  | Homomorphic_scalar -> 9
  | Random_number -> 10

let width = List.length all

(* One count array per thread: every systhread (and thus every domain's
   initial thread) counts independently from zero, so concurrent
   protocol drivers — the mediator's session workers, a source daemon's
   per-session handlers, a loadgen fleet — never corrupt each other's
   tallies.  A worker's totals are folded back into the spawning thread
   via {!merge} (the Batch executor does this once its helpers finish).

   The registry maps thread id → array inside a domain-local slot; the
   mutex only guards the registry lookup (a rare miss allocates), never
   the bump itself, which touches a thread-private array. *)
type registry = {
  reg_mu : Mutex.t;
  reg_tbl : (int, int array) Hashtbl.t;
}

let registry_key : registry Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      { reg_mu = Mutex.create (); reg_tbl = Hashtbl.create 8 })

let table () =
  let reg = Domain.DLS.get registry_key in
  let id = Thread.id (Thread.self ()) in
  Mutex.protect reg.reg_mu (fun () ->
      match Hashtbl.find_opt reg.reg_tbl id with
      | Some t -> t
      | None ->
        let t = Array.make width 0 in
        Hashtbl.add reg.reg_tbl id t;
        t)

let release () =
  let reg = Domain.DLS.get registry_key in
  let id = Thread.id (Thread.self ()) in
  Mutex.protect reg.reg_mu (fun () -> Hashtbl.remove reg.reg_tbl id)

let bump_by p n =
  let t = table () in
  t.(index p) <- t.(index p) + n

let bump p = bump_by p 1

let merge counts = List.iter (fun (p, n) -> if n <> 0 then bump_by p n) counts

let reset () = Array.fill (table ()) 0 width 0

let count p = (table ()).(index p)

let snapshot () =
  let t = table () in
  List.map (fun p -> (p, t.(index p))) all

let used () = List.filter (fun p -> count p > 0) all

let with_fresh f =
  let t = table () in
  let saved = Array.copy t in
  reset ();
  let restore () = Array.blit saved 0 t 0 width in
  match f () with
  | result ->
    let counts = snapshot () in
    restore ();
    (result, counts)
  | exception e ->
    restore ();
    raise e
