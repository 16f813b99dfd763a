let block_size = 64

let normalize_key key =
  let key = if String.length key > block_size then Sha256.digest key else key in
  key ^ String.make (block_size - String.length key) '\000'

(* H(key xor pad || msg), fed to one context without concatenating. *)
let keyed_hash key pad msg =
  let ctx = Sha256.init () in
  Sha256.update ctx (String.map (fun c -> Char.chr (Char.code c lxor pad)) key);
  Sha256.update ctx msg;
  Sha256.finalize ctx

let sha256 ~key msg =
  let key = normalize_key key in
  keyed_hash key 0x5c (keyed_hash key 0x36 msg)

let sha256_hex ~key msg = Bytes_util.to_hex (sha256 ~key msg)

let verify ~key msg ~tag = Bytes_util.constant_time_equal (sha256 ~key msg) tag
