(* Tests for the cryptographic substrate: NIST/RFC vectors for the
   symmetric primitives, algebraic properties for the public-key schemes. *)

open Secmed_bigint
open Secmed_crypto

let prng () = Prng.of_int_seed 2024

let hex = Bytes_util.of_hex

(* ------------------------------------------------------------------ *)
(* Bytes_util. *)

let test_hex_roundtrip () =
  Alcotest.(check string) "encode" "00ff10ab" (Bytes_util.to_hex "\x00\xff\x10\xab");
  Alcotest.(check string) "decode" "\x00\xff\x10\xab" (Bytes_util.of_hex "00ff10AB");
  Alcotest.check_raises "odd length" (Invalid_argument "Bytes_util.of_hex: odd length")
    (fun () -> ignore (Bytes_util.of_hex "abc"))

let test_xor () =
  Alcotest.(check string) "xor" "\x03\x00" (Bytes_util.xor "\x01\x02" "\x02\x02");
  Alcotest.check_raises "mismatch" (Invalid_argument "Bytes_util.xor: length mismatch")
    (fun () -> ignore (Bytes_util.xor "a" "ab"))

let test_constant_time_equal () =
  Alcotest.(check bool) "equal" true (Bytes_util.constant_time_equal "abc" "abc");
  Alcotest.(check bool) "diff" false (Bytes_util.constant_time_equal "abc" "abd");
  Alcotest.(check bool) "len" false (Bytes_util.constant_time_equal "ab" "abc")

let test_chunks () =
  Alcotest.(check (list string)) "chunks" [ "ab"; "cd"; "e" ] (Bytes_util.chunks 2 "abcde");
  Alcotest.(check (list string)) "empty" [] (Bytes_util.chunks 4 "")

(* ------------------------------------------------------------------ *)
(* SHA-256: FIPS 180-4 / NIST CAVS vectors. *)

let sha_vectors =
  [
    ("", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
    ("abc", "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
    ( "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
      "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1" );
    ( "The quick brown fox jumps over the lazy dog",
      "d7a8fbb307d7809469ca9abcb0082e4f8d5651e46d3cdb762d02d0bf37c9e592" );
    (* FIPS 180-4's two-block message: 112 bytes, so the padding block
       follows a whole block the kernel hashes at offset 64. *)
    ( "abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmno\
       ijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu",
      "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1" );
  ]

let test_sha256_vectors () =
  List.iter
    (fun (input, expected) -> Alcotest.(check string) "digest" expected (Sha256.hex_digest input))
    sha_vectors

let test_sha256_million_a () =
  Alcotest.(check string) "one million 'a'"
    "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
    (Sha256.hex_digest (String.make 1_000_000 'a'))

let test_sha256_mid_block_runs () =
  (* The first update leaves a partial block, so every later one tops it
     up and then hands the kernel its whole blocks at a non-zero offset
     (63 for the 200-byte update, 9 for the 1000-byte one). *)
  let message = String.init 1264 (fun i -> Char.chr (i mod 251)) in
  let ctx = Sha256.init () in
  ignore
    (List.fold_left
       (fun pos n ->
         Sha256.update ctx (String.sub message pos n);
         pos + n)
       0 [ 1; 200; 1000; 63 ]);
  Alcotest.(check string) "1 + 200 + 1000 + 63 bytes"
    "f8d634699e5d15f16e5e7a74c185f61323512f0c1ba272d228e66e124e1d98a8"
    (Bytes_util.to_hex (Sha256.finalize ctx))

let test_sha256_incremental () =
  (* Feeding in arbitrary chunkings must agree with the one-shot digest. *)
  let message = String.init 5000 (fun i -> Char.chr (i mod 251)) in
  let expected = Sha256.digest message in
  List.iter
    (fun chunk_size ->
      let ctx = Sha256.init () in
      List.iter (Sha256.update ctx) (Bytes_util.chunks chunk_size message);
      Alcotest.(check string)
        (Printf.sprintf "chunks of %d" chunk_size)
        (Bytes_util.to_hex expected)
        (Bytes_util.to_hex (Sha256.finalize ctx)))
    [ 1; 3; 63; 64; 65; 1000 ]

let test_sha256_padding_boundaries () =
  (* Lengths around the 55/56/64 byte padding boundaries, cross-checked
     between one-shot and incremental interfaces. *)
  List.iter
    (fun len ->
      let m = String.make len 'x' in
      let ctx = Sha256.init () in
      Sha256.update ctx m;
      Alcotest.(check string)
        (Printf.sprintf "len %d" len)
        (Bytes_util.to_hex (Sha256.digest m))
        (Bytes_util.to_hex (Sha256.finalize ctx)))
    [ 54; 55; 56; 57; 63; 64; 65; 119; 120; 128 ]

(* ------------------------------------------------------------------ *)
(* HMAC-SHA256: RFC 4231 vectors. *)

let test_hmac_rfc4231 () =
  let check name key msg expected =
    Alcotest.(check string) name expected (Hmac.sha256_hex ~key msg)
  in
  check "case 1" (String.make 20 '\x0b') "Hi There"
    "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7";
  check "case 2" "Jefe" "what do ya want for nothing?"
    "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843";
  check "case 3" (String.make 20 '\xaa') (String.make 50 '\xdd')
    "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe";
  check "case 6 (large key)" (String.make 131 '\xaa')
    "Test Using Larger Than Block-Size Key - Hash Key First"
    "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54";
  check "case 7 (large key and data)" (String.make 131 '\xaa')
    "This is a test using a larger than block-size key and a larger than block-size data. \
     The key needs to be hashed before being used by the HMAC algorithm."
    "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2"

let test_hmac_verify () =
  let key = "secret" and msg = "payload" in
  let tag = Hmac.sha256 ~key msg in
  Alcotest.(check bool) "verify ok" true (Hmac.verify ~key msg ~tag);
  Alcotest.(check bool) "wrong msg" false (Hmac.verify ~key "other" ~tag);
  Alcotest.(check bool) "wrong key" false (Hmac.verify ~key:"nope" msg ~tag)

(* ------------------------------------------------------------------ *)
(* AES-128: FIPS 197 appendix + NIST SP 800-38A. *)

let test_aes_fips197 () =
  let key = Aes.expand_key (hex "000102030405060708090a0b0c0d0e0f") in
  let ct = Aes.encrypt_block key (hex "00112233445566778899aabbccddeeff") in
  Alcotest.(check string) "encrypt" "69c4e0d86a7b0430d8cdb78070b4c55a" (Bytes_util.to_hex ct);
  Alcotest.(check string) "decrypt" "00112233445566778899aabbccddeeff"
    (Bytes_util.to_hex (Aes.decrypt_block key ct))

let test_aes_sp800_38a () =
  (* SP 800-38A F.1.1 / F.1.2 ECB-AES128, all four blocks (checks key
     schedule + rounds both ways). *)
  let key = Aes.expand_key (hex "2b7e151628aed2a6abf7158809cf4f3c") in
  List.iter
    (fun (plain, cipher) ->
      Alcotest.(check string) "ecb encrypt" cipher
        (Bytes_util.to_hex (Aes.encrypt_block key (hex plain)));
      Alcotest.(check string) "ecb decrypt" plain
        (Bytes_util.to_hex (Aes.decrypt_block key (hex cipher))))
    [
      ("6bc1bee22e409f96e93d7e117393172a", "3ad77bb40d7a3660a89ecaf32466ef97");
      ("ae2d8a571e03ac9c9eb76fac45af8e51", "f5d3d58503b9699de785895a96fdbaaf");
      ("30c81c46a35ce411e5fbc1191a0a52ef", "43b1cd7f598ece23881b00e3ed030688");
      ("f69f2445df4f9b17ad2b417be66c3710", "7b0c785e27e8ad3f8223207104725dd4");
    ]

let test_aes_roundtrip () =
  let g = prng () in
  for _ = 1 to 50 do
    let key = Aes.expand_key (Prng.bytes g 16) in
    let block = Prng.bytes g 16 in
    Alcotest.(check string) "roundtrip" (Bytes_util.to_hex block)
      (Bytes_util.to_hex (Aes.decrypt_block key (Aes.encrypt_block key block)))
  done

let test_aes_ctr_involution () =
  let g = prng () in
  for len = 0 to 70 do
    let key = Prng.bytes g 16 and nonce = Prng.bytes g 12 in
    let msg = Prng.bytes g len in
    let ct = Aes.ctr_transform ~key ~nonce msg in
    Alcotest.(check string) (Printf.sprintf "len %d" len) (Bytes_util.to_hex msg)
      (Bytes_util.to_hex (Aes.ctr_transform ~key ~nonce ct));
    if len > 0 then
      Alcotest.(check bool) "actually encrypts" true (not (String.equal msg ct))
  done

(* CTR is the message XOR E_k(nonce || be32 i) for block i, the last
   block cut to the message length; encrypt_block is the vector-checked
   oracle. *)
let test_aes_ctr_keystream () =
  let g = prng () in
  for len = 0 to 80 do
    let key = Prng.bytes g 16 and nonce = Prng.bytes g 12 and msg = Prng.bytes g len in
    let rk = Aes.expand_key key in
    let expected =
      String.init len (fun i ->
          let keystream = Aes.encrypt_block rk (nonce ^ Bytes_util.be32 (i / 16)) in
          Char.chr (Char.code msg.[i] lxor Char.code keystream.[i mod 16]))
    in
    Alcotest.(check string) (Printf.sprintf "len %d" len) (Bytes_util.to_hex expected)
      (Bytes_util.to_hex (Aes.ctr_transform ~key ~nonce msg))
  done

(* ------------------------------------------------------------------ *)
(* ChaCha20 PRNG. *)

let test_chacha20_vector () =
  (* Canonical ChaCha20 keystream for the all-zero key/nonce, block 0. *)
  let block = Prng.raw_block ~key:(String.make 32 '\000') ~counter:0 in
  Alcotest.(check string) "zero-key block"
    "76b8e0ada0f13d90405d6ae55386bd28bdd219b8a08ded1aa836efcc8b770dc7"
    (Bytes_util.to_hex (String.sub block 0 32));
  (* Counter separation: block 1 differs. *)
  let block1 = Prng.raw_block ~key:(String.make 32 '\000') ~counter:1 in
  Alcotest.(check bool) "blocks differ" true (not (String.equal block block1))

let test_prng_deterministic () =
  let a = Prng.create ~seed:"fixed" and b = Prng.create ~seed:"fixed" in
  Alcotest.(check string) "same stream" (Prng.bytes a 100) (Prng.bytes b 100);
  let c = Prng.create ~seed:"other" in
  Alcotest.(check bool) "different seed" true
    (not (String.equal (Prng.bytes (Prng.create ~seed:"fixed") 100) (Prng.bytes c 100)))

let test_prng_split_independent () =
  let g = Prng.of_int_seed 5 in
  let a = Prng.split g "a" and b = Prng.split g "b" in
  Alcotest.(check bool) "children differ" true
    (not (String.equal (Prng.bytes a 64) (Prng.bytes b 64)));
  (* Splitting does not consume parent state. *)
  let g1 = Prng.of_int_seed 5 in
  let _ = Prng.split g1 "a" in
  Alcotest.(check string) "parent unchanged" (Prng.bytes (Prng.of_int_seed 5) 32)
    (Prng.bytes g1 32)

let test_prng_uniform_int () =
  let g = prng () in
  for _ = 1 to 2000 do
    let v = Prng.uniform_int g 17 in
    if v < 0 || v >= 17 then Alcotest.failf "out of range: %d" v
  done;
  let seen = Array.make 17 false in
  for _ = 1 to 2000 do
    seen.(Prng.uniform_int g 17) <- true
  done;
  Alcotest.(check bool) "covers range" true (Array.for_all Fun.id seen)

let test_prng_shuffle () =
  let g = prng () in
  let a = Array.init 20 Fun.id in
  let shuffled = Array.copy a in
  Prng.shuffle g shuffled;
  Alcotest.(check bool) "is permutation" true
    (List.sort compare (Array.to_list shuffled) = Array.to_list a)

(* ------------------------------------------------------------------ *)
(* Primes. *)

let test_is_probable_prime_known () =
  let g = prng () in
  let prime n = Primes.is_probable_prime g (Bigint.of_string n) in
  List.iter
    (fun n -> Alcotest.(check bool) (n ^ " prime") true (prime n))
    [ "2"; "3"; "17"; "1999"; "2003"; "1000000007"; "170141183460469231731687303715884105727" ];
  List.iter
    (fun n -> Alcotest.(check bool) (n ^ " composite") false (prime n))
    [ "0"; "1"; "4"; "561"; "1105"; "2001"; "1000000008";
      "170141183460469231731687303715884105725" ]

let test_gen_prime () =
  let g = prng () in
  List.iter
    (fun bits ->
      let p = Primes.gen_prime g ~bits in
      Alcotest.(check int) "bit width" bits (Bigint.numbits p);
      Alcotest.(check bool) "is prime" true (Primes.is_probable_prime g p))
    [ 32; 64; 128 ]

let test_gen_safe_prime () =
  let g = prng () in
  let p = Primes.gen_safe_prime g ~bits:96 in
  let q = Bigint.shift_right (Bigint.pred p) 1 in
  Alcotest.(check int) "bit width" 96 (Bigint.numbits p);
  Alcotest.(check bool) "p prime" true (Primes.is_probable_prime g p);
  Alcotest.(check bool) "q prime" true (Primes.is_probable_prime g q)

(* ------------------------------------------------------------------ *)
(* Group. *)

let group () = Group.default ~bits:160

let test_group_structure () =
  let g = group () in
  let rng = prng () in
  Alcotest.(check bool) "p = 2q+1" true
    (Bigint.equal g.Group.p (Bigint.succ (Bigint.shift_left g.Group.q 1)));
  Alcotest.(check bool) "generator in subgroup" true (Group.is_element g g.Group.g);
  Alcotest.(check bool) "g^q = 1" true
    (Bigint.is_one (Bigint.mod_pow g.Group.g g.Group.q g.Group.p));
  let x = Group.random_exponent rng g in
  Alcotest.(check bool) "exponent range" true
    (Bigint.sign x > 0 && Bigint.compare x g.Group.q < 0);
  Alcotest.(check bool) "element membership" true
    (Group.is_element g (Group.element_of_exponent g x));
  Alcotest.(check bool) "non-element rejected" true (not (Group.is_element g Bigint.zero))

let test_group_cached () =
  let a = Group.default ~bits:160 and b = Group.default ~bits:160 in
  Alcotest.(check bool) "same group" true (Bigint.equal a.Group.p b.Group.p)

(* ------------------------------------------------------------------ *)
(* ElGamal + hybrid. *)

(* The secret hashes c1 mod p and c1^x: c1 + p decapsulates to the same
   secret, another key to a different one, and a unit outside QR_p to
   some secret, with no subgroup check and no exception. *)
let test_kem () =
  let g = group () in
  let rng = prng () in
  let sk = Elgamal.keygen rng g in
  let c1, secret = Elgamal.encapsulate rng (Elgamal.public sk) in
  let hex = Option.map Bytes_util.to_hex in
  Alcotest.(check (option string)) "decapsulate" (Some (Bytes_util.to_hex secret))
    (hex (Elgamal.decapsulate sk c1));
  Alcotest.(check (option string)) "c1 + p" (Some (Bytes_util.to_hex secret))
    (hex (Elgamal.decapsulate sk (Bigint.add c1 g.Group.p)));
  Alcotest.(check bool) "other key" false
    (Elgamal.decapsulate (Elgamal.keygen rng g) c1 = Some secret);
  let off_subgroup = Bigint.sub g.Group.p c1 in
  Alcotest.(check bool) "off-subgroup unit" false (Group.is_element g off_subgroup);
  Alcotest.(check bool) "off-subgroup decapsulates" true
    (Option.is_some (Elgamal.decapsulate sk off_subgroup));
  List.iter
    (fun c1 ->
      Alcotest.(check (option string)) "degenerate" None (hex (Elgamal.decapsulate sk c1)))
    [ Bigint.zero; g.Group.p ]

let test_hybrid_roundtrip () =
  let g = group () in
  let rng = prng () in
  let sk = Elgamal.keygen rng g in
  let pk = Elgamal.public sk in
  List.iter
    (fun len ->
      let msg = Prng.bytes rng len in
      let ct = Hybrid.encrypt rng pk msg in
      match Hybrid.decrypt sk ct with
      | Some out ->
        Alcotest.(check string) (Printf.sprintf "len %d" len) (Bytes_util.to_hex msg)
          (Bytes_util.to_hex out)
      | None -> Alcotest.fail "authentication failed on honest ciphertext")
    [ 0; 1; 16; 100; 5000 ]

let test_hybrid_tamper_detected () =
  let g = group () in
  let rng = prng () in
  let sk = Elgamal.keygen rng g in
  let ct = Hybrid.encrypt rng (Elgamal.public sk) "sensitive data" in
  let wire = Hybrid.to_wire ct in
  let tampered = Bytes.of_string wire in
  let last = Bytes.length tampered - 1 in
  Bytes.set tampered last (Char.chr (Char.code (Bytes.get tampered last) lxor 1));
  match Hybrid.decrypt sk (Hybrid.of_wire (Bytes.to_string tampered)) with
  | None -> ()
  | Some _ -> Alcotest.fail "tampering not detected"

let test_hybrid_wrong_key () =
  let g = group () in
  let rng = prng () in
  let sk1 = Elgamal.keygen rng g and sk2 = Elgamal.keygen rng g in
  let ct = Hybrid.encrypt rng (Elgamal.public sk1) "for key one" in
  match Hybrid.decrypt sk2 ct with
  | None -> ()
  | Some _ -> Alcotest.fail "decryption with the wrong key must fail authentication"

let test_hybrid_wire () =
  let g = group () in
  let rng = prng () in
  let sk = Elgamal.keygen rng g in
  let ct = Hybrid.encrypt rng (Elgamal.public sk) "over the wire" in
  let wire = Hybrid.to_wire ct in
  Alcotest.(check int) "size accounting" (Hybrid.size ct) (String.length wire);
  (match Hybrid.decrypt sk (Hybrid.of_wire wire) with
   | Some msg -> Alcotest.(check string) "roundtrip" "over the wire" msg
   | None -> Alcotest.fail "wire roundtrip broke authentication");
  Alcotest.check_raises "malformed" (Invalid_argument "Hybrid.of_wire: malformed ciphertext")
    (fun () -> ignore (Hybrid.of_wire "junk"))

(* A well-formed wire ciphertext whose c1 is 0 mod p (all zero bytes, or
   p itself) fails authentication instead of raising. *)
let test_hybrid_degenerate_kem () =
  let g = group () in
  let rng = prng () in
  let sk = Elgamal.keygen rng g in
  let wire = Hybrid.to_wire (Hybrid.encrypt rng (Elgamal.public sk) "hostile source") in
  let key_bytes = Bytes_util.read_be32 wire 0 in
  List.iter
    (fun (label, c1) ->
      let forged = Bytes.of_string wire in
      Bytes.blit_string c1 0 forged 4 key_bytes;
      match Hybrid.decrypt sk (Hybrid.of_wire (Bytes.to_string forged)) with
      | None -> ()
      | Some _ -> Alcotest.fail (label ^ ": degenerate c1 accepted"))
    [
      ("zero", String.make key_bytes '\000');
      ("p", Bigint.to_bytes_be_padded key_bytes g.Group.p);
    ]

let test_dem () =
  let rng = prng () in
  let key = Hybrid.random_session_key rng in
  let blob = Hybrid.seal ~key "session payload" in
  Alcotest.(check int) "tag overhead" (32 + String.length "session payload") (String.length blob);
  (match Hybrid.unseal ~key blob with
   | Some msg -> Alcotest.(check string) "roundtrip" "session payload" msg
   | None -> Alcotest.fail "dem roundtrip failed");
  Alcotest.(check (option string)) "short blob" None (Hybrid.unseal ~key (String.sub blob 0 31));
  match Hybrid.unseal ~key:(Hybrid.random_session_key rng) blob with
  | None -> ()
  | Some _ -> Alcotest.fail "wrong session key accepted"

(* ------------------------------------------------------------------ *)
(* Schnorr signatures. *)

let test_schnorr () =
  let g = group () in
  let rng = prng () in
  let sk = Schnorr.keygen rng g in
  let pk = Schnorr.public sk in
  let signature = Schnorr.sign rng sk "credential body" in
  Alcotest.(check bool) "verify" true (Schnorr.verify pk "credential body" signature);
  Alcotest.(check bool) "wrong message" false (Schnorr.verify pk "forged body" signature);
  let other = Schnorr.public (Schnorr.keygen rng g) in
  Alcotest.(check bool) "wrong key" false (Schnorr.verify other "credential body" signature);
  let wire = Schnorr.signature_to_wire signature in
  Alcotest.(check bool) "wire roundtrip" true
    (Schnorr.verify pk "credential body" (Schnorr.signature_of_wire wire))

(* ------------------------------------------------------------------ *)
(* Commutative encryption. *)

let test_commutative_properties () =
  let g = group () in
  let rng = prng () in
  let k1 = Commutative.keygen rng g and k2 = Commutative.keygen rng g in
  for _ = 1 to 20 do
    let x = Random_oracle.hash g (Prng.bytes rng 12) in
    let a = Commutative.apply k1 (Commutative.apply k2 x) in
    let b = Commutative.apply k2 (Commutative.apply k1 x) in
    Alcotest.(check bool) "commutativity" true (Bigint.equal a b);
    Alcotest.(check bool) "invertibility" true
      (Bigint.equal x (Commutative.unapply k1 (Commutative.apply k1 x)));
    Alcotest.(check bool) "stays in subgroup" true (Group.is_element g a)
  done

let test_commutative_injective () =
  let g = group () in
  let rng = prng () in
  let k = Commutative.keygen rng g in
  let seen = Hashtbl.create 64 in
  for i = 0 to 99 do
    let x = Random_oracle.hash g (Printf.sprintf "item-%d" i) in
    let y = Bigint.to_string (Commutative.apply k x) in
    if Hashtbl.mem seen y then Alcotest.fail "collision under commutative encryption";
    Hashtbl.add seen y ()
  done

(* ------------------------------------------------------------------ *)
(* Paillier. *)

let paillier_key =
  lazy
    (let rng = Prng.create ~seed:"paillier-tests" in
     Paillier.keygen rng ~bits:512)

let test_paillier_roundtrip () =
  let sk = Lazy.force paillier_key in
  let pk = Paillier.public sk in
  let rng = prng () in
  for _ = 1 to 20 do
    let m = Bigint.random_below (Prng.byte_source rng) pk.Paillier.n in
    let c = Paillier.encrypt rng pk m in
    Alcotest.(check bool) "roundtrip" true (Bigint.equal m (Paillier.decrypt sk c))
  done

let test_paillier_additive () =
  let sk = Lazy.force paillier_key in
  let pk = Paillier.public sk in
  let rng = prng () in
  for _ = 1 to 10 do
    let a = Bigint.random_below (Prng.byte_source rng) pk.Paillier.n in
    let b = Bigint.random_below (Prng.byte_source rng) pk.Paillier.n in
    let sum = Paillier.add pk (Paillier.encrypt rng pk a) (Paillier.encrypt rng pk b) in
    Alcotest.(check bool) "E(a)+E(b) = E(a+b)" true
      (Bigint.equal (Bigint.emod (Bigint.add a b) pk.Paillier.n) (Paillier.decrypt sk sum))
  done

let test_paillier_scalar () =
  let sk = Lazy.force paillier_key in
  let pk = Paillier.public sk in
  let rng = prng () in
  let a = Bigint.random_below (Prng.byte_source rng) pk.Paillier.n in
  let k = Bigint.of_int 12345 in
  let scaled = Paillier.scalar_mul pk k (Paillier.encrypt rng pk a) in
  Alcotest.(check bool) "k*E(a) = E(k*a)" true
    (Bigint.equal (Bigint.emod (Bigint.mul k a) pk.Paillier.n) (Paillier.decrypt sk scaled))

let test_paillier_rerandomize () =
  let sk = Lazy.force paillier_key in
  let pk = Paillier.public sk in
  let rng = prng () in
  let m = Bigint.of_int 777 in
  let c = Paillier.encrypt rng pk m in
  let c' = Paillier.rerandomize rng pk c in
  Alcotest.(check bool) "different ciphertext" true
    (not (Bigint.equal (Paillier.ciphertext_to_bigint c) (Paillier.ciphertext_to_bigint c')));
  Alcotest.(check bool) "same plaintext" true (Bigint.equal m (Paillier.decrypt sk c'))

let test_paillier_semantic () =
  let sk = Lazy.force paillier_key in
  let pk = Paillier.public sk in
  let rng = prng () in
  let m = Bigint.of_int 1 in
  let c1 = Paillier.encrypt rng pk m and c2 = Paillier.encrypt rng pk m in
  Alcotest.(check bool) "probabilistic" true
    (not (Bigint.equal (Paillier.ciphertext_to_bigint c1) (Paillier.ciphertext_to_bigint c2)))

let test_paillier_range_checks () =
  let sk = Lazy.force paillier_key in
  let pk = Paillier.public sk in
  let rng = prng () in
  Alcotest.check_raises "negative plaintext"
    (Invalid_argument "Paillier.encrypt: plaintext out of range") (fun () ->
      ignore (Paillier.encrypt rng pk (Bigint.of_int (-1))));
  Alcotest.check_raises "plaintext too large"
    (Invalid_argument "Paillier.encrypt: plaintext out of range") (fun () ->
      ignore (Paillier.encrypt rng pk pk.Paillier.n))

let test_paillier_crt_differential () =
  (* CRT decrypt must agree with the textbook path over fresh random
     keys of several sizes, random plaintexts, and the edge plaintexts
     0, 1, n-1 — including after homomorphic combinations. *)
  let rng = prng () in
  List.iter
    (fun bits ->
      for _ = 1 to 2 do
        let sk = Paillier.keygen rng ~bits in
        let pk = Paillier.public sk in
        let check m =
          let c = Paillier.encrypt rng pk m in
          let crt = Paillier.decrypt sk c in
          let plain = Paillier.decrypt_plain sk c in
          Alcotest.(check string) "crt = plain"
            (Bigint.to_string plain) (Bigint.to_string crt);
          Alcotest.(check string) "crt = m" (Bigint.to_string m) (Bigint.to_string crt)
        in
        check Bigint.zero;
        check Bigint.one;
        check (Bigint.pred pk.Paillier.n);
        for _ = 1 to 5 do
          check (Bigint.random_below (Prng.byte_source rng) pk.Paillier.n)
        done;
        (* Homomorphic combination decrypted by both paths. *)
        let a = Bigint.random_below (Prng.byte_source rng) pk.Paillier.n in
        let b = Bigint.random_below (Prng.byte_source rng) pk.Paillier.n in
        let c =
          Paillier.scalar_mul pk (Bigint.of_int 3)
            (Paillier.add pk (Paillier.encrypt rng pk a) (Paillier.encrypt rng pk b))
        in
        Alcotest.(check string) "homomorphic crt = plain"
          (Bigint.to_string (Paillier.decrypt_plain sk c))
          (Bigint.to_string (Paillier.decrypt sk c))
      done)
    [ 128; 256; 384 ];
  (* A key rebuilt from the public modulus alone has no factorization:
     decrypt must still work via the plain path... but private keys only
     come from keygen here, so instead check decrypt counts match. *)
  let sk = Lazy.force paillier_key in
  let pk = Paillier.public sk in
  let c = Paillier.encrypt rng pk (Bigint.of_int 42) in
  Counters.reset ();
  ignore (Paillier.decrypt sk c);
  ignore (Paillier.decrypt_plain sk c);
  Alcotest.(check int) "both paths bump Homomorphic_decrypt" 2
    (Counters.count Counters.Homomorphic_decrypt)

let test_paillier_encode_bytes () =
  let sk = Lazy.force paillier_key in
  let pk = Paillier.public sk in
  let capacity = Paillier.max_plaintext_bytes pk in
  Alcotest.(check bool) "capacity positive" true (capacity > 30);
  List.iter
    (fun payload ->
      match Paillier.decode_bytes pk (Paillier.encode_bytes pk payload) with
      | Some out -> Alcotest.(check string) "roundtrip" payload out
      | None -> Alcotest.fail "decode failed")
    [ ""; "x"; "hello world"; String.make capacity 'z' ];
  Alcotest.check_raises "too long" (Invalid_argument "Paillier.encode_bytes: too long")
    (fun () -> ignore (Paillier.encode_bytes pk (String.make (capacity + 1) 'z')));
  (* Random residues decode to None with overwhelming probability. *)
  let rng = prng () in
  let misses = ref 0 in
  for _ = 1 to 200 do
    let v = Bigint.random_below (Prng.byte_source rng) pk.Paillier.n in
    match Paillier.decode_bytes pk v with None -> incr misses | Some _ -> ()
  done;
  Alcotest.(check bool) "random values rejected" true (!misses >= 199)

(* ------------------------------------------------------------------ *)
(* Random oracle. *)

let test_random_oracle () =
  let g = group () in
  let h1 = Random_oracle.hash g "alpha" in
  let h2 = Random_oracle.hash g "alpha" in
  let h3 = Random_oracle.hash g "beta" in
  Alcotest.(check bool) "deterministic" true (Bigint.equal h1 h2);
  Alcotest.(check bool) "distinct inputs" true (not (Bigint.equal h1 h3));
  Alcotest.(check bool) "lands in QR_p" true (Group.is_element g h1);
  let r = Random_oracle.hash_to_range "payload" (Bigint.of_int 1000) in
  Alcotest.(check bool) "in range" true
    (Bigint.sign r >= 0 && Bigint.compare r (Bigint.of_int 1000) < 0)

(* ------------------------------------------------------------------ *)
(* Counters. *)

let test_counters () =
  let (), counts =
    Counters.with_fresh (fun () ->
        Counters.bump Counters.Hash;
        Counters.bump Counters.Hash;
        Counters.bump_by Counters.Homomorphic_add 5)
  in
  Alcotest.(check (option int)) "hash" (Some 2) (List.assoc_opt Counters.Hash counts);
  Alcotest.(check (option int)) "homadd" (Some 5)
    (List.assoc_opt Counters.Homomorphic_add counts);
  Alcotest.(check (option int)) "untouched" (Some 0)
    (List.assoc_opt Counters.Ideal_hash counts)

let test_counters_restore () =
  Counters.reset ();
  Counters.bump Counters.Hash;
  let (), _ = Counters.with_fresh (fun () -> Counters.bump_by Counters.Hash 100) in
  Alcotest.(check int) "outer count restored" 1 (Counters.count Counters.Hash);
  Counters.reset ()

let () =
  Alcotest.run "crypto"
    [
      ( "bytes",
        [
          Alcotest.test_case "hex" `Quick test_hex_roundtrip;
          Alcotest.test_case "xor" `Quick test_xor;
          Alcotest.test_case "constant-time equal" `Quick test_constant_time_equal;
          Alcotest.test_case "chunks" `Quick test_chunks;
        ] );
      ( "sha256",
        [
          Alcotest.test_case "NIST vectors" `Quick test_sha256_vectors;
          Alcotest.test_case "one million a" `Quick test_sha256_million_a;
          Alcotest.test_case "updates from mid-block" `Quick test_sha256_mid_block_runs;
          Alcotest.test_case "incremental" `Quick test_sha256_incremental;
          Alcotest.test_case "padding boundaries" `Quick test_sha256_padding_boundaries;
        ] );
      ( "hmac",
        [
          Alcotest.test_case "RFC 4231 vectors" `Quick test_hmac_rfc4231;
          Alcotest.test_case "verify" `Quick test_hmac_verify;
        ] );
      ( "aes",
        [
          Alcotest.test_case "FIPS 197 vector" `Quick test_aes_fips197;
          Alcotest.test_case "SP 800-38A vector" `Quick test_aes_sp800_38a;
          Alcotest.test_case "roundtrip" `Quick test_aes_roundtrip;
          Alcotest.test_case "CTR involution" `Quick test_aes_ctr_involution;
          Alcotest.test_case "CTR keystream" `Quick test_aes_ctr_keystream;
        ] );
      ( "prng",
        [
          Alcotest.test_case "ChaCha20 test vector" `Quick test_chacha20_vector;
          Alcotest.test_case "deterministic" `Quick test_prng_deterministic;
          Alcotest.test_case "split independence" `Quick test_prng_split_independent;
          Alcotest.test_case "uniform_int" `Quick test_prng_uniform_int;
          Alcotest.test_case "shuffle" `Quick test_prng_shuffle;
        ] );
      ( "primes",
        [
          Alcotest.test_case "known primes/composites" `Quick test_is_probable_prime_known;
          Alcotest.test_case "gen_prime" `Quick test_gen_prime;
          Alcotest.test_case "gen_safe_prime" `Quick test_gen_safe_prime;
        ] );
      ( "group",
        [
          Alcotest.test_case "structure" `Quick test_group_structure;
          Alcotest.test_case "cache" `Quick test_group_cached;
        ] );
      ( "elgamal-hybrid",
        [
          Alcotest.test_case "kem" `Quick test_kem;
          Alcotest.test_case "hybrid roundtrip" `Quick test_hybrid_roundtrip;
          Alcotest.test_case "tamper detection" `Quick test_hybrid_tamper_detected;
          Alcotest.test_case "wrong key" `Quick test_hybrid_wrong_key;
          Alcotest.test_case "wire format" `Quick test_hybrid_wire;
          Alcotest.test_case "degenerate kem" `Quick test_hybrid_degenerate_kem;
          Alcotest.test_case "dem" `Quick test_dem;
        ] );
      ("schnorr", [ Alcotest.test_case "sign/verify" `Quick test_schnorr ]);
      ( "commutative",
        [
          Alcotest.test_case "commutativity/invertibility" `Quick test_commutative_properties;
          Alcotest.test_case "injectivity" `Quick test_commutative_injective;
        ] );
      ( "paillier",
        [
          Alcotest.test_case "roundtrip" `Quick test_paillier_roundtrip;
          Alcotest.test_case "additive homomorphism" `Quick test_paillier_additive;
          Alcotest.test_case "scalar homomorphism" `Quick test_paillier_scalar;
          Alcotest.test_case "rerandomize" `Quick test_paillier_rerandomize;
          Alcotest.test_case "probabilistic" `Quick test_paillier_semantic;
          Alcotest.test_case "range checks" `Quick test_paillier_range_checks;
          Alcotest.test_case "crt ≡ plain decryption" `Quick test_paillier_crt_differential;
          Alcotest.test_case "byte packing" `Quick test_paillier_encode_bytes;
        ] );
      ("random-oracle", [ Alcotest.test_case "hash" `Quick test_random_oracle ]);
      ( "counters",
        [
          Alcotest.test_case "with_fresh" `Quick test_counters;
          Alcotest.test_case "restore" `Quick test_counters_restore;
        ] );
    ]
