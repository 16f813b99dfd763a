(** AES-128 block cipher (FIPS 197) with a CTR mode keystream.

    Table-driven (T-tables), so not constant-time (DESIGN.md §5).  The
    tables are derived from the GF(2^8) field arithmetic at module
    initialization rather than hard-coded; the test suite checks the FIPS
    197 and NIST SP 800-38A vectors. *)

type key

val expand_key : string -> key
(** Expects exactly 16 key bytes. *)

val encrypt_block : key -> string -> string
(** Encrypts exactly one 16-byte block. *)

val decrypt_block : key -> string -> string

val ctr_transform : key:string -> nonce:string -> string -> string
(** CTR en/decryption (an involution).  [key] is 16 bytes, [nonce] is 12
    bytes; the 4-byte big-endian block counter starts at 0. *)
