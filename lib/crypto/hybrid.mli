(** The paper's [encrypt]/[decrypt]: hybrid public-key encryption.

    A fresh secret is encapsulated with the client's public key by hashed
    ElGamal ({!Elgamal.encapsulate}); the body is sealed under it by a DEM
    for single-use keys: AES-128-CTR under a constant nonce, then an
    HMAC-SHA256 tag over the ciphertext (encrypt-then-MAC), with both keys
    derived from the secret.  Matches Section 2: "the information is
    encrypted with a newly generated symmetric session key and the session
    key is encrypted with the public keys of the client".  The wire form
    is the key width, [c1], the sealed length, the tag and the body. *)

type ciphertext

val encrypt : Prng.t -> Elgamal.public_key -> string -> ciphertext
val decrypt : Elgamal.private_key -> ciphertext -> string option
(** [None] when authentication fails, and when [c1] is 0 mod p (see
    {!Elgamal.decapsulate}). *)

val size : ciphertext -> int
(** Wire size in bytes (for communication accounting). *)

val to_wire : ciphertext -> string
val of_wire : string -> ciphertext
(** Raises [Invalid_argument] on malformed input. *)

val of_wire_at : string -> int -> ciphertext * int
(** The ciphertext whose wire form starts at an offset, and the offset
    just past it ({!to_wire} is self-delimiting).  Raises
    [Invalid_argument] on malformed input. *)

(** {1 Session-key (DEM-only) operations}

    The PM protocol's footnote-2 variant transmits the session key through
    the homomorphic channel and the bulk data under that key; these expose
    the DEM on its own.  A key must seal one message only: the nonce is
    constant. *)

val random_session_key : Prng.t -> string
(** 16 bytes. *)

val seal : key:string -> string -> string
(** The 32-byte tag followed by the body: 32 bytes longer than the
    plaintext. *)

val unseal : key:string -> string -> string option
(** [None] when the blob is shorter than a tag or fails authentication. *)
