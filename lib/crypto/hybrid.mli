(** The paper's [encrypt]/[decrypt]: hybrid public-key encryption.

    A fresh symmetric session key is encapsulated with the client's public
    (ElGamal) key; the body is AES-128-CTR encrypted and authenticated with
    HMAC-SHA256 (encrypt-then-MAC).  Matches Section 2: "the information is
    encrypted with a newly generated symmetric session key and the session
    key is encrypted with the public keys of the client". *)

type ciphertext

val encrypt : Prng.t -> Elgamal.public_key -> string -> ciphertext
val decrypt : Elgamal.private_key -> ciphertext -> string option
(** [None] when authentication fails, and when the encapsulated key's
    [c1] is 0 mod p (see {!Elgamal.decapsulate}). *)

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
    the symmetric half on its own. *)

val random_session_key : Prng.t -> string
(** 16 bytes. *)

val dem_encrypt : Prng.t -> key:string -> string -> string
val dem_decrypt : key:string -> string -> string option
