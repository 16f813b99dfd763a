(** SHA-256 (FIPS 180-4).  The compression function is a C kernel
    (sha256_stubs.c) that hashes a whole run of 64-byte blocks per call;
    this module buffers partial blocks and pads.

    Verified against the FIPS 180-4 and NIST test vectors in the test
    suite.  Both a one-shot and an incremental interface are provided. *)

type ctx

val init : unit -> ctx
val update : ctx -> string -> unit
val finalize : ctx -> string
(** 32-byte raw digest.  The context must not be reused afterwards. *)

val digest : string -> string
(** One-shot 32-byte raw digest. *)

val hex_digest : string -> string

val digest_size : int
(** 32. *)
