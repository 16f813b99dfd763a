(** Typed wire forms of protocol values, and {!Secmed_mediation.Link}
    deliveries in those forms: a codec fixes a value's declared
    transcript size together with its exact-size encoding, so the two
    cannot drift apart. *)

open Secmed_crypto
open Secmed_mediation

(** A value's wire form: its declared size, an exact-size writer, a
    reader that raises [Wire.Malformed] on hostile bytes, and what a
    byzantine [Malformed_ciphertexts] source does to it. *)
type 'a t = {
  size : 'a -> int;
  write : Wire.writer -> 'a -> unit;
  read : Wire.reader -> 'a;
  malformed : 'a -> 'a;
}

val hybrid : Hybrid.ciphertext t
(** A byzantine source flips the ciphertext's last bit, so the client's
    authenticated decryption fails. *)

val none : unit t
val pair : 'a t -> 'b t -> ('a * 'b) t

val tuples : Secmed_relalg.Tuple.t list t
(** A tuple set, as sealed for the client (e.g. Tup_i(a)). *)

val point : Group.t -> Secmed_bigint.Bigint.t t
(** A group element at the group's fixed byte width. *)

val encode : 'a t -> 'a -> string
val decode : 'a t -> string -> 'a
val decode_all : 'a t -> string -> 'a list
(** Values back to back until the end of the bytes. *)

val exchange :
  Link.t ->
  phase:string ->
  sender:Transcript.party ->
  receiver:Transcript.party ->
  label:string ->
  ?guard:bool ->
  'a t ->
  'a option ->
  'a option
(** {!Link.exchange} of one value. *)

val exchange_list :
  Link.t ->
  phase:string ->
  sender:Transcript.party ->
  receiver:Transcript.party ->
  label:string ->
  'a t ->
  'a list option ->
  'a list option
(** {!Link.exchange_rows} of a list, one row per element. *)
