(** Tuples: immutable value vectors matching a schema (the schema lives on
    the enclosing relation). *)

type t

val of_list : Value.t list -> t
val of_array : Value.t array -> t
val to_list : t -> Value.t list
val arity : t -> int
val get : t -> int -> Value.t
val compare : t -> t -> int
val equal : t -> t -> bool
val hash : t -> int

val append : t -> t -> t

val project : int array -> t -> t
(** Keep the values at the given source positions, in order. *)

val matches_schema : Schema.t -> t -> bool
(** Arity and per-position type agreement. *)

val encode : t -> string
(** Self-delimiting byte encoding (arity header + encoded values); this is
    the [t] that the paper's [etuple = encrypt(t)] serializes. *)

val decode : string -> t
(** Raises [Invalid_argument] on malformed or trailing input. *)

val decode_at : string -> int -> t * int
(** The tuple encoded at an offset and the offset just past it, for
    concatenated encodings.  Raises [Invalid_argument] on malformed
    input. *)

val pp : Format.formatter -> t -> unit
