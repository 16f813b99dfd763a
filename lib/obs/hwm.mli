(** Tracked high-water-mark accounting for transport-held buffers.

    The streaming transport's headline claim — mediator memory flat in
    the row count — is enforced, not asserted: every buffer the chunked
    delivery path keeps alive registers its bytes against a named region
    here, and the stream bench/tests read the per-region peak back out,
    so a regression that re-materialises a whole relation shows up in
    every run. *)

type t
(** A named accounting region ("wire.stream", "mux.parked", ...). *)

val region : string -> t
(** Interned by name; repeated calls return the same region. *)

val name : t -> string

val alloc : t -> int -> unit
(** Charge [n] bytes to the region, advancing its peak if needed. *)

val release : t -> int -> unit
(** Return [n] bytes.  Clamped at zero, so a double release cannot
    drive the gauge negative. *)

val current : t -> int
val peak : t -> int

val reset : unit -> unit
(** Zero every region's current and peak (handles stay valid) — for
    test isolation; live buffers keep their real sizes, so only call
    between runs. *)

val regions : unit -> (string * int * int) list
(** All regions as [(name, current, peak)], sorted by name. *)

val global_peak : unit -> int
(** Sum of the per-region peaks. *)

val snapshot : unit -> Json.t
(** All regions as one JSON object: [{region: {current, peak}}]. *)
