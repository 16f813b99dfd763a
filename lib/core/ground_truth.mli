(** Ground-truth quantities of a two-relation join workload, computed
    directly on the plaintexts.  The leakage verification compares what
    protocol parties derived against these. *)

open Secmed_relalg

type t = {
  card_left : int;                 (** |R1| *)
  card_right : int;                (** |R2| *)
  domactive_left : int;            (** |dom_active(R1.A_join)| *)
  domactive_right : int;
  domactive_intersection : int;    (** |dom_active(R1) ∩ dom_active(R2)| *)
  exact_join_pairs : int;          (** |R1 ⋈ R2| *)
}

val compute : Relation.t -> Relation.t -> join_attr:string -> t
val compute_keys : Relation.t -> Relation.t -> join_attrs:string list -> t
(** Composite-key variant (the Section 8 extension). *)

val pp : Format.formatter -> t -> unit
