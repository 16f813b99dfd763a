val total_bytes : (int * string) list -> int
(** Sum of the row byte lengths: the transcript size of a row stream.
    The chunk format itself is [Secmed_net.Frame]'s (DESIGN.md §16). *)
