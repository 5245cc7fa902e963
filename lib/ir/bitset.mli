(** Dense mutable bitsets over [0..n-1], for dataflow analyses, stored
    [Sys.int_size] bits to an [int] word.  Every operation checks that its
    indexes and sizes agree. *)

type t

val create : int -> t
val mem : t -> int -> bool
val add : t -> int -> unit
val remove : t -> int -> unit
val union_into : dst:t -> t -> bool
(** [union_into ~dst src] ors [src] into [dst]; returns true if [dst]
    changed. *)

val transfer : dst:t -> gen:t -> kill:t -> t -> bool
(** [transfer ~dst ~gen ~kill src] sets [dst] to [gen ∪ (src \ kill)] in
    place, a word at a time — a dataflow transfer function; returns true
    if [dst] changed.  All four sets must have the same size. *)

val copy : t -> t
val equal : t -> t -> bool
val iter : t -> (int -> unit) -> unit
(** In increasing order; skips empty words. *)

val cardinal : t -> int
val elements : t -> int list
