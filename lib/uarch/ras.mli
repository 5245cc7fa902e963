(** Return-address stack: a fixed-depth circular predictor for return
    targets (overflow silently wraps, as in real hardware). *)

type t

val create : depth:int -> t
val push : t -> int -> unit
val pop_id : t -> int
(** The popped target, or -1 when empty (predict nothing; counts as a
    mispredict). *)

val depth : t -> int
val occupancy : t -> int

val save : t -> Bisa_base.Codec.W.t -> unit
val load : t -> Bisa_base.Codec.R.t -> unit
(** Checkpoint/restore the stack contents.  Depth must match. *)
