(** Store buffer for atomic-block execution.

    The block-structured ISA commits a block's stores only if no fault
    operation fires (paper section 2: "either every operation in the block
    is executed or none").  During block execution stores land here; loads
    see the buffered values (store-to-load forwarding inside a block);
    commit flushes to memory, a fault discards the buffer. *)

type t

val create : unit -> t
val clear : t -> unit
val store : t -> int -> int -> unit
val storef : t -> int -> float -> unit
val load : t -> Memory.t -> int -> int
val loadf : t -> Memory.t -> int -> float
val flush : t -> Memory.t -> unit
(** Apply buffered stores in program order, then clear.  Raises
    {!Memory.Unaligned} with the first unaligned address, having written
    nothing, if any buffered address is not 8-byte aligned. *)

val size : t -> int
