(** Architectural register file: 32 integer + 32 float registers, with [r0]
    hardwired to zero. *)

type t = private { ints : int array; flts : float array }
(** The backing arrays themselves: the compiled executor ({!Compile})
    resolves register operands to direct array indices at compile time
    and reads/writes through these, and the block step protocol copies
    its shadow slots through them.  Mutating them is equivalent to
    {!set_i}/{!set_f} except that the [r0]-write drop and the int/float
    class check become the caller's obligation. *)

val create : unit -> t
val get_i : t -> Bisa_isa.Reg.t -> int
val set_i : t -> Bisa_isa.Reg.t -> int -> unit
val get_f : t -> Bisa_isa.Reg.t -> float
val set_f : t -> Bisa_isa.Reg.t -> float -> unit
val copy : t -> t

val save : t -> Bisa_base.Codec.W.t -> unit
val load : t -> Bisa_base.Codec.R.t -> unit
(** Checkpoint the full architectural register state. *)
