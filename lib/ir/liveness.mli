(** Per-block live-variable analysis (backwards dataflow), the input to
    linear-scan register allocation. *)

type t = {
  live_in : Bitset.t array;   (** per block *)
  live_out : Bitset.t array;
}

val analyze : Ir.func -> t
