(** Simulated data memory: sparse, paged, word-addressed.

    Every address is byte-valued and must be 8-byte aligned.  Each word has
    an integer slot and (lazily allocated) a float slot; [storef]/[loadf]
    use the float side.  MiniC never type-puns through memory, so the dual
    representation is exact — this is what lets the simulator keep
    OCaml-native integer semantics while storing full-precision floats. *)

type t

exception Unaligned of int
(** Raised (with the byte address) by every access whose address is not
    8-byte aligned.  The executors catch it and turn it into an
    architected machine trap — a clean halt — rather than letting it
    escape as a crash. *)

val check_aligned : int -> unit
(** Raises {!Unaligned} unless the address is 8-byte aligned: the check
    every access makes, for callers that must check before accessing. *)

val create : unit -> t
val load : t -> int -> int
val store : t -> int -> int -> unit
val loadf : t -> int -> float
val storef : t -> int -> float -> unit
val footprint_words : t -> int
(** Number of words in touched pages (for diagnostics). *)

val save_state : t -> Bisa_base.Codec.W.t -> unit
val load_state : t -> Bisa_base.Codec.R.t -> unit
(** Checkpoint the touched pages (ascending key order, so equal memory
    states snapshot to identical bytes); [load] replaces the contents. *)
