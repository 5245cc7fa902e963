(** Architectural registers of the load/store ISA.

    Both the conventional ISA and the block-structured ISA (whose operations
    "correspond roughly to the instructions of a conventional ISA", paper
    section 4.1) share this register file: 32 integer registers and 32
    floating-point registers.

    Integer register conventions used by the compiler back end:
    - [r0]: hardwired zero
    - [r1]: stack pointer
    - [r2]: integer return value
    - [r3]: assembler temporary (spill address computation)
    - [r4]-[r11]: integer arguments
    - [r12]-[r23]: caller-saved temporaries
    - [r24]-[r30]: callee-saved
    - [r31]: return address (link register)

    Floating point: [f2] return value, [f4]-[f11] arguments, [f12]-[f23]
    caller-saved, [f24]-[f31] callee-saved. *)

type t = Int of int | Flt of int
(** A register: [Int i] is integer register [ri], [Flt i] is float register
    [fi], with [0 <= i < count]. *)

val count : int
(** Registers per file (32). *)

val zero : t
val sp : t
val rv : t
val at : t
val ra : t
val frv : t

val int_args : t list
(** Argument-passing integer registers, in order. *)

val flt_args : t list

val is_int : t -> bool
val index : t -> int

val flat_index : t -> int
(** Injective index in [\[0, 2*count)], for array-indexed register maps. *)

val flat_count : int
val of_flat_index : int -> t

val to_string : t -> string
val pp : Format.formatter -> t -> unit
val equal : t -> t -> bool
val compare : t -> t -> int
