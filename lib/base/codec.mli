(** Compact binary state codec for checkpoint snapshots.

    Every checkpointable component (executors, timing engine, predictors,
    caches, metrics) serializes itself through {!W} and rebuilds through
    {!R}.  Integers are zigzag-varint with the full 63-bit range, floats
    are IEEE-754 bits, and {!W.section} / {!R.section} frame each
    component so a snapshot that no longer matches the code fails with
    the component's name.  All reader failures raise a structured
    {!Bisa_base.Diag.Fail} with component ["codec"]. *)

module W : sig
  type t

  val create : unit -> t
  val contents : t -> string
  val length : t -> int
  val int : t -> int -> unit
  val i64 : t -> int64 -> unit
  val bool : t -> bool -> unit
  val float : t -> float -> unit
  val string : t -> string -> unit
  val bytes : t -> Bytes.t -> unit
  val int_array : t -> int array -> unit
  val float_array : t -> float array -> unit
  val option : t -> (t -> 'a -> unit) -> 'a option -> unit

  val section : t -> string -> unit
  (** Write a named section marker the reader will verify. *)
end

module R : sig
  type t

  val of_string : ?pos:int -> string -> t
  val pos : t -> int
  val at_end : t -> bool
  val int : t -> int
  val i64 : t -> int64
  val bool : t -> bool
  val float : t -> float
  val string : t -> string
  val bytes : t -> Bytes.t
  val int_array : t -> int array
  val float_array : t -> float array
  val option : t -> (t -> 'a) -> 'a option

  val section : t -> string -> unit
  (** Check the next marker is the named section; raises {!Bisa_base.Diag.Fail}
      naming both sections otherwise. *)
end

val fnv1a64 : string -> int64
(** FNV-1a 64 content hash, used to bind snapshots to the exact program
    bytes and configuration they were taken under, and to key the
    daemon's caches.  Allocates a 28-byte {!Fnv} state and its result;
    the bytes themselves allocate nothing. *)

(** FNV-1a 64 fed piece by piece: feeding [a] then [b] gives
    [fnv1a64 (a ^ b)] without building [a ^ b], and no feed allocates. *)
module Fnv : sig
  type t

  val create : unit -> t
  val string : t -> string -> unit

  val int : t -> int -> unit
  (** The bytes of [string_of_int n]. *)

  val value : t -> int64
  (** The hash of everything fed so far. *)
end

val hex64 : int64 -> string
(** 16 lowercase hex digits, two's complement (as [%016Lx] prints). *)

val hash_hex : string -> string
(** [hex64 (fnv1a64 s)]. *)
