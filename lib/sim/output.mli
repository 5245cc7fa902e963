(** Observable program output: the stream produced by [print]/[printf]
    operations plus the exit value.  The reference interpreter and both ISA
    executors must produce identical values — the toolchain's main
    correctness oracle. *)

type item = Oint of int | Oflt of float

type t = { ret : int; items : item list }

val equal : t -> t -> bool
(** Same exit value and items; floats compare by their bits (so 0.0 and
    -0.0 differ), except that any NaN matches any NaN. *)

val to_string : t -> string

(** Bounded output accumulation for paper-scale streamed runs.

    A sink retains at most [cap] items (default: unbounded) but always
    maintains the exact item count and a rolling FNV-style content hash,
    so memory stays O(cap) on a 100M-op run while two runs' outputs can
    still be compared digest-for-digest.  Both ISA executors write
    through a sink. *)
module Sink : sig
  type sink

  val create : unit -> sink
  (** Unbounded: every item is retained (seed-compatible behavior). *)

  val set_cap : sink -> int -> unit
  (** Retain at most [cap] items from now on; counting and hashing are
      unaffected.  Raises [Invalid_argument] on a negative cap. *)

  val push : sink -> item -> unit
  val count : sink -> int
  val hash : sink -> int64
  val truncated : sink -> bool
  (** True once items beyond the cap have been dropped. *)

  val items : sink -> item list
  (** The retained items, oldest first. *)

  val save : sink -> Bisa_base.Codec.W.t -> unit
  val load : sink -> Bisa_base.Codec.R.t -> unit
end
