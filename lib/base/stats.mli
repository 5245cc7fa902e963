(** Lightweight statistics accumulators used by the simulators and the
    experiment harness. *)

(** Running mean / min / max / count over observed values. *)
module Mean : sig
  type t

  val create : unit -> t
  val add : t -> float -> unit
  val add_n : t -> float -> int -> unit
  (** [add_n t v n] records [n] observations of value [v]. *)

  val count : t -> int
  val total : t -> float
  val mean : t -> float
  (** 0.0 when empty. *)

  val min : t -> float
  val max : t -> float
end

(** Integer-bucketed histogram. *)
module Histogram : sig
  type t

  val create : buckets:int -> t
  (** Buckets [0 .. buckets-1]; out-of-range values clamp to the ends. *)

  val add : t -> int -> unit
  val count : t -> int -> int
  val total : t -> int
  val mean : t -> float
  val percentile : t -> float -> int
  (** [percentile t 0.5] is the median bucket; 0 when empty. *)

  val iter : t -> (int -> int -> unit) -> unit

  val save : t -> Codec.W.t -> unit
  val load : t -> Codec.R.t -> unit
  (** Checkpoint the bucket counts; [load] requires an identically-sized
      histogram and raises [Invalid_argument] otherwise. *)
end

val ratio : int -> int -> float
(** [ratio num den] = [num/den] as float, 0.0 when [den] = 0. *)

val geomean : float list -> float
(** Geometric mean of positive values; 0.0 on empty input. *)
