(** Order statistics and the seeded input streams the workloads draw from.

    Every timing the benchmark reports is a median or a tail percentile
    over repeated samples, never a mean: one descheduled sample on a
    shared two-core machine must not move the reported number. *)

val quantile : float list -> float -> float
(** [quantile xs q] is the [q]-quantile ([0 <= q <= 1]) of a non-empty
    sample, interpolating linearly between order statistics — the
    ["inclusive"] method of Python's [statistics.quantiles].  Raises
    [Invalid_argument] on an empty sample. *)

val median : float list -> float

val tail_level : int -> int
(** The reported tail percentile for [n] samples, in tenths of a percent:
    the highest of p99, p90 and p50 with at least ten samples beyond it,
    and p50 when no level qualifies (fewer than 20 samples). *)

val level_name : int -> string
(** ["p50"], ["p90"], ["p99"]. *)

val zipf_ranks : seed:int -> keys:int -> count:int -> int array
(** [count] draws from a Zipf(s = 1) distribution over the popularity
    ranks [0, keys), rank 0 the most popular.  Equal arguments give equal
    streams. *)
