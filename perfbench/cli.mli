(** Command-line arguments of the benchmark. *)

type profile =
  | Full  (** the sizes [BENCHMARK.json] measures, passes repeated for [seconds] *)
  | Smoke  (** small sizes, one pass: the correctness gate of [dune runtest] *)

type t = {
  workload : string;
  seed : int;
  seconds : float;  (** measuring time; whole passes only, at least one *)
  trace : bool;  (** traced run: per-layer metrics instead of end-to-end *)
  profile : profile;
  bisad : string;  (** the daemon executable the [serve] workload spawns *)
}

val usage : string

val parse : string list -> (t, string) result
(** [--workload W] (required, one of {!Spec.workloads}), [--seed N]
    (default 1), [--seconds S] (default 30), [--trace 0|1] (default 0),
    [--profile full|smoke] (default full) and [--bisad PATH] (default
    [_build/default/bin/bisad.exe]), each flag followed by its value. *)
