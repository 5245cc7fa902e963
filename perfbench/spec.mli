(** The benchmark's metric catalogue and its output formats.

    The names, units and directions here are the ones [BENCHMARK.json]
    records; a test keeps the two in step. *)

type better = Lower | Higher

type metric = { name : string; unit_ : string; better : better }

val workloads : string list
(** ["report"; "sim_long"; "toolchain"; "serve"]. *)

val end_to_end : metric list
(** Printed by every untraced run, on every workload. *)

val per_layer : metric list
(** Printed by every traced run, on every workload; a layer the workload
    does not exercise reads 0. *)

val find : string -> metric
(** Raises [Not_found] for a name outside both lists. *)

val line : metric -> float -> string
(** The human-readable [name value unit] line. *)

val result_json :
  correct:bool -> attempted:int -> failed:int -> (metric * float) list -> string
(** The single-line result object: [correct], [attempted], [failed] and
    [metrics] (each [{"value": v, "unit": u}], every digit kept).  Raises
    [Invalid_argument] on a non-finite value. *)
