(** Profile-guided block enlargement — the paper's section-6 proposal:
    "the amount of code duplication caused by the block enlargement
    optimization can be reduced if this optimization does not combine
    blocks that contain unbiased branches with their successors, thereby
    reducing the icache miss rate in exchange for smaller enlarged atomic
    blocks."

    The flow: compile once to machine IR; link an {e unenlarged}
    block-structured executable; run it functionally, attributing every
    trap outcome back to its protoblock (via {!Bisa_backend.Enlarge.t}'s
    [start_proto] map); re-link with the bias oracle so unbiased traps
    stay traps. *)

type profile = (string * int, int * int) Hashtbl.t
(** (function, protoblock) -> (times taken, total executions). *)

val collect :
  Bisa_isa.Block_prog.t -> Bisa_backend.Enlarge.t list -> ?budget:int -> unit -> profile
(** Functional profiling run of an (unenlarged) block executable. *)

val bias_of : profile -> string -> int -> float option
(** The oracle {!Bisa_backend.Linker.link_block} expects; [None] below 16
    observations. *)

val compile : ?scale:int -> Bisa_workloads.Workloads.t -> Bisa_compiler.Compiler.compiled
(** The full profile-guided build of a workload surrogate. *)

val study :
  ?exec:Bisa_sim.Compile.backend ->
  ?workloads:string list ->
  ?pool:Bisa_base.Pool.t ->
  unit ->
  Ablations.study
(** Default vs profile-guided enlargement on the paper's two worst icache
    offenders (gcc, go): code size, icache misses at the small cache
    points, fault squashes, and cycles.  [exec] (default [Compiled]) is
    the backend of the timing runs; the profiling run stays on the
    interpreter, whose step records it reads. *)
