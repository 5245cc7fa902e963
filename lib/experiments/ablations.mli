(** Ablation studies for the design choices DESIGN.md calls out.

    [enlargement_rules] re-compiles a subset of workloads under variant
    enlargement configurations (no enlargement; one fault per block; a
    narrower 8-op issue limit; merging across loop back edges; enlarging
    library code) and reports cycles, block sizes and code growth — the
    compiler-side knobs of paper section 4.2.

    [history_policy] compares the paper's variable-length history update
    (modification 3) against naively shifting three bits per block,
    quantifying why the minimum-bits rule exists.

    [exec] (default [Compiled]) is the functional-executor backend of
    every timing run; the studies do not depend on it. *)

type study = { id : string; title : string; rendered : string }

val enlargement_rules :
  ?exec:Bisa_sim.Compile.backend ->
  ?workloads:string list ->
  ?pool:Bisa_base.Pool.t ->
  unit ->
  study

val history_policy :
  ?exec:Bisa_sim.Compile.backend ->
  ?workloads:string list ->
  ?pool:Bisa_base.Pool.t ->
  unit ->
  study

val all : ?exec:Bisa_sim.Compile.backend -> ?pool:Bisa_base.Pool.t -> unit -> study list
