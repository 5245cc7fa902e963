(** Experiments beyond the paper's evaluation section.

    [scientific] tests the paper's future-work claim (section 6): on
    FP-heavy scientific code — larger basic blocks, more predictable
    branches — the block-structured gain should exceed the SPECint
    result.

    The studies that compile their own program variants take [exec]
    (default [Compiled]), the functional-executor backend of their
    timing runs; the rendered report does not depend on it. *)

val scientific :
  ?exec:Bisa_sim.Compile.backend -> ?pool:Bisa_base.Pool.t -> unit -> Figures.report

val prediction_parity : Harness.t -> Figures.report
(** The paper's side claim that both executables "incur about the same
    number of branch mispredictions": mispredicts per 1000 retired
    operations for both cores. *)

val trace_cache_rivalry :
  ?exec:Bisa_sim.Compile.backend ->
  ?workloads:string list ->
  ?pool:Bisa_base.Pool.t ->
  unit ->
  Figures.report
(** The paper's section-3 rival: a conventional core with a Rotenberg-style
    trace cache vs plain conventional vs block-structured — the run-time
    and compile-time approaches to the same fetch problem, side by side. *)

val predication_study :
  ?exec:Bisa_sim.Compile.backend ->
  ?workloads:string list ->
  ?pool:Bisa_base.Pool.t ->
  unit ->
  Figures.report
(** Section 6's first proposal: if-conversion turns small branch hammocks
    into select operations, eliminating hard-to-predict branches and
    growing basic blocks for enlargement to merge further. *)

val inlining_study :
  ?exec:Bisa_sim.Compile.backend ->
  ?workloads:string list ->
  ?pool:Bisa_base.Pool.t ->
  unit ->
  Figures.report
(** Section 6's other proposal: inlining removes the call/return
    boundaries that termination rule 3 stops at, letting enlargement build
    bigger blocks.  Compares the block core with and without
    {!Bisa_opt.Inline}. *)
