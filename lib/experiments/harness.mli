(** Shared experiment infrastructure: compiled-workload and timing-run
    caches, the evaluation-wide default configuration, and the worker
    pool the experiment grids fan out on.

    Sizing note (DESIGN.md section 7): the surrogates run hundreds of
    thousands to a few million operations instead of the paper's 78-232
    million, and their static footprints are KBs instead of hundreds of
    KBs.  The default icache is therefore the {e scaled} stand-in
    (16KB, 4-way) for the paper's 64KB figure-3 cache, and the figure-6/7
    sweep uses 4/8/16KB for the paper's 16/32/64KB.  [paper_caches]
    selects the literal sizes instead.

    Concurrency (DESIGN.md section 9): both caches are mutex-protected
    with exactly-once fill semantics — N domains requesting the same
    (benchmark, config) cell block on one in-flight computation rather
    than repeating it — so experiment grids may call [run_conv] /
    [run_block] from any pool worker. *)

type t

val create :
  ?scale:int ->
  ?paper_caches:bool ->
  ?pool:Bisa_base.Pool.t ->
  ?exec:Bisa_sim.Compile.backend ->
  ?campaign:Campaign.t ->
  unit ->
  t
(** [pool] (default {!Bisa_base.Pool.sequential}) is the worker pool the
    experiment modules fan work out on; pass one pool per CLI run.
    [exec] (default [Compiled]) selects the functional-executor backend
    for every harness-routed timing run; [Interp] selects the
    dispatching interpreter.  Under [Compiled] each artifact carries a
    threaded-code handle, and each run builds the closure chains it
    executes, so no memo holds them.  Metrics are backend-independent
    (the backends drive identical executor state), so the run cache
    needs no exec key.
    [campaign] makes every harness-routed timing run crash-safe and
    resumable (see {!Campaign}); without it runs are in-memory only. *)

val exec_backend : t -> Bisa_sim.Compile.backend

val chunks : int -> 'a list -> 'a list list
(** [chunks n xs] splits grid results back into consecutive per-benchmark
    groups of [n].  Raises [Invalid_argument] when [n <= 0], or unless
    [n] divides the length.  Shared by the experiment modules. *)

val base_config : t -> Bisa_timing.Config.t
(** The figure-3 configuration: identical cores, real predictor, default
    icache. *)

val sweep_caches : t -> (string * Bisa_uarch.Cache.config) list
(** The figure-6/7 icache points, smallest first, with display labels. *)

val benchmarks : t -> Bisa_workloads.Workloads.t list

val pool : t -> Bisa_base.Pool.t

val artifact_conv :
  t -> Bisa_workloads.Workloads.t -> Bisa_timing.Pipeline.Conv.artifact
(** The workload's artifact, [Pipeline.Conv.prepare ~exec] of its
    compiled program — program witness, predecode tables, threaded-code
    handle (when the harness runs [~exec:Compiled]) and content hash —
    built exactly once and shared by every grid configuration and worker
    domain that simulates it.  Fires the compute hook with
    ["artifact:<bench>/<isa>"].  This is the value every timing run,
    campaign cell and checkpoint consumes. *)

val artifact_block :
  t -> Bisa_workloads.Workloads.t -> Bisa_timing.Pipeline.Block.artifact

val run_conv :
  t -> Bisa_workloads.Workloads.t -> Bisa_timing.Config.t -> Bisa_timing.Metrics.t
(** Timing run of the workload's {!artifact_conv}, memoized on
    (benchmark, isa, {!Bisa_timing.Config.fingerprint}), so every field
    of the configuration selects its own run.  Safe to call concurrently
    from pool workers; a given cell compiles and simulates exactly once.
    With a campaign attached the run goes through {!Campaign.run_cell}. *)

val run_block :
  t -> Bisa_workloads.Workloads.t -> Bisa_timing.Config.t -> Bisa_timing.Metrics.t

val set_compute_hook : t -> (string -> unit) -> unit
(** Observe cache misses: the hook fires exactly once per distinct cell,
    with ["compile:<bench>"], ["artifact:<bench>/<isa>"] or
    ["run:<bench>/<isa>"], before the computation runs.  Used by the
    thread-safety tests; defaults to [ignore]. *)

val verbose : bool ref
(** When set, each cache miss logs a progress line to stderr.  Lines are
    serialized behind a mutex, so concurrent workers never interleave
    mid-line. *)
