(** Resumable experiment campaigns: per-cell atomic manifests plus
    checkpoint snapshots under one campaign directory.

    A cell is one (benchmark, ISA, configuration, program) simulation,
    keyed by content — the configuration's {!Bisa_timing.Config.fingerprint}
    and the program's content hash — so results are reused independently
    of execution order or worker count.  Finished cells persist their
    {!Bisa_timing.Metrics.t} through {!Bisa_base.Atomic_file}; in-flight
    cells leave {!Bisa_timing.Checkpoint} snapshots every
    [checkpoint_every] dynamic ops.  Killing a run at any instant and
    re-opening the same directory loses at most one checkpoint interval
    of one in-flight cell per worker, and the final report is
    byte-identical to an uninterrupted run. *)

type t

exception Timed_out of { key : string; ops : int }
(** Raised by {!run_cell} when the per-cell time budget expires.  The
    cell's snapshot is kept, so a rerun resumes rather than restarts. *)

val open_ :
  dir:string ->
  ?checkpoint_every:int ->
  ?timeout_s:float ->
  scale:int option ->
  paper_caches:bool ->
  unit ->
  t
(** Open (creating if missing) a campaign directory.  [scale] and
    [paper_caches] are the campaign's identity: re-opening an existing
    directory under different settings raises a structured
    {!Bisa_base.Diag.Fail} rather than silently mixing results.
    [checkpoint_every] (default 100_000) is the snapshot cadence in
    dynamic ops; [timeout_s] bounds each cell's wall-clock time. *)

val dir : t -> string

val run_cell :
  t ->
  (module Bisa_timing.Pipeline.S with type prog = 'p and type artifact = 'a) ->
  bench:string ->
  Bisa_timing.Config.t ->
  'a ->
  Bisa_timing.Metrics.t
(** Run one prepared artifact ({!Bisa_timing.Pipeline.S.prepare} /
    [bundle]) as a cell under campaign protection: return the stored
    metrics if the cell already finished, otherwise resume from its
    snapshot (if any), simulate, persist the manifest atomically, and
    return.  Raises {!Timed_out} when [timeout_s] expires first, and
    {!Bisa_base.Diag.Fail}, located at the byte and naming the file, on
    a damaged or stale manifest or snapshot.

    An artifact carrying threaded code runs the cell on the compiled
    functional executor.  Artifacts are derived state and the exec
    backend is deliberately absent from the cell key: both backends
    drive identical executor state and produce identical metrics, so a
    campaign started under one backend may be finished under the
    other. *)

val timed_out_diag : key:string -> ops:int -> Bisa_base.Diag.t
(** Structured rendering of a cell timeout for the unified failure
    model. *)

val key : bench:string -> isa:string -> cfg_hash:int64 -> prog_hash:int64 -> string
(** The cell naming scheme (exposed for tests and tooling). *)
