(** Crash-safe snapshots of in-flight timing simulations.

    A snapshot file is a sealed {!Bisa_base.Codec} envelope (magic
    ["BISACKPT"], format version 2) whose identity is the ISA name, the
    program content hash and the configuration fingerprint, and whose
    body is the op count followed by the serialized session state of
    either pipeline.  Snapshots are written and found through
    {!Bisa_base.Codec.write_sealed} and {!Bisa_base.Codec.read_sealed},
    so a kill at any instant leaves the newest complete snapshot
    findable (as [path] or [path.next]), never a torn one.  Loads
    raise a structured {!Bisa_base.Diag.Fail} (component ["checkpoint"],
    located at the offending byte) on a stale, foreign, mismatched or
    damaged snapshot. *)

val save :
  path:string ->
  isa:string ->
  prog_hash:int64 ->
  cfg_hash:int64 ->
  ops:int ->
  (Bisa_base.Codec.W.t -> unit) ->
  unit
(** Write a snapshot atomically: the op count, then the payload the
    callback serializes (normally a pipeline session's [save]), sealed. *)

val load :
  path:string ->
  isa:string ->
  prog_hash:int64 ->
  cfg_hash:int64 ->
  (int * Bisa_base.Codec.R.t) option
(** [None] if no snapshot exists at [path].  Otherwise check the newest
    one's envelope and the expected identity and return its op count and
    a reader positioned at the payload.  Raises {!Bisa_base.Diag.Fail} on
    any mismatch or damage, located at the byte and naming [path]. *)

type 'a outcome = Finished of 'a | Timed_out of { ops : int }

val drive :
  (module Pipeline.S with type prog = 'p and type artifact = 'a) ->
  ?probe:Bisa_obs.Probe.t ->
  ?snapshot:string * int ->
  ?deadline:(unit -> bool) ->
  Config.t ->
  'a ->
  (Metrics.t * Bisa_sim.Output.t) outcome
(** Run a prepared artifact ({!Pipeline.S.prepare} / {!Pipeline.S.bundle})
    to completion under checkpoint protection.

    The artifact's threaded code (when present) selects the compiled
    functional-executor backend.  Artifacts are derived state and the
    backend is not part of the snapshot identity: both backends drive
    identical executor state, so a snapshot taken under one resumes
    under the other (and under an artifact rebuilt from scratch).

    [snapshot = (path, every)] resumes from [path] when a valid snapshot
    exists there, then rewrites it each time another [every] dynamic ops
    complete — a kill at any instant loses at most one interval.  The
    snapshot is deleted once the run finishes.

    [deadline] is a polled wall-clock predicate supplied by the caller
    (this layer has no OS dependency); when it fires, a final snapshot is
    written (if snapshotting) and the run reports [Timed_out] with the
    ops completed so far. *)
