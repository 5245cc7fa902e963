(** The bisad request engine: typed {!Bisa_proto.Proto.request} values in,
    typed responses out, against a content-addressed artifact cache.

    Three exactly-once cache layers (the Harness memo-cell discipline):
    loaded programs — compiled MiniC by source hash, workloads by name
    and scale — each stored with its program hash (a binary is decoded
    and hashed per request, not held);
    prepared {!Bisa_timing.Pipeline.S.Artifact} bundles by
    (program hash, exec backend); finished results by program hash x
    {!Bisa_timing.Config.fingerprint} x exec backend x request shape.
    A cache hit prepares nothing.  Trust is
    decided once, at artifact preparation — replays are pure, which is
    what makes the result cache sound.

    [bisasim] answers through an engine of its own, in process, and
    [bisad serve] through a long-lived one: both print the bytes this
    engine replies.

    With a spool directory, every finished result is also written to disk
    through {!Bisa_base.Atomic_file}, and reloaded (up to [result_cap]
    entries) on the next [create]: a SIGKILL loses only in-flight
    requests, never a finished byte. *)

type t

val create :
  ?pool:Bisa_base.Pool.t ->
  ?spool_dir:string ->
  ?result_cap:int ->
  ?log:(Bisa_base.Diag.t -> unit) ->
  ?probe:Bisa_obs.Probe.t ->
  unit ->
  t
(** [pool] shards [Batch] requests and steps the server loop's jobs
    side by side (default sequential).  [spool_dir] is
    created if missing and scanned for previously spooled results;
    unreadable entries are skipped, counted in {!stats}'s
    [spool_skipped], and each reported once through [log] (default:
    silently dropped).  [result_cap] (default 4096) bounds the in-memory
    result cache, a reloaded spool included; eviction is insertion-order
    FIFO, and evicted entries remain on the spool.  [probe] (default
    {!Bisa_obs.Probe.null}) observes every timing session the engine
    launches — only misses launch one.  A trace recorder's probe is not
    domain-safe, so pair it with the default sequential pool. *)

exception Rejected of Bisa_base.Diag.t list
(** A failure with all of its diagnostics, in order.  A verification
    rejection carries every verifier diagnostic, and is answered as
    [Err] of them; a client re-raises an [Err] reply as this for its
    failure guard. *)

val diags_of_exn : component:string -> exn -> Bisa_base.Diag.t list option
(** The toolchain's failure exceptions — compile errors, malformed
    binaries, {!Bisa_base.Diag.Fail}, {!Rejected}, executor runaways,
    illegal fetches and unaligned accesses, and [Sys_error] — as the
    diagnostics they carry ([component] names the ones that carry none);
    [None] for anything else, which is a bug.  The one mapping behind
    {!handle}'s [Err] replies and every CLI's failure line. *)

val handle : t -> Bisa_proto.Proto.request -> Bisa_proto.Proto.response
(** Serve one request.  Never raises: every failure — out-of-range
    configuration, compile error, malformed binary, verification
    rejection, runaway, bad workload name — returns [Err diags].  A [Simulate] or [Cell] request is
    resolved once into a cache hit or a miss; a miss runs to completion
    inside the result cache's exactly-once cell, so identical requests
    racing across the pool simulate once (one miss, the rest hits).  A
    miss that fails caches nothing, so a repeat recomputes the same
    [Err].  [Batch] shards across the pool with submission-order
    results, so batch responses are byte-identical at every worker count.
    [Shutdown] returns [Bye]; acting on it is the server loop's job. *)

(** {1 Sliced jobs}

    The server loop's form of [Simulate] and [Cell]: the same resolved
    miss {!handle} runs to completion, advanced instead in bounded
    operation slices between select rounds, up to one job per pool
    domain each round ({!step_jobs}), so one paper-scale request never
    monopolizes the daemon.  A sealed job lands in the same result
    cache and renders the same bytes {!handle} returns.  A job holds no
    locks, cells or spool state until it seals, so abandoning one is just
    dropping it. *)

type job

type started = Done of Bisa_proto.Proto.response | Job of job

val start : t -> Bisa_proto.Proto.request -> started
(** Like {!handle}, but a [Simulate] or [Cell] miss comes back as a
    suspended job, already verified and launched (cache hits, and every
    failure while resolving or launching, are answered on the spot).
    [Batch] remains one synchronous unit across the worker pool — its
    sub-requests are not sliced.  Never raises. *)

val step_job : job -> slice_ops:int -> [ `More | `Done of Bisa_proto.Proto.response ]
(** Retire up to [slice_ops] more dynamic operations.  On completion the
    result is cached, spooled and rendered, and counted as a miss; a
    mid-flight failure (an op-budget runaway, a machine trap) seals the
    job with a structured [Err] and caches nothing.  Never raises; must
    not be called again after [`Done]. *)

val step_jobs :
  t -> job list -> slice_ops:int -> [ `More | `Done of Bisa_proto.Proto.response ] list
(** {!step_job} on each of [jobs], concurrently across the engine's pool
    (the calling domain steps one of them), with results in [jobs]'
    order.  A round costs about one slice when [jobs] holds at most
    [Pool.workers] jobs; on a size-1 pool it is [List.map] of
    {!step_job}.  The jobs must be distinct. *)

val job_ops : job -> int
(** Dynamic operations retired so far, for deadline-expiry reporting. *)

val workers : t -> int
(** The pool's total parallelism ({!Bisa_base.Pool.workers}): how many
    jobs the server loop steps per round. *)

val stats : t -> Bisa_proto.Proto.stats

val note_inflight : t -> int -> unit
(** Record an observed in-flight queue depth (the server loop calls this;
    the peak is reported in {!stats}). *)

val vm_hwm_kb : unit -> int
(** Peak resident set size of this process in KB, from
    [/proc/self/status]; 0 where unavailable. *)
