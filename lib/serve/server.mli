(** The bisad server loop: a select loop on a Unix domain socket,
    framing via {!Bisa_proto.Proto}, dispatching into an {!Engine}.

    Dispatch is serial and in submission order on the loop's domain, but
    long work is cooperative: a [Simulate] or [Cell] miss becomes a
    suspended {!Engine.job}, and each select round advances up to
    {!Engine.workers} jobs one bounded operation slice each, side by side
    on the engine's pool ({!Engine.step_jobs}), so a paper-scale
    simulation never blocks a concurrent ping, and request deadlines
    expire into structured [Err]s at slice granularity.
    Identical in-flight requests share one job.  Backpressure is genuine
    admission control: work-shaped requests are refused with a busy [Err]
    while [max_inflight] jobs are suspended; [Ping], [Stats] and
    [Shutdown] are always admitted.  Malformed payloads get [Err]
    diagnostics with byte offsets and the connection survives; a
    malformed length prefix closes only that connection; idle
    connections (slow-loris partial frames included) are evicted after
    [idle_timeout].  SIGPIPE is ignored for the duration of [serve]. *)

val serve :
  ?max_inflight:int ->
  ?deadline:float ->
  ?idle_timeout:float ->
  ?slice_ops:int ->
  ?on_ready:(unit -> unit) ->
  engine:Engine.t ->
  path:string ->
  unit ->
  unit
(** Bind [path] (refusing if a live server already listens there,
    replacing a stale socket file), call [on_ready], and serve until a
    [Shutdown] request arrives; then finish slicing any in-flight jobs,
    flush every pending response, close all connections, and remove the
    socket file.

    [max_inflight] (default 64) caps concurrently suspended jobs.
    [deadline] is the server-side default for requests that carry none
    of their own.  [idle_timeout] (default: none) evicts connections
    with no read/write progress that are not waiting on a job.
    [slice_ops] (default 32768) is the cooperative quantum in dynamic
    operations — the bound on how long a round's jobs can hold the loop,
    and therefore on ping latency under load. *)
