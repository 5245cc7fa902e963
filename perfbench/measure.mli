(** One benchmark run's recorder: set-up samples, timed passes and their
    segments, operation latencies, correctness checks and per-layer
    values, turned into the metric lines and the result object at the
    end.

    A workload calls {!setup} for each set-up it performs, then
    [while more m do pass m (fun tracer -> ...) done].  A pass is one
    unit of the workload's fixed work, divided into named segments that
    recur in every pass, some of them several times.  A run repeats passes while the next one, taken
    to be as slow as the slowest so far, would still end within
    [--seconds] of the recorder's creation (set-ups and reference outputs
    included); the first pass always runs.

    Untraced full-profile runs also time the {!Calib} yardstick every
    half second or so, between segments and outside every timed number,
    and scale every set-up, segment and operation latency by
    [Calib.reference] over the yardstick sample taken just before it:
    times are reported at the reference host speed.  The yardstick runs
    on the main domain, or on every domain of a pool after
    {!yardstick_on}.  Each segment, and each operation, then counts at
    the median of its recurrences over the untraced passes, which votes
    out a burst that slowed one recurrence but not the yardstick before
    it.  Operation latencies are summarised by their median and tail
    percentile, at the tail level that the operations in one pass
    allow.

    A traced run alternates untraced and traced passes (at least one of
    each), so the tracing overhead is measured within the run.  Every
    function must be called from the domain that created the recorder. *)

type t

val create : Cli.t -> t

val cli : t -> Cli.t

val yardstick_on : t -> Bisa_base.Pool.t -> unit
(** From now on, time the yardstick on every domain of the pool at once
    ({!Calib.sample_on}), for a workload that keeps them all busy.  The
    pool must be idle between segments, where the yardstick runs. *)

val setup : t -> (unit -> 'a) -> 'a
(** Time one set-up; [setup_s] is the median of these samples. *)

val more : t -> bool
(** Whether to start another pass. *)

val pass : t -> ?op:bool -> (Tracer.t option -> unit) -> unit
(** Run one pass.  The argument is [Some] on traced passes.  With [~op],
    the whole pass is one operation, which recurs from pass to pass. *)

val segment : t -> ?op:bool -> string -> (unit -> 'a) -> 'a
(** Time a named segment of the current pass; a name may recur within
    the pass.  [wall_s] is one pass's segments, each at the median of its
    name's recurrences.  With [~op], the segment is also an operation of
    the same name. *)

val op : t -> string -> float -> unit
(** [op m name ms]: the latency in milliseconds of one operation of the
    current pass, for workloads whose operations are not segments.  The
    operations of one name are recurrences of the same work.  Ignored on
    traced passes. *)

val check : t -> bool -> string -> unit
(** Count one checked operation, failed unless the condition holds; the
    message names the failure. *)

val set : t -> string -> float -> unit
(** A per-layer value ({!Spec.per_layer} name); unset names read 0. *)

val daemon_rss_kb : t -> int -> unit
(** The peak RSS a daemon driven by the current pass reported;
    [peak_rss_mb] is then the median of these over untraced passes instead
    of this process's own peak. *)

val finish : t -> int
(** Validate the trace (traced runs), print one [name value unit] line
    per metric and then the result object as the last line of stdout,
    and return the exit code: 0 iff every check passed. *)
