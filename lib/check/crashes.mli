(** Crash-injection campaigns for the resumable experiment machinery.

    The harness runs a small but real experiment grid (two compiled
    benchmarks, two configurations, both pipelines) under a
    {!Bisa_experiments.Campaign} directory and kills it two ways:

    - {b in-process}: a hook raises at the n-th pass of one step of a
      write: after a temp file is complete but before its rename
      ({!Bisa_base.Atomic_file.crash_after_write_hook}, the instant a torn
      manifest would appear if atomicity were broken), and after each
      handover step of a sealed file ({!Bisa_base.Codec.publish_hook}:
      its [.next] copy published, its old copy removed);
    - {b out-of-process}: the grid is forked and SIGKILLed after a
      randomized delay, so death lands at arbitrary instruction
      boundaries, not just at write sites.

    After every kill the campaign directory is re-opened and the grid
    re-run; the harness fails unless the resumed report is byte-identical
    to a golden uninterrupted run.  Run it single-worker: the fork leg
    must not execute while extra pool domains are live. *)

type report = {
  cells : int;  (** grid cells per pass *)
  hook_crashes : int;  (** in-process crashes that actually fired *)
  kill_trials : int;  (** forked runs SIGKILLed at randomized delays *)
  kills_mid_flight : int;  (** kills that landed before the child finished *)
}

val campaign :
  ?seed:int -> ?dir:string -> ?kill_trials:int -> unit -> (report, string) result
(** [dir] (default: a fresh directory under the system temp dir, removed
    on success) holds one campaign directory per trial.  [Error] carries
    a diagnostic naming the first trial whose resumed report diverged. *)
