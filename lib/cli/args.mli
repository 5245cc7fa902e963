(** Cmdliner flags shared across the toolchain's binaries.

    One definition per flag keeps names, defaults, documentation, and
    environment-variable fallbacks identical everywhere: every flag here
    can also be set via a [BISA_*] variable (the command line wins), so CI
    and benchmark scripts can pin a configuration without editing each
    invocation. *)

val icache_kb : int Cmdliner.Term.t
(** [--icache-kb] / [BISA_ICACHE_KB]: L1 icache size in KB, 0 = perfect
    (default 16).  Interpreted by {!Bisa_proto.Proto.to_config}. *)

val perfect_pred : bool Cmdliner.Term.t
(** [--perfect-pred] / [BISA_PERFECT_PRED]: perfect branch prediction.
    Bare [--perfect-pred] means true; an explicit [--perfect-pred=false]
    beats the environment variable (the command line always wins). *)

val jobs : int Cmdliner.Term.t
(** [-j]/[--jobs] / [BISA_JOBS]: worker-domain count (default: the
    machine's recommended count). *)

val seed : default:int -> int Cmdliner.Term.t
(** [--seed] / [BISA_SEED]: base RNG seed. *)

val scale : int option Cmdliner.Term.t
(** [--scale] / [BISA_SCALE]: override workload iteration scale. *)

val budget : int Cmdliner.Term.t
(** [--budget] / [BISA_BUDGET]: dynamic-operation runaway budget. *)

val exec : Bisa_sim.Compile.backend Cmdliner.Term.t
(** [--exec] / [BISA_EXEC]: functional-executor backend, [compiled]
    (default) or [interp].  Equivalent by differential test; only
    wall-clock differs. *)

val trace_out : string option Cmdliner.Term.t
(** [--trace-out] / [BISA_TRACE_OUT]: write a Chrome trace_event JSON
    file of pipeline events (open in Perfetto / [chrome://tracing]). *)

val trace_sample : int Cmdliner.Term.t
(** [--trace-sample] / [BISA_TRACE_SAMPLE]: export every Nth fetch unit's
    events (default 1 = all); counters stay exact regardless. *)

val out_cap : int option Cmdliner.Term.t
(** [--out-cap] / [BISA_OUT_CAP]: bound program-output retention so RSS
    stays independent of run length on streamed paper-scale runs. *)

val resume : string option Cmdliner.Term.t
(** [--resume] / [BISA_RESUME]: campaign directory for crash-safe,
    resumable experiment runs (created if missing). *)

val checkpoint_every : int Cmdliner.Term.t
(** [--checkpoint-every] / [BISA_CHECKPOINT_EVERY]: snapshot cadence in
    dynamic operations for in-flight cells (default 100000). *)

val timeout : float option Cmdliner.Term.t
(** [--timeout] / [BISA_TIMEOUT]: per-cell wall-clock budget in seconds;
    exceeding cells are recorded as timed out and the run exits
    nonzero. *)

(** {1 Typed request builders}

    The flags above assembled into the daemon protocol's typed values:
    every binary — one-shot CLI or bisad client — builds literally the
    same request values the serving engine consumes. *)

val isa : Bisa_proto.Proto.isa Cmdliner.Term.t
(** [--isa] / [BISA_ISA]: which executable to run (default [block]). *)

val deadline : float option Cmdliner.Term.t
(** [--deadline] / [BISA_DEADLINE]: per-request wall-clock deadline in
    seconds for daemon requests; past it the server answers with a
    structured deadline-expired [Err] that is never retried.  Also the
    server-default deadline flag of [bisad serve]. *)

val sim_cfg : Bisa_proto.Proto.sim_cfg Cmdliner.Term.t
(** [--icache-kb], [--perfect-pred], [--budget], [--out-cap] and
    [--deadline] bundled into the protocol's simulation configuration;
    interpret with {!Bisa_proto.Proto.to_config}. *)
