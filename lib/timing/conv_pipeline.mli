(** Cycle-level timing model of the conventional-ISA core.

    Identical execution substrate to the block-structured core (16-wide,
    32-block/512-op window, 16 uniform FUs, same caches and latencies); the
    defining difference is the fetch engine: one {e basic block} per cycle
    — fetch stops at every control instruction — which is what limits the
    conventional core to ~5 useful operations per fetch (paper figure 5).

    Private to [bisa_timing]: every consumer reaches this core through
    {!Pipeline.Conv}, whose artifact supplies the session's inputs. *)

type session
(** An in-flight run, advanced one fetch unit at a time — the suspendable
    form of a whole run that checkpointing is built on. *)

val session :
  ?probe:Bisa_obs.Probe.t ->
  Config.t ->
  tables:Predecode.t ->
  code:Bisa_sim.Compile.Conv.code option ->
  Bisa_isa.Conv_prog.t ->
  session
(** A session over a verified program's predecoded op-template [tables].

    [code] (see {!Bisa_sim.Compile.Conv}) chooses the body the session
    steps through: the program's threaded code, or without it the
    interpreter's.  Either runs under the one step protocol,
    {!Bisa_sim.Conv_exec.step_into}, on the identical state, so metrics,
    outputs and checkpoints are independent of the choice.

    [probe] (default {!Bisa_obs.Probe.null}) receives pipeline events —
    fetch-unit start/retire, prediction outcomes, redirects, cache/BTB and
    trace-cache activity, window occupancy.  The null probe is free: one
    physical-equality test on entry disables every emission, so the hot
    path is unchanged (checked by the allocation-budget test). *)

val step : session -> bool
(** Advance by one fetch unit (a whole served trace counts as one step);
    false once the program has halted and the stream is drained.
    Checkpoints are only meaningful between steps. *)

val ops : session -> int
(** Dynamic instructions executed so far (drives checkpoint cadence). *)

val set_out_cap : session -> int -> unit
(** Retain only the first [n] output items (see {!Pipeline.S.set_out_cap}). *)

val finish : session -> Metrics.t * Bisa_sim.Output.t
(** Run the remaining steps and seal the metrics. *)

val save : session -> Bisa_base.Codec.W.t -> unit
val restore : session -> Bisa_base.Codec.R.t -> unit
(** Serialize/restore all inter-step state.  [restore] requires a fresh
    session built from the same program, tables and configuration; use
    {!Checkpoint} for the validated on-disk form. *)
