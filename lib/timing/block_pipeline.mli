(** Cycle-level timing model of the block-structured core.

    Fetches one atomic block per cycle.  The next-block predictor (the
    paper's modified Two-Level Adaptive predictor) selects among a block's
    enlarged successor variants; a direction-level misprediction redirects
    at trap resolution, and a variant-level misprediction surfaces as a
    {e fault squash}: the whole fetched block executes, its work is
    discarded, and fetch redirects to the fault target — the re-executed
    prefix reappears inside the sibling block, so the paper's extra fault
    penalty is modeled structurally rather than as a constant.

    Under perfect prediction the fetch engine goes straight to the variant
    whose faults do not fire, so squashes cost nothing — which is why the
    paper's block-structured advantage grows from 12% to 19-20% in
    figure 4.

    Private to [bisa_timing]: every consumer reaches this core through
    {!Pipeline.Block}, whose artifact supplies the session's inputs. *)

type session
(** An in-flight run, advanced one fetched block at a time — the
    suspendable form of a whole run that checkpointing is built on. *)

val session :
  ?probe:Bisa_obs.Probe.t ->
  Config.t ->
  tables:Predecode.blocks ->
  code:Bisa_sim.Compile.Block.code option ->
  Bisa_isa.Block_prog.t ->
  session
(** A session over a verified program's predecoded op-template [tables].

    [code] (see {!Bisa_sim.Compile.Block}) chooses the body the session
    steps through: the program's threaded code, or without it the
    interpreter's.  Either runs under the one step protocol,
    {!Bisa_sim.Block_exec.step_into}, on the identical state, so metrics,
    outputs and checkpoints are independent of the choice.

    [probe] (default {!Bisa_obs.Probe.null}) receives pipeline events —
    fetch-unit start/retire, prediction outcomes, redirects, fault
    squashes, cache/BTB activity, window occupancy.  The null probe is
    free: one physical-equality test on entry disables every emission, so
    the hot path is unchanged (checked by the allocation-budget test). *)

val step : session -> bool
(** Advance by one fetched block; false once the machine has halted.
    Checkpoints are only meaningful between steps. *)

val ops : session -> int
(** Dynamic operations executed so far (drives checkpoint cadence). *)

val set_out_cap : session -> int -> unit
(** Retain only the first [n] output items (see {!Pipeline.S.set_out_cap}). *)

val finish : session -> Metrics.t * Bisa_sim.Output.t
(** Run the remaining steps and seal the metrics. *)

val save : session -> Bisa_base.Codec.W.t -> unit
val restore : session -> Bisa_base.Codec.R.t -> unit
(** Serialize/restore all inter-step state.  [restore] requires a fresh
    session built from the same program, tables and configuration; use
    {!Checkpoint} for the validated on-disk form. *)
