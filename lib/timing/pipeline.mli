(** The one interface both timing pipelines implement.

    The conventional and block-structured cores differ in program type,
    predecode table, and fetch engine, but every consumer — the experiment
    harness, [bisasim], the daemon, the fuzzers — drives them identically:
    {e prepare} a program once into an {!S.artifact} (verify, predecode,
    choose the executor backend, content-hash), then run many
    configurations against the shared bundle, with an optional
    {!Bisa_obs.Probe.t} observing pipeline events.  {!S} captures that
    contract; {!Conv} and {!Block} are the two implementations, and a
    consumer that selects the ISA at runtime passes [(module Conv)] or
    [(module Block)] to one function written against {!S}.

    Preparation is the trust boundary: {!S.prepare} statically verifies
    the program (see {!Bisa_verify.Verify}) before building tables whose
    raw indexes the engine uses unchecked.  {!S.bundle} assembles an
    artifact from tables a caller built itself, and leaves the bounds
    obligations with that caller (the decode fuzzer, perfbench's
    preparation split).  All trust decisions
    happen at preparation time, so replaying an artifact is pure — the
    property the serving layer's cache is built on. *)

(** What every consumer drives.  A session comes only from an artifact
    ({!S.session_artifact} / {!S.run_artifact}), so the program witness,
    its derived state and its content hash cannot drift apart. *)
module type S = sig
  type prog
  type tables

  type code
  (** Handle on a program for the threaded-code executor
      ({!Bisa_sim.Compile}).  It holds no closure chains: each session
      (and each functional run) builds the chains it executes and drops
      them when it ends, so caching a [code] costs a few words. *)

  val isa : string
  (** Stable short name ("conv" / "block") — used in cache keys and
      [--isa] values; never change it for a released pipeline. *)

  val descr : string
  (** Human-readable name for reports. *)

  val verify : prog -> Bisa_base.Diag.t list
  (** All static well-formedness violations; [[]] means the program may
      be predecoded and simulated. *)

  val predecode_trusted : prog -> tables
  (** Build the program's predecoded op-template tables without
      verifying — the caller asserts well-formedness.  {!prepare} is the
      verifying path. *)

  val compile_trusted : prog -> code
  (** The threaded-code handle without verifying — the caller asserts
      well-formedness.  O(1). *)

  val prog_hash : prog -> int64
  (** Content hash of the program's canonical byte encoding — what binds
      a checkpoint snapshot (and a served artifact) to the exact program
      it was built from. *)

  type session
  (** An in-flight run, advanced one fetch unit at a time — the
      suspendable form of {!run_artifact} that checkpointing is built
      on. *)

  val step : session -> bool
  (** Advance by one fetch unit; false once the machine has halted.
      Checkpoints are only meaningful between [step]s. *)

  val ops : session -> int
  (** Dynamic operations executed so far (drives checkpoint cadence). *)

  val set_out_cap : session -> int -> unit
  (** Bound program-output retention: only the first [n] items are retained
      (the total count and a rolling content hash remain exact — see
      {!Bisa_sim.Output.Sink}).  This is what keeps RSS independent of
      op count on paper-scale streamed runs; [finish]'s output is then
      marked truncated. *)

  val finish : session -> Metrics.t * Bisa_sim.Output.t
  (** Run the remaining steps and seal the metrics.  [finish
      (session_artifact cfg a)] equals [run_artifact cfg a] exactly. *)

  val save : session -> Bisa_base.Codec.W.t -> unit
  val restore : session -> Bisa_base.Codec.R.t -> unit
  (** Serialize/restore all inter-step state.  [restore] requires a fresh
      session built from the same program, tables and configuration; use
      {!Checkpoint} for the validated on-disk form. *)

  type artifact
  (** A prepared program: the verified program witness, its predecode
      tables, a threaded-code handle when the backend is [Compiled], and
      its content hash, bundled as one value.  It never holds closure
      chains: those live only as long as the run that executes them.
      Artifacts are {e derived} state — cheap to rebuild, deliberately
      absent from checkpoint snapshot identity — and they are what every
      consumer caches and replays. *)

  module Artifact : sig
    type t = artifact

    val prog : t -> prog
    val code : t -> code option
    val hash : t -> int64
  end

  val prepare : ?exec:Bisa_sim.Compile.backend -> prog -> artifact
  (** The single front door: verify the program (raising
      {!Bisa_base.Diag.Fail} with the first diagnostic on rejection),
      build its tables, take its threaded-code handle when [exec] is
      [Compiled] (the default; [Interp] selects the dispatching
      interpreter), and hash its canonical encoding. *)

  val bundle : ?code:code -> tables:tables -> prog -> artifact
  (** Assemble an artifact from pieces built elsewhere; without [code]
      its runs interpret.  Trust obligations stay with whoever built
      [tables]. *)

  val session_artifact : ?probe:Bisa_obs.Probe.t -> Config.t -> artifact -> session
  (** A fresh session running the artifact under [cfg], with the
      interpreter or threaded code as the artifact's backend says.  The
      two backends drive the identical executor state and are
      differentially tested equivalent, so metrics, outputs and
      checkpoints do not depend on the choice — only wall-clock does.
      The exec backend is deliberately absent from
      {!Config.fingerprint}: a checkpoint taken under either backend
      resumes under the other. *)

  val run_artifact :
    ?probe:Bisa_obs.Probe.t ->
    ?out_cap:int ->
    Config.t ->
    artifact ->
    Metrics.t * Bisa_sim.Output.t
  (** Run the artifact under [cfg] to the end.  [out_cap] bounds output
      retention as in {!set_out_cap}. *)
end

module Conv :
  S
    with type prog = Bisa_isa.Conv_prog.t
     and type tables = Predecode.t
     and type code = Bisa_sim.Compile.Conv.code

module Block :
  S
    with type prog = Bisa_isa.Block_prog.t
     and type tables = Predecode.blocks
     and type code = Bisa_sim.Compile.Block.code
