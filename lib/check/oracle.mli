(** The differential oracle and fuzz loop.

    One generated program is executed by the reference interpreter (the
    semantic ground truth) and by every engine: the conventional and
    block-structured functional executors plus both cycle-level timing
    pipelines (whose functional results come from
    {!Bisa_timing.Pipeline.S.run_artifact}).  Every engine must produce
    identical outputs and exit values, and the two ISAs' final data
    segments must match word-for-word.  On a finding, the fuzzer greedily
    shrinks to a (locally) minimal failing program. *)

type engine = { name : string; run : Bisa_compiler.Compiler.compiled -> Bisa_sim.Output.t }

val default_engines : unit -> engine list
(** conv, block, conv-timing, block-timing (the timing pair runs with a
    trace cache enabled to exercise that fetch path). *)

val compiled_legs : unit -> engine list
(** conv-compiled, block-compiled, conv-timing-compiled,
    block-timing-compiled: the threaded-code functional executors
    ({!Bisa_sim.Compile}), standalone and underneath both timing
    pipelines.  Compilation goes through the verifier on every program
    (witness discipline included in the differential surface). *)

val compiled_engines : unit -> engine list
(** [default_engines () @ compiled_legs ()] — the full eight-way oracle
    behind [bisafuzz --mode oracle]. *)

val first_divergence : Bisa_compiler.Compiler.compiled -> string option
(** Lockstep replay of interpreter vs. compiled executor on both ISAs:
    fresh states advanced one step at a time, comparing every step
    record, raised exception, and final machine trap.  Returns the first
    divergent fetch-unit index (with both backends' dynamic-op counts),
    or [None] when the backends agree step-for-step — used to sharpen a
    shrunk oracle finding to an exact op index. *)

val interp_fuel : int
val exec_budget : int
(** Limits far above any generated program's dynamic length; exceeding
    them is reported as a finding, not a slow program. *)

type outcome =
  | Agree
  | Skipped of string  (** ill-formed program or interpreter limit — not a finding *)
  | Failed of string  (** divergence or an engine crash — a finding *)

val run_compiled : ?engines:engine list -> Bisa_compiler.Compiler.compiled -> outcome
val run_program : ?engines:engine list -> Gen.prog -> outcome

type failure = {
  program : Gen.prog;  (** shrunk *)
  source : string;
  reason : string;
  shrink_evals : int;
}

type report = {
  tested : int;
  skipped : int;
  skip_reasons : (string * int) list;  (** reason histogram, most frequent first *)
  failure : failure option;
}

val shrink_failing :
  ?max_evals:int -> ?engines:engine list -> Gen.prog -> string -> Gen.prog * string * int
(** Greedy shrink: repeatedly adopt any one-step-smaller candidate that
    still fails (ill-formed candidates are skipped), bounded by
    [max_evals] candidate executions (default 400). *)

val fuzz :
  ?seed:int -> ?count:int -> ?engines:engine list -> ?pool:Bisa_base.Pool.t -> unit -> report
(** Generate and check [count] programs (default 200) from [seed]
    (default 42); reports — and shrinks — the first failure in
    generation order.  Programs are generated sequentially from one
    stream (so the sequence matches the historical campaigns) and
    checked across [pool]; the report is identical at every worker
    count.  With a real pool, programs past the first failure are still
    checked (their outcomes are discarded); shrinking stays sequential. *)
