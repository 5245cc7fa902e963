open Cmdliner

let env var doc = Cmd.Env.info var ~doc

let icache_kb =
  Arg.(
    value
    & opt int 16
    & info [ "icache-kb" ]
        ~env:(env "BISA_ICACHE_KB" "Default for $(b,--icache-kb).")
        ~doc:"L1 icache size in KB; 0 = perfect.")

(* A plain [Arg.flag] with an env fallback cannot be switched back off at
   the command line, so BISA_PERFECT_PRED=true would beat an explicit
   flag.  An optional bool with [~vopt:true] keeps the bare
   [--perfect-pred] spelling while letting [--perfect-pred=false]
   override the environment: the command line always wins. *)
let perfect_pred =
  Arg.(
    value
    & opt ~vopt:true bool false
    & info [ "perfect-pred" ]
        ~env:(env "BISA_PERFECT_PRED" "Default for $(b,--perfect-pred).")
        ~doc:
          "Use a perfect branch predictor.  Bare $(b,--perfect-pred) means \
           true; an explicit $(b,--perfect-pred=false) overrides \
           $(b,BISA_PERFECT_PRED).")

let jobs =
  Arg.(
    value
    & opt int (Bisa_base.Pool.default_workers ())
    & info [ "j"; "jobs" ]
        ~env:(env "BISA_JOBS" "Default for $(b,--jobs).")
        ~doc:
          "Worker domains to shard across (default: the machine's recommended \
           domain count).  Results are identical at every setting.")

let seed ~default =
  Arg.(
    value & opt int default
    & info [ "seed" ]
        ~env:(env "BISA_SEED" "Default for $(b,--seed).")
        ~doc:"Base RNG seed.")

let scale =
  Arg.(
    value
    & opt (some int) None
    & info [ "scale" ]
        ~env:(env "BISA_SCALE" "Default for $(b,--scale).")
        ~doc:"Override every workload's iteration scale.")

let budget =
  Arg.(
    value
    & opt int Bisa_timing.Config.default.op_budget
    & info [ "budget" ]
        ~env:(env "BISA_BUDGET" "Default for $(b,--budget).")
        ~doc:
          "Operation budget: a run retiring more dynamic operations than this \
           exits with a runaway diagnostic instead of spinning forever.")

let exec =
  Arg.(
    value
    & opt (enum Bisa_sim.Compile.backends) Bisa_sim.Compile.Compiled
    & info [ "exec" ]
        ~env:(env "BISA_EXEC" "Default for $(b,--exec).")
        ~doc:
          "Functional-executor backend: $(b,compiled) (per-block threaded \
           code, default) or $(b,interp) (the dispatching interpreter, the \
           reference the compiled backend is tested against).  The backends \
           are differentially tested equivalent — outputs, metrics and \
           checkpoints are identical; only wall-clock differs.")

let trace_out =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace-out" ]
        ~env:(env "BISA_TRACE_OUT" "Default for $(b,--trace-out).")
        ~doc:
          "Write pipeline events as Chrome trace_event JSON to this file (load \
           in Perfetto or chrome://tracing).")

let trace_sample =
  Arg.(
    value & opt int 1
    & info [ "trace-sample" ]
        ~env:(env "BISA_TRACE_SAMPLE" "Default for $(b,--trace-sample).")
        ~doc:
          "Export every Nth fetch unit's trace events (default 1 = all); the \
           event counters stay exact regardless of sampling.")

let out_cap =
  Arg.(
    value
    & opt (some int) None
    & info [ "out-cap" ]
        ~env:(env "BISA_OUT_CAP" "Default for $(b,--out-cap).")
        ~doc:
          "Retain only the first N program-output items (the total count and a \
           rolling content hash stay exact).  Keeps resident memory independent \
           of run length on paper-scale $(b,--scale) runs; default keeps \
           everything.")

let resume =
  Arg.(
    value
    & opt (some string) None
    & info [ "resume" ]
        ~env:(env "BISA_RESUME" "Default for $(b,--resume).")
        ~doc:
          "Campaign directory for crash-safe runs: finished cells are reused, \
           interrupted cells resume from their last checkpoint, and the final \
           report is byte-identical to an uninterrupted run.  Created if \
           missing.")

let checkpoint_every =
  Arg.(
    value
    & opt int 100_000
    & info [ "checkpoint-every" ]
        ~env:(env "BISA_CHECKPOINT_EVERY" "Default for $(b,--checkpoint-every).")
        ~doc:
          "Checkpoint cadence in dynamic operations (with $(b,--resume)): a \
           kill at any instant loses at most this much work per in-flight \
           cell.")

let timeout =
  Arg.(
    value
    & opt (some float) None
    & info [ "timeout" ]
        ~env:(env "BISA_TIMEOUT" "Default for $(b,--timeout).")
        ~doc:
          "Per-cell wall-clock budget in seconds: cells exceeding it are \
           recorded as timed out, the surviving results still print, and the \
           run exits nonzero.")

(* --- typed request builders --------------------------------------------- *)

(* The flags above assemble into the daemon protocol's typed values here,
   so every binary — one-shot CLI or bisad client — builds literally the
   same request the engine consumes, and configuration semantics cannot
   drift between them. *)

let isa =
  Arg.(
    value
    & opt
        (enum [ ("conv", Bisa_proto.Proto.Conv); ("block", Bisa_proto.Proto.Block) ])
        Bisa_proto.Proto.Block
    & info [ "isa" ]
        ~env:(env "BISA_ISA" "Default for $(b,--isa).")
        ~doc:"Which executable to run: conv or block.")

let deadline =
  Arg.(
    value
    & opt (some float) None
    & info [ "deadline" ]
        ~env:(env "BISA_DEADLINE" "Default for $(b,--deadline).")
        ~doc:
          "Per-request wall-clock deadline in seconds (daemon requests): a \
           request still running past it gets a structured deadline-expired \
           error instead of blocking, and is never retried.  Default: no \
           deadline (the server's $(b,--deadline), if any, applies).")

let sim_cfg =
  let mk icache_kb perfect_pred budget out_cap deadline =
    { Bisa_proto.Proto.icache_kb; perfect_pred; budget; out_cap; deadline }
  in
  Term.(const mk $ icache_kb $ perfect_pred $ budget $ out_cap $ deadline)
