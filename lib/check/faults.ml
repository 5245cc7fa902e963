(* Fault-injection campaign: run both timing pipelines under chaos
   injection and prove the two robustness properties the uarch hooks
   promise — functional results never change, and runs still terminate
   inside the executor budget (returning at all, with the budget armed,
   proves the cycle count is finite). *)

module Compiler = Bisa_compiler.Compiler
module Output = Bisa_sim.Output
module Inject = Bisa_uarch.Inject
module Conv = Bisa_timing.Pipeline.Conv
module Block = Bisa_timing.Pipeline.Block

type report = {
  runs : int;  (** injected timing runs executed (2 per seed) *)
  injections : int;  (** total injection events that fired *)
  extra_mispredicts : int;  (** mispredicts beyond the clean runs' *)
}

let budget = 200_000_000

let cfg ~inject =
  {
    Bisa_timing.Config.default with
    op_budget = budget;
    trace_cache = Some Bisa_uarch.Trace_cache.default_config;
    inject;
  }

let campaign ?(seeds = [ 1; 2; 3; 4; 5 ]) ?(pool = Bisa_base.Pool.sequential)
    (c : Compiler.compiled) =
  (* Reference runs (functional and clean-timing, both ISAs) are four
     independent jobs; the injected grid is seeds x pipelines.  Every
     run's chaos stream comes from its own [Inject.chaos ~seed] instance
     — per work item, no shared generator — so sharding across the pool
     changes nothing in the report.  Each ISA's interpreting artifact is
     prepared once and shared by its clean run and every injected one. *)
  let conv = Conv.prepare ~exec:Bisa_sim.Compile.Interp c.Compiler.conv in
  let block = Block.prepare ~exec:Bisa_sim.Compile.Interp c.Compiler.block in
  let run_conv cf = Conv.run_artifact cf conv and run_block cf = Block.run_artifact cf block in
  let conv_ref, block_ref, clean_conv, clean_block =
    match
      Bisa_base.Pool.map_list pool
        (fun f -> f ())
        [
          (fun () -> `Out (fst (Bisa_sim.Conv_exec.run c.Compiler.conv ~budget ())));
          (fun () -> `Out (fst (Bisa_sim.Block_exec.run c.Compiler.block ~budget ())));
          (fun () -> `Metrics (fst (run_conv (cfg ~inject:None))));
          (fun () -> `Metrics (fst (run_block (cfg ~inject:None))));
        ]
    with
    | [ `Out cr; `Out br; `Metrics cc; `Metrics cb ] -> (cr, br, cc, cb)
    | _ -> assert false
  in
  let clean_miss =
    clean_conv.Bisa_timing.Metrics.mispredicts + clean_block.Bisa_timing.Metrics.mispredicts
  in
  let one (name, reference, seed, run) =
    let inj = Inject.chaos ~seed in
    match run (cfg ~inject:(Some inj)) with
    | exception exn ->
      Error
        (Printf.sprintf "%s under injection (seed %d) raised %s" name seed
           (Printexc.to_string exn))
    | (m : Bisa_timing.Metrics.t), out ->
      if not (Output.equal out reference) then
        Error
          (Printf.sprintf
             "%s under injection (seed %d) changed the functional result: %s vs %s" name
             seed (Output.to_string out) (Output.to_string reference))
      else if m.Bisa_timing.Metrics.cycles < 0 then
        Error (Printf.sprintf "%s under injection (seed %d): negative cycle count" name seed)
      else Ok (Inject.injected inj, m.Bisa_timing.Metrics.mispredicts)
  in
  let grid =
    List.concat_map
      (fun seed ->
        [
          ("conv-timing", conv_ref, seed, run_conv);
          ("block-timing", block_ref, seed * 7919, run_block);
        ])
      seeds
  in
  let outcomes = Bisa_base.Pool.map_list pool one grid in
  let rec tally runs injections miss = function
    | [] ->
      Ok { runs; injections; extra_mispredicts = miss - (clean_miss * List.length seeds) }
    | Ok (inj, m) :: rest -> tally (runs + 1) (injections + inj) (miss + m) rest
    | Error e :: _ -> Error e
  in
  tally 0 0 0 outcomes
