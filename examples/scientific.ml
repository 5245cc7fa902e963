(* The paper's future-work claim (section 6): scientific code, with its
   larger basic blocks and more predictable branches, should gain even
   more from block structuring than SPECint.  The FP surrogate (matrix
   multiply + stencil + dot products) tests exactly that.

   Run with: dune exec examples/scientific.exe *)

let () =
  let w = Bisa_workloads.Workloads.scientific in
  let c = Bisa_workloads.Workloads.compile w in

  (* Correctness first: the FP paths agree across executors too. *)
  let conv_out, _ = Bisa_sim.Conv_exec.run c.conv () in
  let block_out, _ = Bisa_sim.Block_exec.run c.block () in
  assert (Bisa_sim.Output.equal conv_out block_out);
  Printf.printf "output: %s\n\n" (Bisa_sim.Output.to_string conv_out);

  let cfg = Bisa_timing.Config.default in
  let module P = Bisa_timing.Pipeline in
  let mc, _ = P.Conv.run_artifact cfg (P.Conv.prepare c.conv) in
  let mb, _ = P.Block.run_artifact cfg (P.Block.prepare c.block) in
  print_endline (Bisa_timing.Metrics.summary ~name:"conventional    " mc);
  print_endline (Bisa_timing.Metrics.summary ~name:"block-structured" mb);
  let imp = 100.0 *. float_of_int (mc.cycles - mb.cycles) /. float_of_int mc.cycles in
  Printf.printf
    "\nimprovement on FP code: %.1f%% — the paper predicts this beats the SPECint\n\
     mean because FP branches are predictable and FP blocks large.\n"
    imp
