(* The paper's section-6 program, end to end: every improvement it proposes
   for block-structured ISAs, applied to one workload.

     "Possibilities for achieving these goals include predicated
      execution, profiling, and inlining. ... In addition, using
      block-structured ISAs in conjunction with another fetch rate
      enhancing mechanism, such as the trace cache, may lead to even
      higher fetch rates."

   Run with: dune exec examples/future_work.exe *)

module Conv = Bisa_timing.Pipeline.Conv
module Block = Bisa_timing.Pipeline.Block

let () =
  let w = Bisa_workloads.Workloads.find "gcc" in
  let src = Bisa_workloads.Workloads.source w in
  let cfg = Bisa_timing.Config.default in

  let show label (m : Bisa_timing.Metrics.t) extra =
    Printf.printf "%-34s %9d cycles  %6d mispredicts  mean block %5.2f%s\n" label
      m.cycles m.mispredicts
      (Bisa_timing.Metrics.mean_block_size m)
      extra
  in
  let conv cfg prog = fst (Conv.run_artifact cfg (Conv.prepare prog)) in
  let block cfg prog = fst (Block.run_artifact cfg (Block.prepare prog)) in

  (* The paper's baselines. *)
  let base = Bisa_compiler.Compiler.compile ~library_funcs:w.library_funcs src in
  show "conventional" (conv cfg base.conv) "";
  let m_base = block cfg base.block in
  show "block-structured (paper)" m_base "";
  print_newline ();

  (* Section 6, proposal by proposal. *)
  let pred = Bisa_compiler.Compiler.compile ~ifconvert:true ~library_funcs:w.library_funcs src in
  show "  + predicated execution" (block cfg pred.block) "";

  let inl = Bisa_compiler.Compiler.compile ~inline:true ~library_funcs:w.library_funcs src in
  show "  + inlining" (block cfg inl.block) "";

  let prof = Bisa_experiments.Profile_guided.compile w in
  let m_prof = block cfg prof.block in
  show "  + profile-guided enlargement" m_prof
    (Printf.sprintf "  (code %d -> %d bytes)" base.block.code_bytes prof.block.code_bytes);

  (* And the rival mechanism the paper suggests composing with. *)
  let tc_cfg =
    { cfg with trace_cache = Some Bisa_uarch.Trace_cache.default_config }
  in
  let m_tc = conv tc_cfg base.conv in
  show "conventional + trace cache" m_tc
    (Printf.sprintf "  (%d trace hits)" m_tc.tc_hits);

  (* Everything the compiler side offers, together. *)
  let all =
    Bisa_compiler.Compiler.compile ~inline:true ~ifconvert:true
      ~library_funcs:w.library_funcs src
  in
  show "block + predication + inlining" (block cfg all.block) ""
