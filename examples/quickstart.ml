(* Quickstart: compile a MiniC program for both ISAs, check the outputs
   agree, and compare cycle counts on identically configured cores.

   Run with: dune exec examples/quickstart.exe *)

let source =
  {|
int inputs[4096];
int histogram[64];

int weight(int x) {
  if (x > 60) { return x * 3 - 100; }
  return x * 2 + 1;
}

int main() {
  int i;
  int pass;
  int acc = 0;
  int seed = 11;
  for (i = 0; i < 4096; i = i + 1) {
    seed = (seed * 1103515245 + 12345) & 1073741823;
    inputs[i] = (seed >> 8) & 63;
  }
  for (pass = 0; pass < 12; pass = pass + 1) {
    for (i = 0; i < 4096; i = i + 1) {
      int v = inputs[i];
      histogram[v] = histogram[v] + 1;
      int bonus = v * 5 - (v >> 2) + (v & 7);
      if (i % 4 == 0) { acc = acc + weight(v) + bonus; }
    }
  }
  for (i = 0; i < 64; i = i + 1) {
    if (histogram[i] > 500) { acc = acc + 1; }
  }
  print_int(acc);
  return acc & 255;
}
|}

let () =
  (* One compiler, two targets — the paper's fairness setup. *)
  let compiled = Bisa_compiler.Compiler.compile source in

  (* Functional execution: both executables must produce the same output. *)
  let conv_out, conv_ops = Bisa_sim.Conv_exec.run compiled.conv () in
  let block_out, block_ops = Bisa_sim.Block_exec.run compiled.block () in
  Printf.printf "conventional:      %s  (%d dynamic instructions)\n"
    (Bisa_sim.Output.to_string conv_out) conv_ops;
  Printf.printf "block-structured:  %s  (%d retired operations)\n"
    (Bisa_sim.Output.to_string block_out) block_ops;
  assert (Bisa_sim.Output.equal conv_out block_out);

  (* Timing: the paper's 16-wide core for both.  [prepare] verifies each
     executable and bundles what a timing run needs into an artifact. *)
  let cfg = Bisa_timing.Config.default in
  let module P = Bisa_timing.Pipeline in
  let mc, _ = P.Conv.run_artifact cfg (P.Conv.prepare compiled.conv) in
  let mb, _ = P.Block.run_artifact cfg (P.Block.prepare compiled.block) in
  print_newline ();
  print_endline (Bisa_timing.Metrics.summary ~name:"conventional    " mc);
  print_endline (Bisa_timing.Metrics.summary ~name:"block-structured" mb);
  Printf.printf "\nblock-structured speedup: %.2fx (mean fetch block %.1f -> %.1f ops)\n"
    (float_of_int mc.cycles /. float_of_int mb.cycles)
    (Bisa_timing.Metrics.mean_block_size mc)
    (Bisa_timing.Metrics.mean_block_size mb)
