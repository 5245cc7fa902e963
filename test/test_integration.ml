(* Cross-layer integration tests: whole-toolchain behaviours that no single
   module test covers. *)

module Output = Bisa_sim.Output
module Conv = Bisa_timing.Pipeline.Conv
module Block = Bisa_timing.Pipeline.Block

(* Interpreted timing runs of the default configuration. *)
let interp = Bisa_sim.Compile.Interp
let run_conv prog =
  fst (Conv.run_artifact Bisa_timing.Config.default (Conv.prepare ~exec:interp prog))

let run_block prog =
  fst (Block.run_artifact Bisa_timing.Config.default (Block.prepare ~exec:interp prog))

let run_all_three src =
  let c = Bisa_compiler.Compiler.compile src in
  let tp = c.typed in
  let r = Bisa_frontend.Interp.run tp in
  let interp =
    {
      Output.ret = r.ret;
      items =
        List.map
          (function
            | Bisa_frontend.Interp.Oint v -> Output.Oint v
            | Bisa_frontend.Interp.Oflt v -> Output.Oflt v)
          r.outputs;
    }
  in
  let conv, _ = Bisa_sim.Conv_exec.run c.conv () in
  let block, _ = Bisa_sim.Block_exec.run c.block () in
  (c, interp, conv, block)

let check_agree name src =
  let _, interp, conv, block = run_all_three src in
  Alcotest.(check bool) (name ^ ": conv") true (Output.equal conv interp);
  Alcotest.(check bool) (name ^ ": block") true (Output.equal block interp)

(* Deep recursion: stack discipline, callee-saved registers, ra save. *)
let test_deep_recursion () =
  check_agree "deep recursion"
    {|
int depth(int n, int acc) {
  int local = n * 3 + acc;
  if (n == 0) { return acc; }
  int below = depth(n - 1, acc + (n & 7));
  return below + local - local + 1;   // keeps 'local' live across the call
}
int main() { print_int(depth(300, 2)); return 0; }
|}

(* Signed zero through CSE: with x = -0.0, [x + 0.0] is 0.0 but [x + z]
   with z = -0.0 is -0.0, so the optimizer must not merge the two adds. *)
let test_signed_zero_cse () =
  let src =
    {|
float neg0() { return 0.0 * -1.0; }
int main() {
  float x = neg0();
  float z = 0.0 * -1.0;
  float a = x + 0.0;
  float b = x + z;
  print_float(a);
  print_float(b);
  return 0;
}
|}
  in
  check_agree "signed zero" src;
  let _, interp, conv, block = run_all_three src in
  Alcotest.(check string) "interp prints 0 then -0" "ret=0 [0; -0]" (Output.to_string interp);
  Alcotest.(check string) "conv prints what interp prints" (Output.to_string interp)
    (Output.to_string conv);
  Alcotest.(check string) "block prints what interp prints" (Output.to_string interp)
    (Output.to_string block)

(* Mutual recursion: the inliner's recursion guard is direct-only, so the
   growth budget has to stop mutual chains (MiniC needs no forward
   declarations — the typechecker collects signatures first). *)
let test_mutual_recursion_inline () =
  let src =
    {|
int is_even(int n) { if (n == 0) { return 1; } return is_odd(n - 1); }
int is_odd(int n) { if (n == 0) { return 0; } return is_even(n - 1); }
int main() { print_int(is_even(20) * 10 + is_odd(7)); return 0; }
|}
  in
  let base = Bisa_compiler.Compiler.compile src in
  let inl = Bisa_compiler.Compiler.compile ~inline:true src in
  let o1, _ = Bisa_sim.Conv_exec.run base.conv () in
  let o2, _ = Bisa_sim.Conv_exec.run inl.conv () in
  Alcotest.(check bool) "mutual recursion survives inlining" true (Output.equal o1 o2);
  Alcotest.(check bool) "result" true (o1.items = [ Output.Oint 11 ])

(* Many-argument calls exercise the parallel-move paths with full arg
   registers. *)
let test_eight_args () =
  check_agree "eight args"
    {|
int f(int a, int b, int c, int d, int e, int f, int g, int h) {
  return a + b * 2 + c * 3 + d * 4 + e * 5 + f * 6 + g * 7 + h * 8;
}
int main() {
  // Swapped argument chains force move cycles at the call sites.
  int x = f(1, 2, 3, 4, 5, 6, 7, 8);
  int y = f(x & 15, x & 7, x & 3, x & 1, 8, 7, 6, 5);
  print_int(x);
  print_int(f(y, x, y, x, y, x, y, x) & 65535);
  return 0;
}
|}

(* Mixed int/float argument registers. *)
let test_mixed_float_args () =
  check_agree "mixed args"
    {|
float mix(int a, float x, int b, float y, float z) {
  return itof(a) * x + itof(b) * y - z;
}
int main() {
  float r = mix(3, 1.5, 4, 2.5, 0.25);
  print_float(r);
  print_int(ftoi(r * 4.0));
  return 0;
}
|}

(* Switch dispatch through deeply nested control. *)
let test_nested_switch () =
  check_agree "nested switch"
    {|
int main() {
  int acc = 0;
  int i;
  for (i = 0; i < 40; i = i + 1) {
    switch (i % 6) {
      case 0: acc = acc + 1;
      case 1: {
        switch (i % 4) {
          case 0: acc = acc + 10;
          case 2: acc = acc + 20;
          default: acc = acc + 30;
        }
      }
      case 4: acc = acc - 2;
      default: acc = acc ^ 5;
    }
  }
  print_int(acc);
  return 0;
}
|}

(* Continue inside a switch inside a loop binds to the loop. *)
let test_continue_through_switch () =
  check_agree "continue through switch"
    {|
int main() {
  int s = 0;
  int i;
  for (i = 0; i < 10; i = i + 1) {
    switch (i & 3) {
      case 0: continue;
      case 1: s = s + 1;
      default: s = s + 100;
    }
    s = s + 1000;
  }
  print_int(s);
  return 0;
}
|}

(* Spill-heavy float pressure (float register file allocation + spills). *)
let test_float_pressure () =
  let decls =
    String.concat " "
      (List.init 30 (fun i ->
           Printf.sprintf "float v%d = itof(%d) * 1.5 + base;" i (i + 1)))
  in
  let uses = String.concat " + " (List.init 30 (fun i -> Printf.sprintf "v%d" i)) in
  check_agree "float pressure"
    (Printf.sprintf
       {|
float helper(float x) { return x * 2.0 - 1.0; }
int main() {
  float base = 0.5;
  %s
  float h = helper(base) + helper(base + 1.0);
  print_float(%s + h);
  return 0;
}
|}
       decls uses)

(* The whole pipeline through the binary format: compile, encode, decode,
   run under timing. *)
let test_binary_then_timing () =
  let src =
    "int main() { int i; int s = 0; for (i = 0; i < 100; i = i + 1) { s = s + i; } \
     print_int(s); return 0; }"
  in
  let c = Bisa_compiler.Compiler.compile src in
  let decoded =
    Bisa_isa.Encode.block_of_bytes (Bisa_isa.Encode.block_to_bytes c.block)
  in
  let m = run_block decoded in
  let m0 = run_block c.block in
  Alcotest.(check int) "identical timing after roundtrip" m0.cycles m.cycles

(* Timing determinism: the cycle count is a pure function of program and
   configuration — rerunning must reproduce it exactly (the whole
   experiment harness depends on this). *)
let test_pinned_checksums () =
  let w = Bisa_workloads.Workloads.find "compress" in
  let c = Bisa_workloads.Workloads.compile ~scale:1 w in
  let m1 = run_conv c.conv in
  let m2 = run_conv c.conv in
  Alcotest.(check int) "cycles reproducible" m1.cycles m2.cycles;
  Alcotest.(check int) "mispredicts reproducible" m1.mispredicts m2.mispredicts;
  let b1 = run_block c.block in
  let b2 = run_block c.block in
  Alcotest.(check int) "block cycles reproducible" b1.cycles b2.cycles

let test_determinism_across_isas () =
  (* The two ISAs must agree even after every optional pass. *)
  List.iter
    (fun name ->
      let w = Bisa_workloads.Workloads.find name in
      let src = Bisa_workloads.Workloads.source ~scale:1 w in
      let c =
        Bisa_compiler.Compiler.compile ~inline:true ~ifconvert:true
          ~library_funcs:w.library_funcs src
      in
      let conv, _ = Bisa_sim.Conv_exec.run c.conv () in
      let block, _ = Bisa_sim.Block_exec.run c.block () in
      Alcotest.(check bool)
        (name ^ " with all passes") true
        (Output.equal conv block))
    [ "li"; "go"; "m88ksim" ]

let suite =
  [
    Alcotest.test_case "deep recursion" `Quick test_deep_recursion;
    Alcotest.test_case "mutual recursion + inline" `Quick test_mutual_recursion_inline;
    Alcotest.test_case "eight args" `Quick test_eight_args;
    Alcotest.test_case "mixed float args" `Quick test_mixed_float_args;
    Alcotest.test_case "nested switch" `Quick test_nested_switch;
    Alcotest.test_case "continue through switch" `Quick test_continue_through_switch;
    Alcotest.test_case "float pressure" `Quick test_float_pressure;
    Alcotest.test_case "signed zero survives CSE" `Quick test_signed_zero_cse;
    Alcotest.test_case "binary then timing" `Quick test_binary_then_timing;
    Alcotest.test_case "timing determinism" `Quick test_pinned_checksums;
    Alcotest.test_case "all passes agree" `Slow test_determinism_across_isas;
  ]
