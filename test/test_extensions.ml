(* Tests for the section-6 extensions: the inliner, the trace cache, and
   profile-guided enlargement. *)

module Inline = Bisa_opt.Inline
module Trace_cache = Bisa_uarch.Trace_cache
module Ir = Bisa_ir.Ir
module Conv = Bisa_timing.Pipeline.Conv

(* An interpreted conventional timing run through the front door. *)
let run_conv cfg prog =
  fst (Conv.run_artifact cfg (Conv.prepare ~exec:Bisa_sim.Compile.Interp prog))

(* --- Inliner -------------------------------------------------------------- *)

let call_heavy_src =
  {|
int square(int x) { return x * x; }
int step(int a, int b) {
  if (a > b) { return square(a) - b; }
  return square(b) + a;
}
int chain(int x) { return step(x, x + 1) + step(x + 2, x); }
int main() {
  int i;
  int acc = 0;
  for (i = 0; i < 50; i = i + 1) { acc = acc + chain(i); }
  print_int(acc);
  return acc & 255;
}
|}

let test_inline_counts () =
  let _, ir = Bisa_compiler.Compiler.frontend call_heavy_src in
  let n = Inline.run ir in
  Alcotest.(check bool) (Printf.sprintf "inlined %d sites" n) true (n >= 3);
  (* Inlined code must still validate. *)
  List.iter
    (fun f ->
      match Bisa_ir.Cfg.validate f with
      | Ok () -> ()
      | Error m -> Alcotest.failf "invalid IR after inlining: %s" m)
    ir.funcs

let test_inline_preserves_semantics () =
  let base = Bisa_compiler.Compiler.compile call_heavy_src in
  let inlined = Bisa_compiler.Compiler.compile ~inline:true call_heavy_src in
  let o1, _ = Bisa_sim.Conv_exec.run base.conv () in
  let o2, _ = Bisa_sim.Conv_exec.run inlined.conv () in
  let o3, _ = Bisa_sim.Block_exec.run inlined.block () in
  Alcotest.(check bool) "conv" true (Bisa_sim.Output.equal o1 o2);
  Alcotest.(check bool) "block" true (Bisa_sim.Output.equal o1 o3)

let test_inline_reduces_calls () =
  let count_calls (prog : Bisa_isa.Conv_prog.t) =
    Array.fold_left
      (fun n i -> match i with Bisa_isa.Insn.Call _ -> n + 1 | _ -> n)
      0 prog.insns
  in
  let base = Bisa_compiler.Compiler.compile call_heavy_src in
  let inlined = Bisa_compiler.Compiler.compile ~inline:true call_heavy_src in
  Alcotest.(check bool) "fewer static calls" true
    (count_calls inlined.conv < count_calls base.conv)

let test_inline_skips_recursion () =
  let src = "int f(int n) { if (n < 2) { return n; } return f(n-1) + f(n-2); }\n\
             int main() { print_int(f(10)); return 0; }"
  in
  let _, ir = Bisa_compiler.Compiler.frontend src in
  let n = Inline.run ir in
  Alcotest.(check int) "recursive callee untouched" 0 n

let test_inline_skips_library () =
  let src = "int lib(int x) { return x + 1; }\nint main() { print_int(lib(4)); return 0; }" in
  let _, ir = Bisa_compiler.Compiler.frontend ~library_funcs:[ "lib" ] src in
  Alcotest.(check int) "library callee untouched" 0 (Inline.run ir)

(* --- If-conversion (predicated execution) ------------------------------------ *)

let hammock_src =
  {|
int main() {
  int i;
  int acc = 0;
  int seed = 9;
  for (i = 0; i < 2000; i = i + 1) {
    seed = (seed * 1103515245 + 12345) & 1073741823;
    int v = (seed >> 6) & 255;
    int w;
    if ((v & 1) == 1) { w = v * 3 + 1; } else { w = v / 2; }
    if (v > 200) { acc = acc + w; } else { acc = acc - w + 1; }
  }
  print_int(acc);
  return acc & 255;
}
|}

let test_ifconvert_counts_and_validates () =
  let _, ir = Bisa_compiler.Compiler.frontend hammock_src in
  let n = Bisa_opt.Ifconvert.run_program ir in
  Alcotest.(check bool) (Printf.sprintf "converted %d hammocks" n) true (n >= 2);
  List.iter
    (fun f ->
      match Bisa_ir.Cfg.validate f with
      | Ok () -> ()
      | Error m -> Alcotest.failf "invalid IR after if-conversion: %s" m)
    ir.funcs;
  (* The converted function contains selects. *)
  let has_select =
    List.exists
      (fun (f : Ir.func) ->
        Array.exists
          (fun (b : Ir.block) ->
            List.exists (function Ir.Select _ -> true | _ -> false) b.ops)
          f.blocks)
      ir.funcs
  in
  Alcotest.(check bool) "selects emitted" true has_select

let test_ifconvert_preserves_semantics () =
  let base = Bisa_compiler.Compiler.compile hammock_src in
  let pred = Bisa_compiler.Compiler.compile ~ifconvert:true hammock_src in
  let o1, _ = Bisa_sim.Conv_exec.run base.conv () in
  let o2, _ = Bisa_sim.Conv_exec.run pred.conv () in
  let o3, _ = Bisa_sim.Block_exec.run pred.block () in
  Alcotest.(check bool) "conv" true (Bisa_sim.Output.equal o1 o2);
  Alcotest.(check bool) "block" true (Bisa_sim.Output.equal o1 o3)

let test_ifconvert_removes_mispredicts () =
  let base = Bisa_compiler.Compiler.compile hammock_src in
  let pred = Bisa_compiler.Compiler.compile ~ifconvert:true hammock_src in
  let cfg = Bisa_timing.Config.default in
  let m0 = run_conv cfg base.conv in
  let m1 = run_conv cfg pred.conv in
  Alcotest.(check bool)
    (Printf.sprintf "fewer mispredicts (%d -> %d)" m0.mispredicts m1.mispredicts)
    true
    (m1.mispredicts < m0.mispredicts / 2)

let test_ifconvert_skips_effects () =
  (* Arms with stores/prints must keep their branch. *)
  let src =
    {|
int g[4];
int main() {
  int i;
  for (i = 0; i < 10; i = i + 1) {
    if ((i & 1) == 1) { g[0] = i; } else { g[1] = i; }
  }
  print_int(g[0] + g[1]);
  return 0;
}
|}
  in
  let _, ir = Bisa_compiler.Compiler.frontend src in
  Alcotest.(check int) "no conversion" 0 (Bisa_opt.Ifconvert.run_program ir)

let test_select_roundtrip () =
  let module Op = Bisa_isa.Op in
  let module Reg = Bisa_isa.Reg in
  let ops =
    [
      Op.Select (Bisa_isa.Cmp.Lt, Reg.Int 4, Reg.Int 5, Op.R (Reg.Int 6), Reg.Int 7, Reg.Int 8);
      Op.Select (Bisa_isa.Cmp.Eq, Reg.Flt 4, Reg.Int 5, Op.I (-7), Reg.Flt 7, Reg.Flt 8);
    ]
  in
  List.iter
    (fun op ->
      Alcotest.(check bool) (Op.to_string op) true
        (Bisa_isa.Encode.op_of_bytes (Bisa_isa.Encode.op_to_bytes op) = op))
    ops

(* --- Trace cache ------------------------------------------------------------ *)

let test_trace_cache_basics () =
  let tc = Trace_cache.create Trace_cache.default_config in
  Alcotest.(check (option (list int))) "cold" None (Trace_cache.lookup tc ~start:100);
  Trace_cache.fill tc ~starts:[ 100; 120; 140 ] ~total_ops:12;
  Alcotest.(check (option (list int)))
    "hit" (Some [ 120; 140 ])
    (Trace_cache.lookup tc ~start:100);
  (* Oversized or single-block traces are not cached. *)
  Trace_cache.fill tc ~starts:[ 200; 220 ] ~total_ops:40;
  Alcotest.(check (option (list int))) "too many ops" None (Trace_cache.lookup tc ~start:200);
  Trace_cache.fill tc ~starts:[ 300 ] ~total_ops:4;
  Alcotest.(check (option (list int))) "single block" None (Trace_cache.lookup tc ~start:300);
  Trace_cache.fill tc ~starts:[ 400; 410; 420; 430 ] ~total_ops:8;
  Alcotest.(check (option (list int))) "too many blocks" None (Trace_cache.lookup tc ~start:400);
  Alcotest.(check int) "hits counted" 1 (Trace_cache.hits tc)

let test_trace_cache_speeds_up_conv () =
  let w = Bisa_workloads.Workloads.find "m88ksim" in
  let c = Bisa_workloads.Workloads.compile ~scale:1 w in
  let base = Bisa_timing.Config.default in
  let with_tc =
    { base with trace_cache = Some Trace_cache.default_config }
  in
  let m0 = run_conv base c.conv in
  let m1 = run_conv with_tc c.conv in
  Alcotest.(check bool) "tc hits happen" true (m1.tc_hits > 100);
  Alcotest.(check bool) "tc not slower" true (m1.cycles <= m0.cycles);
  Alcotest.(check int) "same work retired" m0.retired_ops m1.retired_ops

(* --- Profile-guided enlargement ------------------------------------------------ *)

let test_profile_guided_correct_and_smaller () =
  let w = Bisa_workloads.Workloads.find "go" in
  let default = Bisa_workloads.Workloads.compile ~scale:1 w in
  let guided = Bisa_experiments.Profile_guided.compile ~scale:1 w in
  (* Same observable behaviour... *)
  let o1, _ = Bisa_sim.Block_exec.run default.block () in
  let o2, _ = Bisa_sim.Block_exec.run guided.block () in
  Alcotest.(check bool) "same output" true (Bisa_sim.Output.equal o1 o2);
  (* ...with less duplication on an unbiased-branch workload. *)
  Alcotest.(check bool)
    (Printf.sprintf "smaller code (%d vs %d bytes)" guided.block.code_bytes
       default.block.code_bytes)
    true
    (guided.block.code_bytes < default.block.code_bytes)

let test_profile_bias_values () =
  let w = Bisa_workloads.Workloads.find "compress" in
  let src = Bisa_workloads.Workloads.source ~scale:1 w in
  let _, ir, mfuncs =
    Bisa_compiler.Compiler.to_machine ~library_funcs:w.library_funcs src
  in
  let flat, flat_enlarged =
    Bisa_backend.Linker.link_block
      ~config:{ Bisa_backend.Enlarge.default_config with enabled = false }
      ir.globals mfuncs
  in
  let profile = Bisa_experiments.Profile_guided.collect flat flat_enlarged () in
  Alcotest.(check bool) "profile non-empty" true (Hashtbl.length profile > 10);
  Hashtbl.iter
    (fun _ (t, n) ->
      Alcotest.(check bool) "taken <= total" true (t >= 0 && t <= n))
    profile

let suite =
  [
    Alcotest.test_case "inline counts" `Quick test_inline_counts;
    Alcotest.test_case "inline semantics" `Quick test_inline_preserves_semantics;
    Alcotest.test_case "inline reduces calls" `Quick test_inline_reduces_calls;
    Alcotest.test_case "inline skips recursion" `Quick test_inline_skips_recursion;
    Alcotest.test_case "inline skips library" `Quick test_inline_skips_library;
    Alcotest.test_case "ifconvert validates" `Quick test_ifconvert_counts_and_validates;
    Alcotest.test_case "ifconvert semantics" `Quick test_ifconvert_preserves_semantics;
    Alcotest.test_case "ifconvert mispredicts" `Quick test_ifconvert_removes_mispredicts;
    Alcotest.test_case "ifconvert skips effects" `Quick test_ifconvert_skips_effects;
    Alcotest.test_case "select encode" `Quick test_select_roundtrip;
    Alcotest.test_case "trace cache basics" `Quick test_trace_cache_basics;
    Alcotest.test_case "trace cache speedup" `Slow test_trace_cache_speeds_up_conv;
    Alcotest.test_case "profile-guided" `Slow test_profile_guided_correct_and_smaller;
    Alcotest.test_case "profile values" `Slow test_profile_bias_values;
  ]
