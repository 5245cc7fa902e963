(* Back-end tests: parallel moves, register allocation under pressure,
   block enlargement rules, linking, and pins of the exact bytes the
   compiler and the verifier emit. *)

module Reg = Bisa_isa.Reg
module Isel = Bisa_backend.Isel
module Enlarge = Bisa_backend.Enlarge
module Mir = Bisa_backend.Mir
module Ablock = Bisa_isa.Ablock

(* --- Parallel moves -------------------------------------------------------- *)

let apply_moves pairs state =
  (* state: assoc reg -> value; simulate the emitted sequence. *)
  List.fold_left
    (fun st (d, s) -> (d, List.assoc s st) :: List.remove_assoc d st)
    state pairs

let check_parallel pairs =
  let scratch = Reg.at in
  let regs = List.sort_uniq compare (List.concat_map (fun (d, s) -> [ d; s ]) pairs) in
  let init = List.mapi (fun i r -> (r, 100 + i)) regs in
  let expected =
    List.map (fun (d, s) -> (d, List.assoc s init)) pairs
  in
  let seq = Isel.parallel_moves pairs ~scratch in
  let final = apply_moves seq (( scratch, -1 ) :: init) in
  List.iter
    (fun (d, v) ->
      Alcotest.(check int) (Reg.to_string d) v (List.assoc d final))
    expected

let test_parallel_simple () =
  check_parallel [ (Reg.Int 4, Reg.Int 10); (Reg.Int 5, Reg.Int 11) ]

let test_parallel_chain () =
  (* r4 <- r5 <- r6: must move r4 first. *)
  check_parallel [ (Reg.Int 4, Reg.Int 5); (Reg.Int 5, Reg.Int 6) ]

let test_parallel_swap () =
  check_parallel [ (Reg.Int 4, Reg.Int 5); (Reg.Int 5, Reg.Int 4) ]

let test_parallel_three_cycle () =
  check_parallel [ (Reg.Int 4, Reg.Int 5); (Reg.Int 5, Reg.Int 6); (Reg.Int 6, Reg.Int 4) ]

let test_parallel_self_dropped () =
  let seq = Isel.parallel_moves [ (Reg.Int 4, Reg.Int 4) ] ~scratch:Reg.at in
  Alcotest.(check int) "self move dropped" 0 (List.length seq)

(* --- Register allocation under pressure ------------------------------------ *)

(* A function with ~40 simultaneously-live values forces spilling; the
   result must still compute correctly on both ISAs. *)
let pressure_src =
  let n = 40 in
  let decls =
    String.concat "\n  "
      (List.init n (fun i -> Printf.sprintf "int v%d = seed * %d + %d;" i (i + 2) i))
  in
  let uses = String.concat " + " (List.init n (fun i -> Printf.sprintf "v%d" i)) in
  Printf.sprintf
    {|
int helper(int x) { return x * 2 + 1; }
int main() {
  int seed = 13;
  %s
  int calls = helper(seed) + helper(seed + 1);
  print_int(%s + calls);
  return 0;
}
|}
    decls uses

let interp_ints src =
  let tp = Bisa_frontend.Typecheck.check (Bisa_frontend.Parser.parse src) in
  let r = Bisa_frontend.Interp.run tp in
  ( r.ret,
    List.filter_map
      (function Bisa_frontend.Interp.Oint v -> Some v | _ -> None)
      r.outputs )

let test_regalloc_spilling_correct () =
  let ret, outs = interp_ints pressure_src in
  let c = Bisa_compiler.Compiler.compile pressure_src in
  let conv_out, _ = Bisa_sim.Conv_exec.run c.conv () in
  let blk_out, _ = Bisa_sim.Block_exec.run c.block () in
  let expected =
    { Bisa_sim.Output.ret; items = List.map (fun v -> Bisa_sim.Output.Oint v) outs }
  in
  Alcotest.(check bool) "conv" true (Bisa_sim.Output.equal conv_out expected);
  Alcotest.(check bool) "block" true (Bisa_sim.Output.equal blk_out expected)

let test_regalloc_actually_spills () =
  let _, ir = Bisa_compiler.Compiler.frontend pressure_src in
  Bisa_opt.Pipeline.optimize Bisa_opt.Pipeline.O1 ir;
  let f = Bisa_ir.Ir.find_func ir "main" in
  let alloc = Bisa_backend.Regalloc.allocate f in
  Alcotest.(check bool) "spilled something" true (alloc.spill_count > 0)

let test_callee_saved_across_calls () =
  let src =
    {|
int id(int x) { return x; }
int main() {
  int keep = 12345;
  int a = id(1);
  int b = id(2);
  print_int(keep + a + b);
  return 0;
}
|}
  in
  let c = Bisa_compiler.Compiler.compile src in
  let out, _ = Bisa_sim.Conv_exec.run c.conv () in
  Alcotest.(check bool) "value survives calls" true
    (out.items = [ Bisa_sim.Output.Oint 12348 ])

(* --- Enlargement rules ------------------------------------------------------ *)

let mir_of src name =
  let _, ir = Bisa_compiler.Compiler.frontend src in
  Bisa_opt.Pipeline.optimize Bisa_opt.Pipeline.O1 ir;
  Isel.select (Bisa_ir.Ir.find_func ir name)

let branchy_src =
  {|
int f(int x) {
  int r = 0;
  if (x > 1) { r = r + 1; } else { r = r - 1; }
  if (x > 2) { r = r + 2; } else { r = r - 2; }
  if (x > 3) { r = r + 3; } else { r = r - 3; }
  if (x > 4) { r = r + 4; } else { r = r - 4; }
  return r;
}
int main() { print_int(f(3)); return 0; }
|}

let test_rule1_size_limit () =
  let mf = mir_of branchy_src "f" in
  List.iter
    (fun max_ops ->
      let e = Enlarge.run { Enlarge.default_config with max_ops } mf in
      Array.iter
        (fun b ->
          Alcotest.(check bool)
            (Printf.sprintf "block size <= %d" max_ops)
            true
            (Enlarge.block_size b <= max_ops))
        e.blocks)
    [ 4; 8; 16 ]

let test_rule2_fault_limit () =
  let mf = mir_of branchy_src "f" in
  List.iter
    (fun max_faults ->
      let e = Enlarge.run { Enlarge.default_config with max_faults; max_ops = 64 } mf in
      Array.iter
        (fun (b : Enlarge.fblock) ->
          let faults =
            Array.fold_left
              (fun n -> function Enlarge.Ffault _ -> n + 1 | Enlarge.Fop _ -> n)
              0 b.elts
          in
          Alcotest.(check bool) "fault count" true (faults <= max_faults))
        e.blocks)
    [ 1; 2 ]

let test_enlargement_merges () =
  let mf = mir_of branchy_src "f" in
  let e = Enlarge.run Enlarge.default_config mf in
  let _, _, mean_merged = Enlarge.stats e in
  Alcotest.(check bool) "actually merges" true (mean_merged > 1.5)

let test_disabled_config () =
  let mf = mir_of branchy_src "f" in
  let e = Enlarge.run { Enlarge.default_config with enabled = false } mf in
  Array.iter
    (fun (b : Enlarge.fblock) ->
      Alcotest.(check int) "merged exactly one" 1 b.merged)
    e.blocks

let loop_src =
  {|
int main() {
  int s = 0;
  int i;
  for (i = 0; i < 10; i = i + 1) { s = s + i; }
  print_int(s);
  return 0;
}
|}

(* A loop built by hand, shaped so a region starts mid-loop (the fat body
   exhausts the merge budget, so the latch becomes its own region whose
   only escape is the back edge):

     0 preheader -> 1 header -(trap)-> 2 fat body | 4 exit
     2 -(trap)-> 3 latch | 3 latch ; 3 -> 1 (back edge)            *)
let latch_marker = Bisa_isa.Op.Alu (Bisa_isa.Op.Add, Bisa_isa.Reg.Int 20, Bisa_isa.Reg.Int 4, Bisa_isa.Op.I 99)

let hand_loop () =
  let open Bisa_isa in
  let add k = Mir.Mop (Op.Alu (Op.Add, Reg.Int (4 + k), Reg.Int 4, Op.I k)) in
  {
    Mir.name = "loop";
    entry = 0;
    blocks =
      [|
        { Mir.mops = []; mterm = Mir.Mjmp 1 };
        { Mir.mops = [ add 0 ]; mterm = Mir.Mbr (Cmp.Lt, Reg.Int 4, Reg.Int 5, 2, 4) };
        (* 12 ops: merging the latch behind [header, fault, body] would
           need 17 slots, so the latch becomes its own region. *)
        { Mir.mops = List.init 12 add; mterm = Mir.Mjmp 3 };
        { Mir.mops = [ Mir.Mop latch_marker; add 2 ]; mterm = Mir.Mjmp 1 };
        { Mir.mops = []; mterm = Mir.Mret };
      |];
    jumptables = [||];
    is_library = false;
    frame_bytes = 0;
  }

(* Blocks whose path BEGINS at the latch (first element is its marker). *)
let latch_headed (e : Enlarge.t) =
  Array.to_list e.blocks
  |> List.filter (fun (b : Enlarge.fblock) ->
         Array.length b.elts > 0
         &&
         match b.elts.(0) with
         | Enlarge.Fop (Mir.Mop op) -> op = latch_marker
         | _ -> false)

let test_rule4_no_backedge_merging () =
  let mf = hand_loop () in
  let e = Enlarge.run Enlarge.default_config mf in
  (* Default: the latch's only successor is the back edge to the header,
     so its region stays a single basic block — separate loop iterations
     are never combined. *)
  let latch_default = latch_headed e in
  Alcotest.(check bool) "latch region exists" true (latch_default <> []);
  List.iter
    (fun (b : Enlarge.fblock) ->
      Alcotest.(check int) "latch unmerged by default" 1 b.merged)
    latch_default;
  (* Ablation: the latch region may now merge through the back edge into
     the next iteration's header. *)
  let e2 =
    Enlarge.run { Enlarge.default_config with merge_across_back_edges = true } mf
  in
  let crossed =
    List.exists (fun (b : Enlarge.fblock) -> b.merged >= 2) (latch_headed e2)
  in
  Alcotest.(check bool) "ablation merges across the back edge" true crossed;
  let _, ops_default, _ = Enlarge.stats e in
  let _, ops_merged, _ = Enlarge.stats e2 in
  Alcotest.(check bool) "more static ops under ablation" true (ops_merged > ops_default)

let test_rule5_library_untouched () =
  let src = loop_src in
  let _, ir = Bisa_compiler.Compiler.frontend ~library_funcs:[ "main" ] src in
  Bisa_opt.Pipeline.optimize Bisa_opt.Pipeline.O1 ir;
  let mf = Isel.select (Bisa_ir.Ir.find_func ir "main") in
  let e = Enlarge.run Enlarge.default_config mf in
  Array.iter
    (fun (b : Enlarge.fblock) -> Alcotest.(check int) "no merging" 1 b.merged)
    e.blocks

let test_fault_targets_in_group () =
  (* Every fault target must be a sibling variant of the same region. *)
  let c = Bisa_compiler.Compiler.compile branchy_src in
  Array.iteri
    (fun b (blk : int Ablock.t) ->
      List.iter
        (fun (_, _, _, target) ->
          Alcotest.(check bool) "fault target in own group" true
            (Array.exists (fun x -> x = target) c.block.variant_group.(b)))
        (Ablock.faults blk))
    c.block.blocks

let test_succ_log2_bounds () =
  let c = Bisa_compiler.Compiler.compile branchy_src in
  Array.iter
    (fun (blk : int Ablock.t) ->
      match blk.term with
      | Ablock.Trap { succ_log2; _ } ->
        Alcotest.(check bool) "1..3" true (succ_log2 >= 1 && succ_log2 <= 3)
      | _ -> ())
    c.block.blocks

(* --- Linking ----------------------------------------------------------------- *)

let test_linker_symbols () =
  let c = Bisa_compiler.Compiler.compile branchy_src in
  Alcotest.(check bool) "main symbol exists" true
    (List.mem_assoc "main" c.conv.symbols);
  Alcotest.(check bool) "start symbol exists" true
    (List.mem_assoc "_start" c.conv.symbols);
  let f_entry = Bisa_isa.Conv_prog.find_symbol c.conv "f" in
  Alcotest.(check bool) "entry in range" true
    (f_entry >= 0 && f_entry < Array.length c.conv.insns)

let test_jump_tables_resolved () =
  let src =
    {|
int main() {
  int i;
  int acc = 0;
  for (i = 0; i < 12; i = i + 1) {
    switch (i % 6) {
      case 0: acc = acc + 1;
      case 1: acc = acc + 10;
      case 2: acc = acc + 100;
      case 3: acc = acc + 1000;
      case 4: acc = acc + 10000;
      default: acc = acc + 100000;
    }
  }
  print_int(acc);
  return 0;
}
|}
  in
  let ret, outs = interp_ints src in
  Alcotest.(check (list int)) "interp result" [ 222222 ] outs;
  let c = Bisa_compiler.Compiler.compile src in
  let conv_out, _ = Bisa_sim.Conv_exec.run c.conv () in
  let blk_out, _ = Bisa_sim.Block_exec.run c.block () in
  Alcotest.(check bool) "conv jump table" true
    (conv_out.items = [ Bisa_sim.Output.Oint 222222 ] && conv_out.ret = ret);
  Alcotest.(check bool) "block jump table" true
    (blk_out.items = [ Bisa_sim.Output.Oint 222222 ] && blk_out.ret = ret)

(* --- Compiler output pin ------------------------------------------------------- *)

(* What the compiler emits, pinned: the conv and block program hashes of
   every workload under each of four compile configurations, and one
   FNV-1a fold over both hashes of 300 generated programs.  A change that
   only makes the compiler faster must leave every value here unchanged;
   one that changes code generation on purpose must re-record them. *)

module Compiler = Bisa_compiler.Compiler
module Workloads = Bisa_workloads.Workloads
module Pipeline = Bisa_timing.Pipeline

let pin_configs =
  [
    ("default", fun ~library_funcs src -> Compiler.compile ~library_funcs src);
    ("inline", fun ~library_funcs src -> Compiler.compile ~inline:true ~library_funcs src);
    ("ifconvert", fun ~library_funcs src -> Compiler.compile ~ifconvert:true ~library_funcs src);
    ("O0", fun ~library_funcs src -> Compiler.compile ~opt:Bisa_opt.Pipeline.O0 ~library_funcs src);
  ]

(* (workload, configuration, conv prog_hash, block prog_hash) *)
let pinned_workloads =
  [
    ("gcc", "default", 0x39b2513510186cfdL, 0xd23b2aa1b36a23edL);
    ("gcc", "inline", 0x5fa19ba5ffa9f5a0L, 0x8cf898c7a172daceL);
    ("gcc", "ifconvert", 0x65ff3fa860075291L, 0x73d1c92ff9552761L);
    ("gcc", "O0", 0xcb0c01efb76b0a72L, 0xa850cef92b6fa9eaL);
    ("compress", "default", 0xe33b073046253d7cL, 0x87a4e44194b07827L);
    ("compress", "inline", 0x77ec399ba421ac3dL, 0xcbbb47d3846f08b7L);
    ("compress", "ifconvert", 0x52af2eb5c5f73194L, 0x562ca92cea2cfa0bL);
    ("compress", "O0", 0x2a5782b8ed9c52dL, 0x2496203199c9ee4L);
    ("go", "default", 0xbb2004f9b8feb065L, 0x2327ccb19df8b918L);
    ("go", "inline", 0xbb2004f9b8feb065L, 0x2327ccb19df8b918L);
    ("go", "ifconvert", 0x7e85abc1ded7711fL, 0xacdde4297b73f312L);
    ("go", "O0", 0xd13a42df701208ccL, 0x249843a9960a7c3bL);
    ("ijpeg", "default", 0xdf4e3a5c15b1bde0L, 0xdb41e0a23e7431a3L);
    ("ijpeg", "inline", 0xdf4e3a5c15b1bde0L, 0xdb41e0a23e7431a3L);
    ("ijpeg", "ifconvert", 0xab74be2bc6ac2a96L, 0xcd2fa03c79f4ae1eL);
    ("ijpeg", "O0", 0x762e3f0737850858L, 0xb617bb78631ad679L);
    ("li", "default", 0x86f1c1d3f795bfcdL, 0x26a807ef97b139aaL);
    ("li", "inline", 0x730702f83cfd0b73L, 0xc83a2322a538658aL);
    ("li", "ifconvert", 0x435addfe8945f6b9L, 0xd353d5358223cac2L);
    ("li", "O0", 0x6b496003064623e6L, 0x7f8a815f8c8c9409L);
    ("m88ksim", "default", 0x8e275240923b3b41L, 0x2a8fe63b60064cdcL);
    ("m88ksim", "inline", 0x8e275240923b3b41L, 0x2a8fe63b60064cdcL);
    ("m88ksim", "ifconvert", 0xd65dd0d06c223882L, 0xaa74ba4b866bf09aL);
    ("m88ksim", "O0", 0xbdf5706ab9d39199L, 0x4157e353f097ea6dL);
    ("perl", "default", 0x2b24f348b182182L, 0xa59eb0d27780d03cL);
    ("perl", "inline", 0xde16a97901d2e090L, 0x5f325c2e08b2a69cL);
    ("perl", "ifconvert", 0x866109c753d1f0d8L, 0x8c3a79eab0f8ed85L);
    ("perl", "O0", 0x9fdaef0fdc8998e6L, 0xa7424aa732f6f6d7L);
    ("vortex", "default", 0xb9d4ff4b0cfffef9L, 0xee34e629b1d84777L);
    ("vortex", "inline", 0x1f6619db83f5f70cL, 0x8b03c22107870453L);
    ("vortex", "ifconvert", 0x735b7f6c5af0628fL, 0x6b7d0cda48247c56L);
    ("vortex", "O0", 0x4e401990819ca14dL, 0x226525c42bb57f73L);
    ("scientific", "default", 0x555b64df55b69ad3L, 0x45585bcefa77d1adL);
    ("scientific", "inline", 0x555b64df55b69ad3L, 0x45585bcefa77d1adL);
    ("scientific", "ifconvert", 0xb28a88f36efaed1cL, 0xcae96d23af490ffL);
    ("scientific", "O0", 0xe8edf6842b69883L, 0x93657a79d7057b84L);
  ]

(* Programs [Gen.generate (Rng.derive 1 i)] for i in 0..299; each adds its
   conv then its block hash, little-endian, to the folded bytes. *)
let pinned_gen_fold = 0xef73d76e5bd43115L

let test_compiler_output_pinned () =
  List.iter
    (fun (name, cfg, conv_h, block_h) ->
      let w = Workloads.find name in
      let c = (List.assoc cfg pin_configs) ~library_funcs:w.library_funcs (Workloads.source w) in
      Alcotest.(check (pair int64 int64))
        (Printf.sprintf "%s %s: conv, block prog_hash" name cfg)
        (conv_h, block_h)
        (Pipeline.Conv.prog_hash c.conv, Pipeline.Block.prog_hash c.block))
    pinned_workloads;
  let buf = Buffer.create (300 * 16) in
  for i = 0 to 299 do
    let src = Bisa_check.Gen.render (Bisa_check.Gen.generate (Bisa_base.Rng.derive 1 i)) in
    let c = Compiler.compile src in
    Buffer.add_int64_le buf (Pipeline.Conv.prog_hash c.conv);
    Buffer.add_int64_le buf (Pipeline.Block.prog_hash c.block)
  done;
  Alcotest.(check int64) "300 generated programs: folded hashes" pinned_gen_fold
    (Bisa_base.Codec.fnv1a64 (Buffer.contents buf))

(* --- No forced minor collection -------------------------------------------- *)

(* OCaml 5's [caml_make_vect] runs a whole minor collection before it
   allocates an array of more than 256 words from a young initial value,
   as [Array.of_list] of fresh elements does.  The parser (over its
   tokens) and the conventional linker (over its instructions) each did
   that once per program.  Started on an empty minor heap, parsing and
   linking a program over that size must not collect at all.  Like the
   allocation tests in [Test_golden], it needs no other domain running. *)
let test_no_forced_minor_collection () =
  (* 1,550 tokens and 406 conventional instructions. *)
  let src = Bisa_check.Gen.render (Bisa_check.Gen.generate (Bisa_base.Rng.derive 1 1)) in
  let _, ir, mfuncs = Compiler.to_machine src in
  let collections () = (Gc.quick_stat ()).minor_collections in
  Gc.minor ();
  let before = collections () and words = Gc.minor_words () in
  let ast = Bisa_frontend.Parser.parse src in
  let conv = Bisa_backend.Linker.link_conventional ir.globals mfuncs in
  let used = Gc.minor_words () -. words and after = collections () in
  Alcotest.(check bool) "over 256 tokens" true
    (List.length (Bisa_frontend.Lexer.tokenize src) > 256 && ast <> []);
  Alcotest.(check bool) "over 256 instructions" true (Array.length conv.insns > 256);
  Alcotest.(check bool) "allocation fits the minor heap" true
    (used < float_of_int (Gc.get ()).minor_heap_size);
  Alcotest.(check int) "minor collections while parsing and linking" before after

(* --- Verifier output pin ------------------------------------------------------- *)

(* The verifier's diagnostics, pinned byte for byte: li's programs with
   registers, targets and fields broken in a fixed pattern, so rules fire
   at instruction, block, block-element and terminator locations. *)

let corrupt_conv (p : Bisa_isa.Conv_prog.t) =
  let n = Array.length p.insns in
  let insns =
    Array.mapi
      (fun i (insn : int Bisa_isa.Insn.t) ->
        match insn with
        | Br (c, _, s2, l) when i mod 2 = 0 -> Bisa_isa.Insn.Br (c, Reg.Flt 1, s2, l)
        | Jr _ -> Jr (Reg.Flt 2)
        | Op op when i mod 13 = 0 -> Op (Bisa_isa.Op.Mov (Reg.ra, List.hd (Bisa_isa.Op.uses op @ [ Reg.zero ])))
        | _ when i mod 3 = 0 -> Bisa_isa.Insn.map_label (fun l -> l + n) insn
        | _ -> insn)
      p.insns
  in
  { p with insns; data_base = p.data_base + 4; symbols = List.map (fun (s, i) -> (s, i + n)) p.symbols }

let corrupt_block (p : Bisa_isa.Block_prog.t) =
  let nb = Array.length p.blocks in
  let blocks =
    Array.mapi
      (fun bi (b : int Ablock.t) ->
        let b = if bi mod 3 = 0 then Ablock.map_label (fun l -> l + nb) b else b in
        let elts =
          Array.map
            (function
              | Ablock.Fault (c, _, r2, l) when bi mod 2 = 0 -> Ablock.Fault (c, Reg.Int 40, r2, l)
              | e -> e)
            b.elts
        in
        let elts = if bi mod 11 = 0 then Array.append elts [| Ablock.Op (Bisa_isa.Op.Li (Reg.ra, 0)) |] else elts in
        let elts =
          if bi mod 17 = 0 then Array.append elts (Array.make 3 (Ablock.Fault (Bisa_isa.Cmp.Eq, Reg.zero, Reg.zero, 0)))
          else elts
        in
        let term =
          match b.term with
          | Ablock.Trap t when bi mod 4 = 1 -> Ablock.Trap { t with succ_log2 = 5 }
          | Ablock.Ijump _ -> Ablock.Ijump (Reg.Flt 3)
          | t -> t
        in
        { Ablock.elts; term })
      p.blocks
  in
  let succ_struct =
    Array.mapi (fun bi (d1, d0) -> if bi mod 5 = 0 then (Array.append d1 [| nb + bi |], d0) else (d1, d0)) p.succ_struct
  in
  { p with blocks; succ_struct }

(* Diagnostic count and FNV-1a hash of the rendered lines, conv then block. *)
let pinned_verify = (271, 0xd017c7e08b1e764dL)

let test_verifier_output_pinned () =
  let c = Bisa_workloads.Workloads.compile (Workloads.find "li") in
  let ds =
    Bisa_verify.Verify.conv_diags (corrupt_conv c.conv)
    @ Bisa_verify.Verify.block_diags (corrupt_block c.block)
  in
  let text = String.concat "\n" (List.map Bisa_base.Diag.render ds) in
  Alcotest.(check (pair int int64)) "li, corrupted: diagnostics, hash" pinned_verify
    (List.length ds, Bisa_base.Codec.fnv1a64 text)

let suite =
  [
    Alcotest.test_case "parallel simple" `Quick test_parallel_simple;
    Alcotest.test_case "parallel chain" `Quick test_parallel_chain;
    Alcotest.test_case "parallel swap" `Quick test_parallel_swap;
    Alcotest.test_case "parallel 3-cycle" `Quick test_parallel_three_cycle;
    Alcotest.test_case "parallel self" `Quick test_parallel_self_dropped;
    Alcotest.test_case "regalloc spilling correct" `Quick test_regalloc_spilling_correct;
    Alcotest.test_case "regalloc spills" `Quick test_regalloc_actually_spills;
    Alcotest.test_case "callee saved" `Quick test_callee_saved_across_calls;
    Alcotest.test_case "rule 1: size" `Quick test_rule1_size_limit;
    Alcotest.test_case "rule 2: faults" `Quick test_rule2_fault_limit;
    Alcotest.test_case "enlargement merges" `Quick test_enlargement_merges;
    Alcotest.test_case "disabled config" `Quick test_disabled_config;
    Alcotest.test_case "rule 4: back edges" `Quick test_rule4_no_backedge_merging;
    Alcotest.test_case "rule 5: libraries" `Quick test_rule5_library_untouched;
    Alcotest.test_case "fault targets in group" `Quick test_fault_targets_in_group;
    Alcotest.test_case "succ_log2 bounds" `Quick test_succ_log2_bounds;
    Alcotest.test_case "linker symbols" `Quick test_linker_symbols;
    Alcotest.test_case "jump tables" `Quick test_jump_tables_resolved;
    Alcotest.test_case "compiler output pinned" `Quick test_compiler_output_pinned;
    Alcotest.test_case "verifier output pinned" `Quick test_verifier_output_pinned;
    Alcotest.test_case "parse and link force no minor collection" `Quick
      test_no_forced_minor_collection;
  ]
