(* Differential equivalence of the threaded-code executor (Bisa_sim.Compile)
   against the interpreters it replaces: lockstep step-record comparison,
   per-opcode coverage, machine-trap and exception equivalence, witness
   gating, and cross-backend state sharing. *)

module Block_exec = Bisa_sim.Block_exec
module Conv_exec = Bisa_sim.Conv_exec
module Compile = Bisa_sim.Compile
module Output = Bisa_sim.Output
module Verify = Bisa_verify.Verify

let compile src = Bisa_compiler.Compiler.compile src

(* --- lockstep drivers ------------------------------------------------------ *)

let block_step_eq i (a : Block_exec.step) (b : Block_exec.step) =
  if
    not
      (a.block = b.block && a.ops_executed = b.ops_executed
     && a.mem_addrs = b.mem_addrs && a.squashed = b.squashed
     && a.fault_pos = b.fault_pos && a.next = b.next && a.dir_taken = b.dir_taken)
  then Alcotest.failf "block step %d diverged (interp vs compiled)" i

let conv_packet_eq i (a : Conv_exec.packet) (b : Conv_exec.packet) =
  if
    not
      (a.start = b.start && a.count = b.count && a.mem_addrs = b.mem_addrs
     && a.term = b.term && a.next = b.next)
  then Alcotest.failf "conv packet %d diverged (interp vs compiled)" i

let check_mem_eq (prog : Bisa_isa.Block_prog.t) read_i read_c =
  Array.iteri
    (fun i _ ->
      let addr = prog.data_base + (i * 8) in
      if read_i addr <> read_c addr then
        Alcotest.failf "data word %d differs between backends" i)
    prog.data

(* Drive both backends in lockstep over the same fetch choices; every
   step record, counter and trap must agree, and so must the final
   output and data segment. *)
let lockstep_block ?(fetch = fun _required _i -> None) ?(budget = 50_000_000)
    (prog : Bisa_isa.Block_prog.t) =
  let xi = Block_exec.create prog in
  let xc = Block_exec.create prog in
  Block_exec.set_budget xi budget;
  Block_exec.set_budget xc budget;
  let tc = Compile.Block.bind (Compile.Block.compile_trusted prog) xc in
  let i = ref 0 in
  let steps = ref 0 in
  let running = ref true in
  while !running do
    let f = if Block_exec.halted xi then None else fetch (Block_exec.required xi) !i in
    let si = match f with None -> Block_exec.step xi | Some f -> Block_exec.step ~fetch:f xi in
    let sc =
      match f with None -> Compile.Block.step tc | Some f -> Compile.Block.step ~fetch:f tc
    in
    (match (si, sc) with
    | None, None -> running := false
    | Some a, Some b ->
      incr steps;
      block_step_eq !i a b
    | Some _, None -> Alcotest.failf "step %d: interp ran, compiled halted" !i
    | None, Some _ -> Alcotest.failf "step %d: compiled ran, interp halted" !i);
    if Block_exec.dyn_ops xi <> Block_exec.dyn_ops xc then
      Alcotest.failf "step %d: dyn counters diverged" !i;
    if Block_exec.retired_ops xi <> Block_exec.retired_ops xc then
      Alcotest.failf "step %d: retired counters diverged" !i;
    if Block_exec.machine_trap xi <> Block_exec.machine_trap xc then
      Alcotest.failf "step %d: machine traps diverged" !i;
    incr i
  done;
  Alcotest.(check bool) "both halted" true (Block_exec.halted xi && Block_exec.halted xc);
  Alcotest.(check bool) "outputs equal" true
    (Output.equal (Block_exec.output xi) (Block_exec.output xc));
  check_mem_eq prog (Block_exec.read_mem xi) (Block_exec.read_mem xc);
  !steps

let lockstep_conv ?(budget = 50_000_000) (prog : Bisa_isa.Conv_prog.t) =
  let xi = Conv_exec.create prog in
  let xc = Conv_exec.create prog in
  Conv_exec.set_budget xi budget;
  Conv_exec.set_budget xc budget;
  let tc = Compile.Conv.bind (Compile.Conv.compile_trusted prog) xc in
  let i = ref 0 in
  let running = ref true in
  while !running do
    (match (Conv_exec.step xi, Compile.Conv.step tc) with
    | None, None -> running := false
    | Some a, Some b -> conv_packet_eq !i a b
    | Some _, None -> Alcotest.failf "packet %d: interp ran, compiled halted" !i
    | None, Some _ -> Alcotest.failf "packet %d: compiled ran, interp halted" !i);
    if Conv_exec.dyn_insns xi <> Conv_exec.dyn_insns xc then
      Alcotest.failf "packet %d: dyn counters diverged" !i;
    if Conv_exec.machine_trap xi <> Conv_exec.machine_trap xc then
      Alcotest.failf "packet %d: machine traps diverged" !i;
    incr i
  done;
  Alcotest.(check bool) "outputs equal" true
    (Output.equal (Conv_exec.output xi) (Conv_exec.output xc))

let lockstep_both (c : Bisa_compiler.Compiler.compiled) =
  ignore (lockstep_block c.block);
  lockstep_conv c.conv

(* --- per-opcode coverage ---------------------------------------------------- *)

(* One source whose compiled form exercises every integer opcode class:
   all ALU ops (div/rem by zero included), selects, loads/stores,
   call/return (the r31 discipline), indirect control via the compiler's
   lowering, and prints. *)
let int_ops_src =
  {|
int tab[8];
int helper(int a, int b) { return a * b + (a / (b - b + 1)); }
int main() {
  int i; int acc = 7; int z = 0;
  for (i = 1; i < 40; i = i + 1) {
    acc = acc + i; acc = acc - (i & 3); acc = acc * 3; acc = acc / (i + 1);
    acc = acc % 97; acc = acc & 255; acc = acc | i; acc = acc ^ (i << 2);
    acc = acc + (i >> 1);
    acc = acc + (i / z);   /* div by zero -> 0, not a crash */
    acc = acc + (i % z);
    if (acc > 100) { acc = acc - 50; } else { acc = acc + 1; }
    tab[i & 7] = acc;
    acc = acc + tab[(i >> 1) & 7];
    acc = acc + helper(i, acc & 15);
  }
  print_int(acc);
  return acc & 255;
}
|}

let float_ops_src =
  {|
float ftab[4];
int main() {
  int i; float x = 1.5; float y = 0.25; int n = 0;
  for (i = 0; i < 25; i = i + 1) {
    x = x + y; x = x - (y * 0.5); x = x * 1.0625; x = x / 1.03125;
    ftab[i & 3] = x;
    y = ftab[(i + 1) & 3] + itof(i);
    if (x > y) { n = n + 1; } else { n = n - 1; }
    n = n + ftoi(x);
  }
  print_float(x);
  print_int(n);
  return n & 255;
}
|}

let test_int_opcodes () = lockstep_both (compile int_ops_src)
let test_float_opcodes () = lockstep_both (compile float_ops_src)

(* Fault slots: drive the block executor through non-representative
   variants so fault operations actually fire, with the same seeded
   choices on both backends. *)
let test_fault_slots_fire () =
  let c = compile int_ops_src in
  let rng = Bisa_base.Rng.create 4242 in
  let groups = c.block.variant_group in
  let choices = Hashtbl.create 64 in
  let fetch required i =
    match Hashtbl.find_opt choices i with
    | Some f -> Some f
    | None ->
      let group = groups.(required) in
      let f =
        if Array.length group > 1 then Bisa_base.Rng.choose rng group else required
      in
      Hashtbl.add choices i f;
      Some f
  in
  let steps = lockstep_block ~fetch c.block in
  Alcotest.(check bool) "executed blocks" true (steps > 10)

(* --- zero-register discipline ---------------------------------------------- *)

let raw_block_prog blocks succ =
  let n = Array.length blocks in
  {
    Bisa_isa.Block_prog.blocks;
    entry = 0;
    data = [||];
    data_base = 0;
    block_addr = Array.make n 0;
    code_bytes = 0;
    symbols = [];
    succ_struct = succ;
    variant_group = Array.make n [||];
  }

let test_r0_write_dropped () =
  let open Bisa_isa in
  (* Writes to r0 are dropped (f0 is writable); loads to r0 still access
     memory.  The compiled chains bake the drop in at compile time. *)
  let p =
    raw_block_prog
      [|
        {
          Ablock.elts =
            [|
              Ablock.Op (Op.Li (Reg.Int 0, 5));
              Ablock.Op (Op.Alu (Op.Add, Reg.Int 0, Reg.Int 0, Op.I 9));
              Ablock.Op (Op.Lif (Reg.Flt 0, 2.5));
              Ablock.Op (Op.Store (Reg.Int 5, Reg.Int 0, 8));
              Ablock.Op (Op.Load (Reg.Int 0, Reg.Int 0, 8));
              Ablock.Op (Op.Print (Reg.Int 0));
              Ablock.Op (Op.Printf (Reg.Flt 0));
            |];
          term = Ablock.Halt;
        };
      |]
      [| ([||], [||]) |]
  in
  ignore (lockstep_block p);
  let out, _ = Compile.Block.run (Compile.Block.compile_trusted p) in
  Alcotest.(check bool) "r0 stayed zero, f0 wrote" true
    (out.items = [ Output.Oint 0; Output.Oflt 2.5 ])

(* --- machine traps and exceptions ------------------------------------------- *)

let test_wild_ijump_trap_equivalence () =
  let open Bisa_isa in
  let p =
    raw_block_prog
      [|
        {
          Ablock.elts = [| Ablock.Op (Op.Li (Reg.Int 5, 999)) |];
          term = Ablock.Ijump (Reg.Int 5);
        };
      |]
      [| ([| 0 |], [||]) |]
  in
  ignore (lockstep_block p);
  let code = Compile.Block.compile_trusted p in
  let x = Block_exec.create p in
  let t = Compile.Block.bind code x in
  let rec go () = match Compile.Block.step t with Some _ -> go () | None -> () in
  go ();
  Alcotest.(check bool) "wild jump trap, not an exception" true
    (Block_exec.machine_trap x = Some (Block_exec.Wild_jump 999))

let test_unaligned_trap_equivalence () =
  let open Bisa_isa in
  let p =
    raw_block_prog
      [|
        {
          Ablock.elts =
            [|
              Ablock.Op (Op.Li (Reg.Int 5, 3));
              Ablock.Op (Op.Load (Reg.Int 6, Reg.Int 5, 0));
            |];
          term = Ablock.Halt;
        };
      |]
      [| ([||], [||]) |]
  in
  ignore (lockstep_block p)

let test_conv_partial_packet_commits_on_trap () =
  let open Bisa_isa in
  (* Conventional semantics: instructions before the unaligned access
     commit; the compiled path must leave the same memory behind. *)
  let p =
    {
      Conv_prog.insns =
        [|
          Insn.Op (Op.Li (Reg.Int 5, 0x100));
          Insn.Op (Op.Li (Reg.Int 6, 77));
          Insn.Op (Op.Store (Reg.Int 6, Reg.Int 5, 0));
          Insn.Op (Op.Load (Reg.Int 7, Reg.Int 5, 3));
          Insn.Halt;
        |];
      entry = 0;
      data = [||];
      data_base = 0;
      symbols = [];
    }
  in
  lockstep_conv p;
  let code = Compile.Conv.compile_trusted p in
  let x = Conv_exec.create p in
  let t = Compile.Conv.bind code x in
  let rec go () = match Compile.Conv.step t with Some _ -> go () | None -> () in
  go ();
  Alcotest.(check bool) "trap" true
    (Conv_exec.machine_trap x = Some (Conv_exec.Unaligned_access 0x103));
  Alcotest.(check int) "earlier store committed" 77 (Conv_exec.read_mem x 0x100)

let test_runaway_equivalence () =
  let c = compile "int main() { while (1) { } return 0; }" in
  let drive step halted budget_setter create prog =
    let x = create prog in
    budget_setter x 1000;
    let rec go () = match step x with Some _ -> go () | None -> () in
    match go () with () -> Alcotest.fail "expected Runaway" | exception e -> (e, halted x)
  in
  let ei, _ =
    drive Conv_exec.step Conv_exec.halted Conv_exec.set_budget Conv_exec.create c.conv
  in
  let code = Compile.Conv.compile_trusted c.conv in
  let ec, _ =
    drive
      (fun x -> Compile.Conv.step (Compile.Conv.bind code x))
      Conv_exec.halted Conv_exec.set_budget Conv_exec.create c.conv
  in
  Alcotest.(check bool) "same Runaway payload" true (ei = ec)

let test_illegal_fetch_equivalence () =
  let c = compile int_ops_src in
  let req_block = c.block.entry in
  let bad = ref (-1) in
  Array.iteri
    (fun i _ ->
      if
        !bad < 0 && i <> req_block
        && not (Bisa_isa.Block_prog.in_group c.block ~rep:req_block i)
      then bad := i)
    c.block.blocks;
  let x = Block_exec.create c.block in
  let t = Compile.Block.bind (Compile.Block.compile_trusted c.block) x in
  (match Compile.Block.step ~fetch:!bad t with
  | _ -> Alcotest.fail "expected Illegal_fetch"
  | exception Block_exec.Illegal_fetch { required; requested } ->
    Alcotest.(check int) "required" req_block required;
    Alcotest.(check int) "requested" !bad requested)

let test_class_malformed_raises_like_interp () =
  let open Bisa_isa in
  (* A trusted program whose ALU writes a float register: the interpreter
     raises through the register file; the compiled fallback must raise
     the identical exception. *)
  let p =
    raw_block_prog
      [|
        {
          Ablock.elts = [| Ablock.Op (Op.Alu (Op.Add, Reg.Flt 1, Reg.Int 1, Op.I 0)) |];
          term = Ablock.Halt;
        };
      |]
      [| ([||], [||]) |]
  in
  let expect = Invalid_argument "Regfile.set_i: float register" in
  Alcotest.check_raises "interp raises" expect (fun () ->
      ignore (Block_exec.run p ()));
  Alcotest.check_raises "compiled raises identically" expect (fun () ->
      ignore (Compile.Block.run (Compile.Block.compile_trusted p)))

(* --- witness gating ---------------------------------------------------------- *)

let test_witness_gated_compile () =
  (* Compile.Block.compile takes only Verify.verified_block_prog (a
     private type), so an unverified program is unrepresentable there —
     checked by this very call typechecking only through the verifier. *)
  let c = compile int_ops_src in
  (match Verify.block_prog c.block with
  | Ok w -> ignore (Compile.Block.compile w)
  | Error ds -> Alcotest.failf "workload failed verification (%d diags)" (List.length ds));
  (match Verify.conv_prog c.conv with
  | Ok w -> ignore (Compile.Conv.compile w)
  | Error _ -> Alcotest.fail "conv workload failed verification");
  (* A malformed program cannot produce a witness... *)
  let open Bisa_isa in
  let bad =
    raw_block_prog
      [| { Ablock.elts = [||]; term = Ablock.Goto 99 } |]
      [| ([| 99 |], [||]) |]
  in
  (match Verify.block_prog bad with
  | Ok _ -> Alcotest.fail "verifier accepted a wild goto"
  | Error _ -> ());
  (* ...so only the explicitly-named escape hatch compiles it. *)
  ignore (Compile.Block.compile_trusted bad)

let test_bind_rejects_foreign_program () =
  let a = compile int_ops_src and b = compile float_ops_src in
  let code = Compile.Block.compile_trusted a.block in
  let x = Block_exec.create b.block in
  (match Compile.Block.bind code x with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ());
  let ccode = Compile.Conv.compile_trusted a.conv in
  let cx = Conv_exec.create b.conv in
  match Compile.Conv.bind ccode cx with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ()

(* --- cross-backend state sharing -------------------------------------------- *)

let test_mid_run_backend_switch () =
  (* The two backends mutate the same executor record, so switching
     backends mid-run (the checkpoint cross-resume scenario, without the
     serialization) must be invisible. *)
  let c = compile int_ops_src in
  let reference, _ = Block_exec.run c.block () in
  let x = Block_exec.create c.block in
  let t = Compile.Block.bind (Compile.Block.compile_trusted c.block) x in
  let flip = ref false in
  let rec go () =
    flip := not !flip;
    match if !flip then Block_exec.step x else Compile.Block.step t with
    | Some _ -> go ()
    | None -> ()
  in
  go ();
  Alcotest.(check bool) "alternating backends ≡ interp" true
    (Output.equal (Block_exec.output x) reference);
  let cref, _ = Conv_exec.run c.conv () in
  let cx = Conv_exec.create c.conv in
  let ct = Compile.Conv.bind (Compile.Conv.compile_trusted c.conv) cx in
  let rec cgo n =
    match if n mod 2 = 0 then Conv_exec.step cx else Compile.Conv.step ct with
    | Some _ -> cgo (n + 1)
    | None -> ()
  in
  cgo 0;
  Alcotest.(check bool) "conv alternating ≡ interp" true
    (Output.equal (Conv_exec.output cx) cref)

(* --- chain lifetime ---------------------------------------------------------- *)

(* Closure chains live only as long as the binding or run that executes
   them.  A threaded-code handle reaches nothing beyond its program and
   its own record, and a compiled artifact reaches no more than an
   interpreted one plus that handle: a few words, where caching gcc's
   conv chains would add about 1.7 MB. *)
let test_artifacts_hold_no_chains () =
  let words v = Obj.reachable_words (Obj.repr v) in
  let check (type p a) name
      (module P : Bisa_timing.Pipeline.S with type prog = p and type artifact = a) (prog : p) =
    let what = name ^ "/" ^ P.isa in
    let handle = words (P.compile_trusted prog) - words prog in
    if handle > 4 then
      Alcotest.failf "%s: compile_trusted reaches %d words beyond the program" what handle;
    let extra =
      words (P.prepare ~exec:Compile.Compiled prog) - words (P.prepare ~exec:Compile.Interp prog)
    in
    if extra > 8 then
      Alcotest.failf "%s: a compiled artifact reaches %d words more than an interpreted one"
        what extra
  in
  List.iter
    (fun name ->
      let c = Bisa_workloads.Workloads.compile (Bisa_workloads.Workloads.find name) in
      check name (module Bisa_timing.Pipeline.Conv) c.conv;
      check name (module Bisa_timing.Pipeline.Block) c.block)
    [ "gcc"; "li" ]

(* --- workload sweep ---------------------------------------------------------- *)

let test_workloads_equivalent () =
  List.iter
    (fun name ->
      let w = Bisa_workloads.Workloads.find name in
      let c = Bisa_workloads.Workloads.compile ~scale:1 w in
      lockstep_both c)
    [ "compress"; "li"; "go" ]

let suite =
  [
    Alcotest.test_case "int opcode classes" `Quick test_int_opcodes;
    Alcotest.test_case "float opcode classes" `Quick test_float_opcodes;
    Alcotest.test_case "fault slots fire" `Quick test_fault_slots_fire;
    Alcotest.test_case "r0/f0 discipline" `Quick test_r0_write_dropped;
    Alcotest.test_case "wild ijump trap" `Quick test_wild_ijump_trap_equivalence;
    Alcotest.test_case "unaligned trap" `Quick test_unaligned_trap_equivalence;
    Alcotest.test_case "conv partial packet" `Quick test_conv_partial_packet_commits_on_trap;
    Alcotest.test_case "runaway equivalence" `Quick test_runaway_equivalence;
    Alcotest.test_case "illegal fetch" `Quick test_illegal_fetch_equivalence;
    Alcotest.test_case "class-malformed fallback" `Quick test_class_malformed_raises_like_interp;
    Alcotest.test_case "witness gating" `Quick test_witness_gated_compile;
    Alcotest.test_case "bind rejects foreign prog" `Quick test_bind_rejects_foreign_program;
    Alcotest.test_case "mid-run backend switch" `Quick test_mid_run_backend_switch;
    Alcotest.test_case "artifacts hold no closure chain" `Quick test_artifacts_hold_no_chains;
    Alcotest.test_case "workload sweep" `Quick test_workloads_equivalent;
  ]
