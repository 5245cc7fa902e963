(* Differential equivalence of the threaded-code executor (Bisa_sim.Compile)
   against the interpreters it replaces: lockstep step-record comparison,
   per-opcode coverage (every register-op arm on every compiled path),
   machine-trap and exception equivalence, the budget edges of both runs,
   witness gating, and cross-backend state sharing. *)

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
      match f with None -> Block_exec.step ~body:tc xc | Some f -> Block_exec.step ~body:tc ~fetch:f xc
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
    (match (Conv_exec.step xi, Conv_exec.step ~body:tc xc) with
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

let raw_conv_prog insns =
  {
    Bisa_isa.Conv_prog.insns = Array.of_list insns;
    entry = 0;
    data = [||];
    data_base = 0;
    symbols = [];
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

(* --- every register-op arm on every compiled path ----------------------------- *)

(* Straight-line cases, each a short op list that prints what it
   computed: the 17 ALU ops with a register and an immediate second
   operand, Fpu, Fcmp, Select (both operand forms, both destination
   classes), moves, constants and conversions, over edge values (shift
   amounts around 32 and 64, divisors 0 and ±1, max_int/min_int, ±0.0,
   NaN, ∞ and 1e300), plus a write to r0 for every op that can name it. *)
let reg_op_cases () =
  let open Bisa_isa in
  let r i = Reg.Int i and f i = Reg.Flt i and r0 = Reg.zero in
  let ivals = [ 0; 1; -1; 2; -7; 31; 32; 63; 64; 65; max_int; min_int; 0x1234_5678_9abc ] in
  let fvals = [ 0.0; -0.0; 1.5; -2.25; Float.nan; infinity; neg_infinity; 1e300; -1e300 ] in
  let pairs vs = List.concat_map (fun a -> List.map (fun b -> (a, b)) vs) vs in
  let alus =
    Op.[ Add; Sub; Mul; Div; Rem; And; Or; Xor; Sll; Srl; Sra ]
    @ List.map (fun c -> Op.Set c) Cmp.all
  in
  let alu =
    List.concat_map
      (fun a ->
        [ Op.Li (r 4, 5); Op.Alu (a, r0, r 4, Op.R (r 4)); Op.Alu (a, r0, r 4, Op.I 3) ]
        :: [ Op.Print r0 ]
        :: List.map
             (fun (x, y) ->
               Op.
                 [
                   Li (r 4, x); Li (r 5, y);
                   Alu (a, r 6, r 4, R (r 5)); Print (r 6);
                   Alu (a, r 6, r 4, I y); Print (r 6);
                 ])
             (pairs ivals))
      alus
  in
  let fpu =
    List.concat_map
      (fun fn ->
        List.map
          (fun (x, y) ->
            Op.[ Lif (f 4, x); Lif (f 5, y); Fpu (fn, f 6, f 4, f 5); Printf (f 6) ])
          (pairs fvals))
      Op.[ Fadd; Fsub; Fmul; Fdiv ]
  in
  let fcmp =
    List.concat_map
      (fun c ->
        Op.[ Lif (f 4, 1.0); Fcmp (c, r0, f 4, f 4); Print r0 ]
        :: List.map
             (fun (x, y) ->
               Op.[ Lif (f 4, x); Lif (f 5, y); Fcmp (c, r 6, f 4, f 5); Print (r 6) ])
             (pairs fvals))
      Cmp.all
  in
  let select =
    List.concat_map
      (fun c ->
        Op.[ Li (r 7, 11); Li (r 8, 22); Lif (f 7, 1.25); Lif (f 8, -0.0) ]
        :: Op.[ Select (c, r0, r 7, R (r 8), r 7, r 8); Select (c, r0, r 7, I 0, r 7, r 8) ]
        :: [ Op.Print r0 ]
        :: List.map
             (fun (x, y) ->
               Op.
                 [
                   Li (r 4, x); Li (r 5, y);
                   Select (c, r 6, r 4, R (r 5), r 7, r 8); Print (r 6);
                   Select (c, r 6, r 4, I y, r 7, r 8); Print (r 6);
                   Select (c, f 6, r 4, R (r 5), f 7, f 8); Printf (f 6);
                   Select (c, f 6, r 4, I y, f 7, f 8); Printf (f 6);
                 ])
             (pairs ivals))
      Cmp.all
  in
  let moves =
    List.map
      (fun x ->
        Op.
          [
            Li (r 4, x); Mov (r 6, r 4); Print (r 6); Itof (f 6, r 4); Printf (f 6);
            Mov (r0, r 4); Li (r0, x); Print r0; Nop;
          ])
      ivals
    @ List.map
        (fun y ->
          Op.
            [
              Lif (f 4, y); Mov (f 6, f 4); Printf (f 6); Ftoi (r 6, f 4); Print (r 6);
              Ftoi (r0, f 4); Print r0;
            ])
        fvals
  in
  alu @ fpu @ fcmp @ select @ moves

(* The conventional program runs the cases back to back; the block
   program gives each case its own block, chained by gotos. *)
let reg_op_progs () =
  let open Bisa_isa in
  let cases = reg_op_cases () in
  let n = List.length cases in
  let block i ops =
    {
      Ablock.elts = Array.of_list (List.map (fun op -> Ablock.Op op) ops);
      term = (if i = n - 1 then Ablock.Halt else Ablock.Goto (i + 1));
    }
  in
  ( raw_conv_prog (List.concat_map (List.map (fun op -> Insn.Op op)) cases @ [ Insn.Halt ]),
    raw_block_prog
      (Array.of_list (List.mapi block cases))
      (Array.init n (fun i -> ((if i = n - 1 then [||] else [| i + 1 |]), [||]))) )

let test_reg_op_arms () =
  let conv, block = reg_op_progs () in
  let diverged = ref [] in
  let check what (ref_out, ref_n) (out, n) =
    if not (Output.equal ref_out out && ref_n = n) then diverged := what :: !diverged
  in
  let reference = Conv_exec.run conv () in
  Alcotest.(check bool) "every case printed" true
    (List.length (fst reference).items > 5_000);
  check "Conv.run" reference (Compile.Conv.run (Compile.Conv.compile_trusted conv));
  let x = Conv_exec.create conv in
  let t = Compile.Conv.bind (Compile.Conv.compile_trusted conv) x in
  let rec go () = match Conv_exec.step ~body:t x with Some _ -> go () | None -> () in
  go ();
  check "Conv.step" reference (Conv_exec.output x, Conv_exec.dyn_insns x);
  check "Block.run" (Block_exec.run block ())
    (Compile.Block.run (Compile.Block.compile_trusted block));
  if !diverged <> [] then
    Alcotest.failf "output or op count differs from the interpreter's on %s"
      (String.concat ", " (List.rev !diverged))

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
  let rec go () = match Block_exec.step ~body:t x with Some _ -> go () | None -> () in
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
  let rec go () = match Conv_exec.step ~body:t x with Some _ -> go () | None -> () in
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
      (fun x -> Conv_exec.step ~body:(Compile.Conv.bind code x) x)
      Conv_exec.halted Conv_exec.set_budget Conv_exec.create c.conv
  in
  Alcotest.(check bool) "same Runaway payload" true (ei = ec)

(* --- budget edges of both runs ------------------------------------------------ *)

let budget_src =
  {|
int buf[4];
int f(int a) { buf[a & 3] = a; return buf[(a + 1) & 3] + a; }
int main() {
  int i; int s = 0;
  for (i = 0; i < 3; i = i + 1) { s = s + f(i); }
  print_int(s);
  return s & 255;
}
|}

(* Every budget from 0 to two past the run's op count: each compiled
   run returns the interpreter's output and count, or raises its exact
   Runaway payload.  The conventional run pays a fused straight-line run
   at its entry, so this pins where that falls back op by op. *)
let test_run_budget_edges () =
  let c = compile budget_src in
  let sweep what ops interp compiled runaway =
    for budget = 0 to ops + 2 do
      let outcome run =
        match run budget with
        | out, n -> Ok (out, n)
        | exception e -> ( match runaway e with Some n -> Error n | None -> raise e)
      in
      match (outcome interp, outcome compiled) with
      | Ok (o1, n1), Ok (o2, n2) when Output.equal o1 o2 && n1 = n2 -> ()
      | Error n1, Error n2 when n1 = n2 -> ()
      | _ -> Alcotest.failf "%s: budget %d diverges from the interpreter" what budget
    done
  in
  let conv_ops = snd (Conv_exec.run c.conv ()) in
  let code = Compile.Conv.compile_trusted c.conv in
  sweep "Conv.run" conv_ops
    (fun budget -> Conv_exec.run c.conv ~budget ())
    (fun budget -> Compile.Conv.run ~budget code)
    (function Conv_exec.Runaway n -> Some n | _ -> None);
  let x = Block_exec.create c.block in
  let rec go () = match Block_exec.step x with Some _ -> go () | None -> () in
  go ();
  let bcode = Compile.Block.compile_trusted c.block in
  sweep "Block.run" (Block_exec.dyn_ops x)
    (fun budget -> Block_exec.run c.block ~budget ())
    (fun budget -> Compile.Block.run ~budget bcode)
    (function Block_exec.Runaway n -> Some n | _ -> None)

(* An unaligned load at each position of a fused run of memory ops,
   whose branch folds into it: the op count after the halt is the
   interpreter's, so fuel refunded around each access is exact. *)
let test_unaligned_mid_run_count () =
  let open Bisa_isa in
  let r i = Reg.Int i in
  for bad = 0 to 5 do
    let body =
      List.init 6 (fun j ->
          if j = bad then Op.Load (r 7, r 5, 3)
          else if j mod 2 = 0 then Op.Store (r 6, r 5, 8 * j)
          else Op.Load (r 7, r 5, 8 * (j - 1)))
    in
    let insns =
      (Insn.Op (Op.Li (r 5, 0x100)) :: Insn.Op (Op.Li (r 6, 77)) :: Insn.Op (Op.Nop)
       :: List.map (fun op -> Insn.Op op) body)
      @ [ Insn.Br (Cmp.Eq, r 6, r 6, 11); Insn.Op (Op.Print (r 7)); Insn.Halt ]
    in
    let p = raw_conv_prog insns in
    let out, n = Conv_exec.run p () in
    let out', n' = Compile.Conv.run (Compile.Conv.compile_trusted p) in
    Alcotest.(check bool) "same output" true (Output.equal out out');
    Alcotest.(check int) (Printf.sprintf "op count, unaligned op %d" bad) n n';
    lockstep_conv p
  done

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
  (match Block_exec.step ~body:t ~fetch:!bad x with
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
  | _body -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ());
  let ccode = Compile.Conv.compile_trusted a.conv in
  let cx = Conv_exec.create b.conv in
  match Compile.Conv.bind ccode cx with
  | _body -> Alcotest.fail "expected Invalid_argument"
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
    match if !flip then Block_exec.step x else Block_exec.step ~body:t x with
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
    match if n mod 2 = 0 then Conv_exec.step cx else Conv_exec.step ~body:ct cx with
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
    Alcotest.test_case "every register-op arm, every path" `Quick test_reg_op_arms;
    Alcotest.test_case "fault slots fire" `Quick test_fault_slots_fire;
    Alcotest.test_case "r0/f0 discipline" `Quick test_r0_write_dropped;
    Alcotest.test_case "wild ijump trap" `Quick test_wild_ijump_trap_equivalence;
    Alcotest.test_case "unaligned trap" `Quick test_unaligned_trap_equivalence;
    Alcotest.test_case "conv partial packet" `Quick test_conv_partial_packet_commits_on_trap;
    Alcotest.test_case "runaway equivalence" `Quick test_runaway_equivalence;
    Alcotest.test_case "run budget edges" `Quick test_run_budget_edges;
    Alcotest.test_case "unaligned mid-run op count" `Quick test_unaligned_mid_run_count;
    Alcotest.test_case "illegal fetch" `Quick test_illegal_fetch_equivalence;
    Alcotest.test_case "class-malformed fallback" `Quick test_class_malformed_raises_like_interp;
    Alcotest.test_case "witness gating" `Quick test_witness_gated_compile;
    Alcotest.test_case "bind rejects foreign prog" `Quick test_bind_rejects_foreign_program;
    Alcotest.test_case "mid-run backend switch" `Quick test_mid_run_backend_switch;
    Alcotest.test_case "artifacts hold no closure chain" `Quick test_artifacts_hold_no_chains;
    Alcotest.test_case "workload sweep" `Quick test_workloads_equivalent;
  ]
