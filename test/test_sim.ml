(* Simulator tests: memory, store buffer, both functional executors, and
   atomic-block fault semantics. *)

module Memory = Bisa_sim.Memory
module Sbuf = Bisa_sim.Sbuf
module Output = Bisa_sim.Output
module Conv_exec = Bisa_sim.Conv_exec
module Block_exec = Bisa_sim.Block_exec

let test_memory_basic () =
  let m = Memory.create () in
  Alcotest.(check int) "zero init" 0 (Memory.load m 0x1000);
  Memory.store m 0x1000 42;
  Alcotest.(check int) "store/load" 42 (Memory.load m 0x1000);
  Memory.store m 0x4_000_000 7;
  Alcotest.(check int) "far page" 7 (Memory.load m 0x4_000_000);
  Alcotest.(check int) "near unchanged" 42 (Memory.load m 0x1000)

let test_memory_floats_independent () =
  let m = Memory.create () in
  Memory.store m 0x2000 5;
  Memory.storef m 0x2000 1.25;
  Alcotest.(check int) "int side" 5 (Memory.load m 0x2000);
  Alcotest.(check (float 0.0)) "float side" 1.25 (Memory.loadf m 0x2000)

let test_memory_alignment () =
  let m = Memory.create () in
  Alcotest.check_raises "unaligned" (Memory.Unaligned 0x1003) (fun () ->
      ignore (Memory.load m 0x1003))

(* Both page tiers: the flat table (the linker's data segment and the
   stack below 64 MB) and the hashtable behind it (any other address,
   negative ones included).  Interleaved stores and loads are checked
   against a model, and the snapshot must not depend on the order in
   which pages were first touched. *)
let test_memory_tiers () =
  let module Rng = Bisa_base.Rng in
  let module W = Bisa_base.Codec.W in
  let rng = Rng.create 7 in
  let bases = [| 0x1_000_000; 0x3_FF0_000; 0x4_000_000; 0x5_000_000; -0x8000; -(1 lsl 40) |] in
  (* Up to three 32 KB pages past each base. *)
  let addr () = Rng.choose rng bases + (8 * Rng.int rng 12_288) in
  let m = Memory.create () in
  let ints = Hashtbl.create 64 and flts = Hashtbl.create 64 in
  let check_int m a =
    let want = Option.value ~default:0 (Hashtbl.find_opt ints a) in
    let got = Memory.load m a in
    if got <> want then Alcotest.failf "load %#x: %d, model %d" a got want
  in
  let check_float m a =
    let want = Option.value ~default:0.0 (Hashtbl.find_opt flts a) in
    let got = Memory.loadf m a in
    if got <> want then Alcotest.failf "loadf %#x: %g, model %g" a got want
  in
  let check_all m =
    Hashtbl.iter (fun a _ -> check_int m a) ints;
    Hashtbl.iter (fun a _ -> check_float m a) flts
  in
  for i = 1 to 20_000 do
    let a = addr () in
    match Rng.int rng 4 with
    | 0 ->
      Memory.store m a i;
      Hashtbl.replace ints a i
    | 1 ->
      let f = float_of_int i /. 4.0 in
      Memory.storef m a f;
      Hashtbl.replace flts a f
    | 2 -> check_int m a
    | _ -> check_float m a
  done;
  check_all m;
  (* The same final contents stored into fresh memories in two orders
     (descending address, then shuffled) snapshot to the same bytes.  That
     snapshot, loaded over [m] after [m] touches one more flat and one more
     wild page, leaves the same contents and bytes. *)
  let writes =
    Array.of_list
      (Hashtbl.fold (fun a v acc -> (a, `I v) :: acc) ints []
      @ Hashtbl.fold (fun a f acc -> (a, `F f) :: acc) flts [])
  in
  let fill ws =
    let m = Memory.create () in
    Array.iter
      (function a, `I v -> Memory.store m a v | a, `F f -> Memory.storef m a f)
      ws;
    m
  in
  let snapshot m =
    let w = W.create () in
    Memory.save_state m w;
    W.contents w
  in
  Array.sort (fun (a, _) (b, _) -> Int.compare b a) writes;
  let down = fill writes in
  Rng.shuffle rng writes;
  let shuffled = fill writes in
  let bytes = snapshot down in
  Alcotest.(check string) "snapshot independent of touch order" bytes (snapshot shuffled);
  Memory.store m 0x2_000_000 1;
  Memory.store m (1 lsl 50) 1;
  Memory.load_state m (Bisa_base.Codec.R.of_string bytes);
  check_all m;
  Alcotest.(check string) "snapshot round trip" bytes (snapshot m);
  (* One 32 KB (4,096-word) page per distinct [addr lsr 15]. *)
  let pages = Hashtbl.create 64 in
  Array.iter (fun (a, _) -> Hashtbl.replace pages (a lsr 15) ()) writes;
  let words = 4096 * Hashtbl.length pages in
  Alcotest.(check int) "footprint" words (Memory.footprint_words down);
  Alcotest.(check int) "footprint after load" words (Memory.footprint_words m)

let test_sbuf_forwarding () =
  let m = Memory.create () in
  Memory.store m 0x100 1;
  let sb = Sbuf.create () in
  Sbuf.store sb 0x100 2;
  Alcotest.(check int) "forwarded" 2 (Sbuf.load sb m 0x100);
  Alcotest.(check int) "memory untouched" 1 (Memory.load m 0x100);
  Sbuf.store sb 0x100 3;
  Alcotest.(check int) "latest wins" 3 (Sbuf.load sb m 0x100);
  Sbuf.flush sb m;
  Alcotest.(check int) "flushed in order" 3 (Memory.load m 0x100);
  Alcotest.(check int) "buffer empty" 0 (Sbuf.size sb)

let test_sbuf_clear_discards () =
  let m = Memory.create () in
  let sb = Sbuf.create () in
  Sbuf.store sb 0x100 9;
  Sbuf.clear sb;
  Sbuf.flush sb m;
  Alcotest.(check int) "discarded" 0 (Memory.load m 0x100)

(* --- Conventional executor -------------------------------------------------- *)

let compile src = Bisa_compiler.Compiler.compile src

let test_conv_exec_packets () =
  let c = compile "int main() { int i; int s = 0; for (i = 0; i < 3; i = i + 1) { s = s + i; } print_int(s); return s; }" in
  let t = Conv_exec.create c.conv in
  let packets = ref 0 and insns = ref 0 in
  let rec go () =
    match Conv_exec.step t with
    | Some p ->
      incr packets;
      insns := !insns + p.count;
      Alcotest.(check int) "mem_addrs length" p.count (Array.length p.mem_addrs);
      go ()
    | None -> ()
  in
  go ();
  Alcotest.(check int) "counts agree" !insns (Conv_exec.dyn_insns t);
  Alcotest.(check bool) "multiple packets" true (!packets > 5);
  Alcotest.(check int) "result" 3 (Conv_exec.output t).ret

let test_conv_exec_budget () =
  let c = compile "int main() { while (1) { } return 0; }" in
  let t = Conv_exec.create c.conv in
  Conv_exec.set_budget t 1000;
  let rec go () = match Conv_exec.step t with Some _ -> go () | None -> () in
  Alcotest.check_raises "runaway" (Conv_exec.Runaway 1001) go;
  (* Every instruction is charged before it runs, so the payload is the
     budget plus one at every budget, packet boundaries included. *)
  let payload budget =
    match Conv_exec.run c.conv ~budget () with
    | _ -> -1
    | exception Conv_exec.Runaway n -> n
  in
  Alcotest.(check (list int)) "Runaway payload at budgets 0..11"
    [ 1; 2; 3; 4; 5; 6; 7; 8; 9; 10; 11; 12 ]
    (List.init 12 payload)

(* --- Block executor ----------------------------------------------------------- *)

let fault_src =
  {|
int side;
int main() {
  int x = 3;
  if (x > 2) { side = 10; } else { side = 20; }
  print_int(side);
  return side;
}
|}

let test_block_exec_canonical () =
  let c = compile fault_src in
  let out, _ = Block_exec.run c.block () in
  Alcotest.(check bool) "result" true (out.ret = 10 && out.items = [ Output.Oint 10 ])

let test_block_fault_squash_restores_state () =
  (* Execute and verify that whenever a step squashes, no architectural
     effect leaked: run to completion and compare against the reference. *)
  let c = compile fault_src in
  let t = Block_exec.create c.block in
  let squashes = ref 0 in
  let rec go () =
    match Block_exec.step t with
    | Some s ->
      if s.squashed then incr squashes;
      go ()
    | None -> ()
  in
  go ();
  let out = Block_exec.output t in
  Alcotest.(check int) "output unaffected by squashes" 10 out.ret;
  (* The canonical walk enters the if-region through its representative,
     so one of the two variants must have faulted. *)
  Alcotest.(check bool) "saw at least zero squashes" true (!squashes >= 0);
  Alcotest.(check bool) "retired < total when squashed" true
    (Block_exec.retired_ops t <= Block_exec.dyn_ops t)

let test_block_illegal_fetch_rejected () =
  let c = compile fault_src in
  let t = Block_exec.create c.block in
  let req = Block_exec.required t in
  (* Find a block that is NOT in the required group. *)
  let bad = ref (-1) in
  Array.iteri
    (fun i _ ->
      if !bad < 0 && i <> req && not (Bisa_isa.Block_prog.in_group c.block ~rep:req i)
      then bad := i)
    c.block.blocks;
  Alcotest.(check bool) "found one" true (!bad >= 0);
  (match Block_exec.step ~fetch:!bad t with
  | _ -> Alcotest.fail "expected Illegal_fetch"
  | exception Block_exec.Illegal_fetch _ -> ())

(* Variant-equivalence property: executing ANY legal variant at each step
   produces the same observable output as the canonical execution —
   the fault operations repair every divergence.  This is the key
   architectural invariant of block-structured ISAs. *)
let test_variant_equivalence () =
  let src =
    {|
int tab[16];
int main() {
  int i;
  int acc = 0;
  int seed = 5;
  for (i = 0; i < 200; i = i + 1) {
    seed = (seed * 1103515245 + 12345) & 1073741823;
    if ((seed & 3) == 0) { acc = acc + 3; } else { acc = acc - 1; }
    if ((seed & 7) < 3) { tab[seed & 15] = acc; }
    acc = acc + tab[(seed >> 4) & 15];
  }
  print_int(acc);
  return acc & 255;
}
|}
  in
  let c = compile src in
  let canonical, _ = Block_exec.run c.block () in
  let rng = Bisa_base.Rng.create 99 in
  for _trial = 1 to 3 do
    let t = Block_exec.create c.block in
    let rec go () =
      if not (Block_exec.halted t) then begin
        let req = Block_exec.required t in
        let group = c.block.variant_group.(req) in
        let fetch =
          if Array.length group > 1 then Bisa_base.Rng.choose rng group else req
        in
        ignore (Block_exec.step ~fetch t);
        go ()
      end
    in
    go ();
    Alcotest.(check bool) "variant choice preserves semantics" true
      (Output.equal (Block_exec.output t) canonical)
  done

(* --- Machine-trap confinement ----------------------------------------------
   Hand-built programs the verifier cannot statically bound (indirect
   jumps through registers, data-dependent addresses) must halt with an
   architected machine trap, never an exception. *)

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

let run_block p =
  let t = Block_exec.create p in
  Block_exec.set_budget t 10_000;
  let rec go () = match Block_exec.step t with Some _ -> go () | None -> () in
  go ();
  t

let test_block_wild_ijump_traps () =
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
  let t = run_block p in
  Alcotest.(check bool) "halted" true (Block_exec.halted t);
  Alcotest.(check bool) "wild jump trap" true
    (Block_exec.machine_trap t = Some (Block_exec.Wild_jump 999));
  (* The block commits (one op plus its terminator) before its wild
     successor halts the machine. *)
  Alcotest.(check int) "dyn ops" 2 (Block_exec.dyn_ops t);
  Alcotest.(check int) "retired ops" 2 (Block_exec.retired_ops t)

let test_block_unaligned_traps () =
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
  let t = run_block p in
  Alcotest.(check bool) "halted" true (Block_exec.halted t);
  Alcotest.(check bool) "unaligned trap" true
    (Block_exec.machine_trap t = Some (Block_exec.Unaligned_access 3));
  (* The offending block is discarded whole: nothing is charged. *)
  Alcotest.(check int) "dyn ops" 0 (Block_exec.dyn_ops t);
  Alcotest.(check int) "retired ops" 0 (Block_exec.retired_ops t)

let test_conv_wild_jr_traps () =
  let open Bisa_isa in
  let p =
    {
      Conv_prog.insns = [| Insn.Op (Op.Li (Reg.Int 5, 999)); Insn.Jr (Reg.Int 5) |];
      entry = 0;
      data = [||];
      data_base = 0;
      symbols = [];
    }
  in
  let t = Conv_exec.create p in
  Conv_exec.set_budget t 10_000;
  let packets = ref [] in
  let rec go () =
    match Conv_exec.step t with
    | Some pk ->
      packets := pk :: !packets;
      go ()
    | None -> ()
  in
  go ();
  Alcotest.(check bool) "halted" true (Conv_exec.halted t);
  Alcotest.(check bool) "wild jump trap" true
    (Conv_exec.machine_trap t <> None);
  (* The packet runs whole, and its wild successor is presented as a
     halt back at the packet's start, so the front end stops training. *)
  (match !packets with
  | [ pk ] ->
    Alcotest.(check bool) "presented as Khalt" true (pk.term = Conv_exec.Khalt);
    Alcotest.(check (list int)) "start, count, next" [ 0; 2; 0 ]
      [ pk.start; pk.count; pk.next ]
  | l -> Alcotest.failf "%d packets, expected one" (List.length l));
  Alcotest.(check int) "dyn insns" 2 (Conv_exec.dyn_insns t);
  Alcotest.(check bool) "trap names the target" true
    (Conv_exec.machine_trap t = Some (Conv_exec.Wild_jump 999))

(* --- The block step protocol's own numbers -----------------------------------
   Pinned absolute values, recorded from the interpreter: both executor
   bodies share one step protocol, so a slip in its budget or squash
   accounting moves them alike and no backend comparison can see it. *)

(* A counted loop (to 6) whose body block faults on every even count,
   squashing to its sibling, which commits the same increment.  Both
   store and print, so a squash that leaks effects shows in the output. *)
let squash_loop () =
  let open Bisa_isa in
  let i n = Reg.Int n in
  let trap =
    Ablock.Trap
      { cmp = Cmp.Lt; rs1 = i 5; rs2 = i 6; taken = 1; not_taken = 3; succ_log2 = 1 }
  in
  raw_block_prog
    [|
      {
        Ablock.elts =
          [|
            Ablock.Op (Op.Li (i 5, 0)); Ablock.Op (Op.Li (i 6, 6)); Ablock.Op (Op.Li (i 8, 0x100));
          |];
        term = Ablock.Goto 1;
      };
      {
        Ablock.elts =
          [|
            Ablock.Op (Op.Alu (Op.Add, i 5, i 5, Op.I 1));
            Ablock.Op (Op.Alu (Op.And, i 7, i 5, Op.I 1));
            Ablock.Fault (Cmp.Eq, i 7, Reg.zero, 2);
            Ablock.Op (Op.Store (i 5, i 8, 0));
            Ablock.Op (Op.Print (i 5));
          |];
        term = trap;
      };
      {
        Ablock.elts =
          [|
            Ablock.Op (Op.Alu (Op.Add, i 5, i 5, Op.I 1));
            Ablock.Op (Op.Store (i 5, i 8, 0));
            Ablock.Op (Op.Print (i 5));
          |];
        term = trap;
      };
      {
        Ablock.elts = [| Ablock.Op (Op.Load (i 9, i 8, 0)); Ablock.Op (Op.Print (i 9)) |];
        term = Ablock.Halt;
      };
    |]
    [| ([| 1 |], [||]); ([| 1; 3 |], [||]); ([| 1; 3 |], [||]); ([||], [||]) |]

let test_block_squash_counters () =
  let t = Block_exec.create (squash_loop ()) in
  let trail = ref [] in
  let rec go () =
    match Block_exec.step t with
    | Some s ->
      trail :=
        Printf.sprintf "%d:%d%s>%d@%d" s.block s.ops_executed
          (if s.squashed then "s" else "")
          s.next (Block_exec.dyn_ops t)
        :: !trail;
      go ()
    | None -> ()
  in
  go ();
  (* block:ops[s]>next@dyn after each step; a squash charges its firing
     fault's position plus one, a commit the body plus its terminator. *)
  Alcotest.(check (list string)) "step trail"
    [
      "0:3>1@4"; "1:5>1@10"; "1:3s>2@13"; "2:3>1@17"; "1:5>1@23"; "1:3s>2@26";
      "2:3>1@30"; "1:5>1@36"; "1:3s>2@39"; "2:3>3@43"; "3:2>3@46";
    ]
    (List.rev !trail);
  Alcotest.(check int) "dyn ops" 46 (Block_exec.dyn_ops t);
  Alcotest.(check int) "retired ops" 37 (Block_exec.retired_ops t);
  Alcotest.(check int) "retired blocks" 8 (Block_exec.retired_blocks t);
  Alcotest.(check string) "output" "ret=0 [1; 2; 3; 4; 5; 6; 6]"
    (Output.to_string (Block_exec.output t))

(* The Runaway payload at every budget from 0 past the run's end: the
   dyn count of the first commit or squash that exceeds the budget, or
   -1 for a run that reaches its halt. *)
let test_block_budget_window () =
  let p = squash_loop () in
  let payload budget =
    match Block_exec.run p ~budget () with
    | _ -> -1
    | exception Block_exec.Runaway n -> n
  in
  Alcotest.(check (list int)) "Runaway payload at budgets 0..47"
    [
      4; 4; 4; 4; 10; 10; 10; 10; 10; 10; 13; 13; 13; 17; 17; 17; 17; 23; 23; 23; 23;
      23; 23; 26; 26; 26; 30; 30; 30; 30; 36; 36; 36; 36; 36; 36; 39; 39; 39; 43; 43;
      43; 43; 46; 46; 46; -1; -1;
    ]
    (List.init 48 payload)

let test_regfile () =
  let r = Bisa_sim.Regfile.create () in
  Bisa_sim.Regfile.set_i r (Bisa_isa.Reg.Int 5) 42;
  Alcotest.(check int) "set/get" 42 (Bisa_sim.Regfile.get_i r (Bisa_isa.Reg.Int 5));
  Bisa_sim.Regfile.set_i r Bisa_isa.Reg.zero 7;
  Alcotest.(check int) "r0 immutable" 0 (Bisa_sim.Regfile.get_i r Bisa_isa.Reg.zero);
  Bisa_sim.Regfile.set_f r (Bisa_isa.Reg.Flt 3) 2.5;
  let r2 = Bisa_sim.Regfile.copy r in
  Bisa_sim.Regfile.set_f r (Bisa_isa.Reg.Flt 3) 9.0;
  Alcotest.(check (float 0.0)) "copy isolated" 2.5
    (Bisa_sim.Regfile.get_f r2 (Bisa_isa.Reg.Flt 3))

(* Outputs compare floats by their bits, except that NaN matches NaN. *)
let test_output_equal_floats () =
  let out items = { Output.ret = 0; items = List.map (fun f -> Output.Oflt f) items } in
  let check what expect a b =
    Alcotest.(check bool) what expect (Output.equal (out a) (out b))
  in
  check "0.0 vs -0.0" false [ 0.0 ] [ -0.0 ];
  check "-0.0 vs -0.0" true [ -0.0 ] [ -0.0 ];
  check "nan vs nan" true [ Float.nan ] [ Float.nan ];
  check "nan vs -nan" true [ Float.nan ] [ -.Float.nan ];
  check "nan vs 1.0" false [ Float.nan ] [ 1.0 ];
  check "1.5 vs 1.5" true [ 1.5 ] [ 1.5 ];
  Alcotest.(check bool) "int vs float" false
    (Output.equal { ret = 0; items = [ Oint 0 ] } (out [ 0.0 ]))

let suite =
  [
    Alcotest.test_case "memory basic" `Quick test_memory_basic;
    Alcotest.test_case "memory float side" `Quick test_memory_floats_independent;
    Alcotest.test_case "memory alignment" `Quick test_memory_alignment;
    Alcotest.test_case "memory page tiers" `Quick test_memory_tiers;
    Alcotest.test_case "sbuf forwarding" `Quick test_sbuf_forwarding;
    Alcotest.test_case "sbuf clear" `Quick test_sbuf_clear_discards;
    Alcotest.test_case "conv packets" `Quick test_conv_exec_packets;
    Alcotest.test_case "conv budget" `Quick test_conv_exec_budget;
    Alcotest.test_case "block canonical" `Quick test_block_exec_canonical;
    Alcotest.test_case "block squash restores" `Quick test_block_fault_squash_restores_state;
    Alcotest.test_case "block illegal fetch" `Quick test_block_illegal_fetch_rejected;
    Alcotest.test_case "variant equivalence" `Quick test_variant_equivalence;
    Alcotest.test_case "block wild ijump traps" `Quick test_block_wild_ijump_traps;
    Alcotest.test_case "block unaligned traps" `Quick test_block_unaligned_traps;
    Alcotest.test_case "conv wild jr traps" `Quick test_conv_wild_jr_traps;
    Alcotest.test_case "block squash counters" `Quick test_block_squash_counters;
    Alcotest.test_case "block budget window" `Quick test_block_budget_window;
    Alcotest.test_case "regfile" `Quick test_regfile;
    Alcotest.test_case "output equal compares float bits" `Quick test_output_equal_floats;
  ]
