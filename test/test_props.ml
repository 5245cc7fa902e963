(* Property-based tests (qcheck): random programs through the whole
   compiler vs the reference interpreter, plus invariants of the core
   data structures. *)

module Q = QCheck
module Rng = Bisa_base.Rng

(* --- Random MiniC program generation --------------------------------------- *)

(* Expressions over the in-scope integer variables; all operators, with
   semantics fully defined (zero divides yield 0, shifts masked). *)
let rec gen_expr rng depth vars =
  if depth = 0 || Rng.int rng 10 < 3 then begin
    if Rng.bool rng && vars <> [] then Rng.choose rng (Array.of_list vars)
    else string_of_int (Rng.int_in rng (-100) 100)
  end
  else begin
    let a = gen_expr rng (depth - 1) vars in
    let b = gen_expr rng (depth - 1) vars in
    match Rng.int rng 16 with
    | 0 -> Printf.sprintf "(%s + %s)" a b
    | 1 -> Printf.sprintf "(%s - %s)" a b
    | 2 -> Printf.sprintf "(%s * %s)" a b
    | 3 -> Printf.sprintf "(%s / %s)" a b
    | 4 -> Printf.sprintf "(%s %% %s)" a b
    | 5 -> Printf.sprintf "(%s & %s)" a b
    | 6 -> Printf.sprintf "(%s | %s)" a b
    | 7 -> Printf.sprintf "(%s ^ %s)" a b
    | 8 -> Printf.sprintf "(%s << (%s & 7))" a b
    | 9 -> Printf.sprintf "(%s >> (%s & 7))" a b
    | 10 -> Printf.sprintf "(%s < %s)" a b
    | 11 -> Printf.sprintf "(%s == %s)" a b
    | 12 -> Printf.sprintf "(%s && %s)" a b
    | 13 -> Printf.sprintf "(%s || %s)" a b
    | 14 -> Printf.sprintf "(-%s)" a
    | _ -> Printf.sprintf "(!%s)" a
  end

(* [vars] may be read anywhere; only [assignable] may be written — loop
   counters are read-only so every loop provably terminates. *)
let rec gen_stmts rng depth vars assignable budget =
  if budget <= 0 then []
  else begin
    let stmt, vars', assignable' =
      match Rng.int rng 10 with
      | 0 | 1 | 2 | 3 ->
        let v = Printf.sprintf "x%d" (List.length vars) in
        (Printf.sprintf "int %s = %s;" v (gen_expr rng 3 vars), v :: vars, v :: assignable)
      | 4 | 5 when assignable <> [] ->
        let v = Rng.choose rng (Array.of_list assignable) in
        (Printf.sprintf "%s = %s;" v (gen_expr rng 3 vars), vars, assignable)
      | 6 when depth > 0 ->
        let body = gen_stmts rng (depth - 1) vars assignable (budget / 2) in
        let els = gen_stmts rng (depth - 1) vars assignable (budget / 2) in
        ( Printf.sprintf "if (%s) { %s } else { %s }" (gen_expr rng 2 vars)
            (String.concat " " body) (String.concat " " els),
          vars, assignable )
      | 7 when depth > 0 ->
        (* Bounded loop; the counter is not assignable inside. *)
        let v = Printf.sprintf "i%d" (List.length vars) in
        let body = gen_stmts rng (depth - 1) (v :: vars) assignable (budget / 2) in
        ( Printf.sprintf "for (int %s = 0; %s < %d; %s = %s + 1) { %s }" v v
            (Rng.int_in rng 1 8) v v (String.concat " " body),
          vars, assignable )
      | _ when vars <> [] ->
        (Printf.sprintf "print_int(%s);" (gen_expr rng 2 vars), vars, assignable)
      | _ -> ("print_int(7);", vars, assignable)
    in
    stmt :: gen_stmts rng depth vars' assignable' (budget - 1)
  end

let gen_program seed =
  let rng = Rng.create seed in
  let body = gen_stmts rng 2 [] [] 10 in
  Printf.sprintf "int main() { %s return 0; }" (String.concat " " body)

let outputs_of_interp src =
  let tp = Bisa_frontend.Typecheck.check (Bisa_frontend.Parser.parse src) in
  let r = Bisa_frontend.Interp.run ~fuel:50_000_000 tp in
  {
    Bisa_sim.Output.ret = r.ret;
    items =
      List.map
        (function
          | Bisa_frontend.Interp.Oint v -> Bisa_sim.Output.Oint v
          | Bisa_frontend.Interp.Oflt v -> Bisa_sim.Output.Oflt v)
        r.outputs;
  }

let prop_compiler_differential =
  Q.Test.make ~count:60 ~name:"random program: interp = conv exec = block exec"
    Q.(int_bound 1_000_000)
    (fun seed ->
      let src = gen_program seed in
      let expected = outputs_of_interp src in
      let c = Bisa_compiler.Compiler.compile src in
      let conv, _ = Bisa_sim.Conv_exec.run c.conv () in
      let block, _ = Bisa_sim.Block_exec.run c.block () in
      if not (Bisa_sim.Output.equal conv expected) then
        Q.Test.fail_reportf "conv mismatch on seed %d:\n%s\nconv:   %s\ninterp: %s" seed
          src
          (Bisa_sim.Output.to_string conv)
          (Bisa_sim.Output.to_string expected);
      if not (Bisa_sim.Output.equal block expected) then
        Q.Test.fail_reportf "block mismatch on seed %d:\n%s\nblock:  %s\ninterp: %s" seed
          src
          (Bisa_sim.Output.to_string block)
          (Bisa_sim.Output.to_string expected);
      true)

let prop_unopt_equals_opt =
  Q.Test.make ~count:40 ~name:"random program: O0 = O1"
    Q.(int_bound 1_000_000)
    (fun seed ->
      let src = gen_program (seed + 7_000_000) in
      let c0 = Bisa_compiler.Compiler.compile ~opt:Bisa_opt.Pipeline.O0 src in
      let c1 = Bisa_compiler.Compiler.compile ~opt:Bisa_opt.Pipeline.O1 src in
      let o0, _ = Bisa_sim.Conv_exec.run c0.conv () in
      let o1, _ = Bisa_sim.Conv_exec.run c1.conv () in
      Bisa_sim.Output.equal o0 o1)

(* --- Enlargement invariants -------------------------------------------------- *)

let prop_enlargement_invariants =
  Q.Test.make ~count:40 ~name:"enlargement: size/fault bounds on random programs"
    Q.(int_bound 1_000_000)
    (fun seed ->
      let src = gen_program (seed + 3_000_000) in
      let c = Bisa_compiler.Compiler.compile src in
      Array.for_all
        (fun (b : int Bisa_isa.Ablock.t) ->
          Bisa_isa.Ablock.size b <= 16 && Bisa_isa.Ablock.fault_count b <= 2)
        c.block.blocks)

let prop_variant_groups_consistent =
  Q.Test.make ~count:25 ~name:"variant groups are symmetric and contain their reps"
    Q.(int_bound 1_000_000)
    (fun seed ->
      let src = gen_program (seed + 5_000_000) in
      let c = Bisa_compiler.Compiler.compile src in
      let ok = ref true in
      Array.iteri
        (fun b group ->
          if not (Array.exists (fun x -> x = b) group) then ok := false;
          Array.iter
            (fun v ->
              if not (Array.exists (fun x -> x = b) c.block.variant_group.(v)) then
                ok := false)
            group)
        c.block.variant_group;
      !ok)

(* --- Parallel moves ------------------------------------------------------------ *)

let prop_parallel_moves =
  Q.Test.make ~count:200 ~name:"parallel moves realize any assignment"
    Q.(int_bound 1_000_000)
    (fun seed ->
      let rng = Rng.create seed in
      let module Reg = Bisa_isa.Reg in
      let n = 1 + Rng.int rng 6 in
      let dsts = Array.init n (fun i -> Reg.Int (4 + i)) in
      let srcs = Array.init n (fun _ -> Reg.Int (4 + Rng.int rng 8)) in
      let pairs = Array.to_list (Array.map2 (fun d s -> (d, s)) dsts srcs) in
      let seq = Bisa_backend.Isel.parallel_moves pairs ~scratch:Reg.at in
      (* Simulate. *)
      let value = Hashtbl.create 16 in
      for i = 0 to 11 do
        Hashtbl.replace value (Reg.Int (4 + i)) (100 + i)
      done;
      Hashtbl.replace value Reg.at (-1);
      let expected =
        List.map (fun (d, s) -> (d, Hashtbl.find value s)) pairs
      in
      List.iter (fun (d, s) -> Hashtbl.replace value d (Hashtbl.find value s)) seq;
      List.for_all (fun (d, v) -> Hashtbl.find value d = v) expected)

(* --- Digraph dominators --------------------------------------------------------- *)

let prop_dominators =
  Q.Test.make ~count:100 ~name:"entry dominates every reachable node"
    Q.(int_bound 1_000_000)
    (fun seed ->
      let rng = Rng.create seed in
      let n = 2 + Rng.int rng 12 in
      let succs = Array.init n (fun _ ->
          List.init (Rng.int rng 3) (fun _ -> Rng.int rng n))
      in
      let g = Bisa_base.Digraph.create ~nodes:n ~succ:(fun i -> succs.(i)) ~entry:0 in
      let reach = Bisa_base.Digraph.reachable g in
      let idom = Bisa_base.Digraph.idom g in
      let ok = ref true in
      for v = 0 to n - 1 do
        if reach.(v) then begin
          if not (Bisa_base.Digraph.dominates g 0 v) then ok := false;
          (* The immediate dominator of a reachable non-entry node is
             reachable and dominates it. *)
          if v <> 0 then begin
            if idom.(v) < 0 then ok := false
            else if not (Bisa_base.Digraph.dominates g idom.(v) v) then ok := false
          end
        end
      done;
      !ok)

(* --- Bitset vs reference sets ---------------------------------------------------- *)

module Iset = Set.Make (Int)

module Bitset = Bisa_ir.Bitset

(* Sizes that straddle the first two word edges of the int-word
   representation, plus an empty set and a multi-word one. *)
let bitset_sizes =
  let w = Sys.int_size in
  [ 0; 1; w - 1; w; w + 1; (2 * w) - 1; 2 * w; (2 * w) + 1; 200 ]

(* A bitset and its reference, filled by the same random adds and removes. *)
let random_pair rng n =
  let bs = Bitset.create n in
  let reference = ref Iset.empty in
  if n > 0 then
    for _ = 1 to 2 * n do
      let v = Rng.int rng n in
      if Rng.bool rng then begin
        Bitset.add bs v;
        reference := Iset.add v !reference
      end
      else begin
        Bitset.remove bs v;
        reference := Iset.remove v !reference
      end
    done;
  (bs, !reference)

let prop_bitset =
  Q.Test.make ~count:200 ~name:"bitset matches Set"
    Q.(int_bound 1_000_000)
    (fun seed ->
      let rng = Rng.create seed in
      List.for_all
        (fun n ->
          let a, ra = random_pair rng n and b, rb = random_pair rng n in
          let c, rc = random_pair rng n and d, rd = random_pair rng n in
          let matches bs r = Bitset.elements bs = Iset.elements r in
          let iterated bs =
            let acc = ref [] in
            Bitset.iter bs (fun v -> acc := v :: !acc);
            List.rev !acc
          in
          let members bs = List.filter (Bitset.mem bs) (List.init n Fun.id) in
          let a0 = Bitset.copy a in
          let u = Bitset.copy a in
          let union_changed = Bitset.union_into ~dst:u b in
          let ru = Iset.union ra rb in
          (* dst := gen ∪ (src \ kill), over a dst that held [d]. *)
          let t = Bitset.copy d in
          let transfer_changed = Bitset.transfer ~dst:t ~gen:a ~kill:c b in
          let rt = Iset.union ra (Iset.diff rb rc) in
          matches a ra && matches b rb && matches c rc && matches d rd
          && iterated a = Iset.elements ra
          && members a = Iset.elements ra
          && Bitset.cardinal a = Iset.cardinal ra
          && matches a0 ra
          && Bitset.equal a0 a
          && Bitset.equal a b = Iset.equal ra rb
          && matches u ru
          && union_changed = not (Iset.equal ru ra)
          && (not (Bitset.union_into ~dst:u b))
          && matches t rt
          && transfer_changed = not (Iset.equal rt rd)
          && (not (Bitset.transfer ~dst:t ~gen:a ~kill:c b))
          && matches a ra)
        bitset_sizes)

(* --- Liveness vs a reference fixpoint ---------------------------------------- *)

module Ir = Bisa_ir.Ir

(* Live variables recomputed with [Set.Make (Int)]: per-block uses
   before any definition, then out = ∪ in(successors) and
   in = use ∪ (out \ def) iterated until nothing changes. *)
let reference_liveness (f : Ir.func) =
  let n = Array.length f.blocks in
  let use_def (b : Ir.block) =
    let step (use, def) (uses, defs) =
      let use = List.fold_left (fun u v -> if Iset.mem v def then u else Iset.add v u) use uses in
      (use, List.fold_left (fun d v -> Iset.add v d) def defs)
    in
    let acc =
      List.fold_left (fun acc op -> step acc (Ir.op_uses op, Ir.op_defs op)) (Iset.empty, Iset.empty) b.ops
    in
    step acc (Ir.term_uses b.term, Ir.term_defs b.term)
  in
  let ud = Array.map use_def f.blocks in
  let live_in = Array.make n Iset.empty and live_out = Array.make n Iset.empty in
  let changed = ref true in
  while !changed do
    changed := false;
    for i = 0 to n - 1 do
      let out =
        List.fold_left (fun acc s -> Iset.union acc live_in.(s)) Iset.empty
          (Ir.successors f.blocks.(i).term)
      in
      let use, def = ud.(i) in
      let in_ = Iset.union use (Iset.diff out def) in
      if not (Iset.equal out live_out.(i) && Iset.equal in_ live_in.(i)) then begin
        live_out.(i) <- out;
        live_in.(i) <- in_;
        changed := true
      end
    done
  done;
  (live_in, live_out)

let liveness_agrees (f : Ir.func) =
  let live = Bisa_ir.Liveness.analyze f in
  let ref_in, ref_out = reference_liveness f in
  let same bs r = Bitset.elements bs = Iset.elements r in
  let ok = ref true in
  Array.iteri
    (fun i _ -> if not (same live.live_in.(i) ref_in.(i) && same live.live_out.(i) ref_out.(i)) then ok := false)
    f.blocks;
  !ok

let prop_liveness_reference =
  Q.Test.make ~count:60 ~name:"liveness matches a Set fixpoint"
    Q.(int_bound 1_000_000)
    (fun seed ->
      let src = Bisa_check.Gen.render (Bisa_check.Gen.generate (Rng.create seed)) in
      let _, ir = Bisa_compiler.Compiler.frontend src in
      let before = List.for_all liveness_agrees ir.funcs in
      Bisa_opt.Pipeline.optimize Bisa_opt.Pipeline.O1 ir;
      if not (before && List.for_all liveness_agrees ir.funcs) then
        Q.Test.fail_reportf "liveness differs from the reference on seed %d:\n%s" seed src;
      true)

(* Encode/decode is the identity on every workload surrogate, for both
   ISAs: the decoded program re-encodes to the same bytes and prints the
   same disassembly.  (Byte-level fixpoint is the strong form — any field
   the decoder dropped or mangled would change the second encoding.) *)
let test_workload_roundtrip_identity () =
  List.iter
    (fun w ->
      let c = Bisa_workloads.Workloads.compile ~scale:1 w in
      let module E = Bisa_isa.Encode in
      let cbytes = E.conv_to_bytes c.Bisa_compiler.Compiler.conv in
      let conv' = E.conv_of_bytes cbytes in
      Alcotest.(check string)
        (w.Bisa_workloads.Workloads.name ^ ": conv bytes fixpoint")
        cbytes (E.conv_to_bytes conv');
      Alcotest.(check string)
        (w.Bisa_workloads.Workloads.name ^ ": conv disassembly identical")
        (Bisa_isa.Conv_prog.to_string c.Bisa_compiler.Compiler.conv)
        (Bisa_isa.Conv_prog.to_string conv');
      let bbytes = E.block_to_bytes c.Bisa_compiler.Compiler.block in
      let block' = E.block_of_bytes bbytes in
      Alcotest.(check string)
        (w.Bisa_workloads.Workloads.name ^ ": block bytes fixpoint")
        bbytes (E.block_to_bytes block');
      Alcotest.(check string)
        (w.Bisa_workloads.Workloads.name ^ ": block disassembly identical")
        (Bisa_isa.Block_prog.to_string c.Bisa_compiler.Compiler.block)
        (Bisa_isa.Block_prog.to_string block'))
    (Bisa_workloads.Workloads.all @ [ Bisa_workloads.Workloads.scientific ])

let suite =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_compiler_differential;
      prop_unopt_equals_opt;
      prop_enlargement_invariants;
      prop_variant_groups_consistent;
      prop_parallel_moves;
      prop_dominators;
      prop_bitset;
      prop_liveness_reference;
    ]
  @ [
      Alcotest.test_case "encode roundtrip identity on every workload" `Quick
        test_workload_roundtrip_identity;
    ]
