(* Optimizer tests: each pass in isolation plus end-to-end semantic
   preservation (optimized vs unoptimized executables agree with the
   interpreter). *)

open Bisa_ir
module Cmp = Bisa_isa.Cmp
module Constfold = Bisa_opt.Constfold
module Localopt = Bisa_opt.Localopt
module Dce = Bisa_opt.Dce
module Simplify_cfg = Bisa_opt.Simplify_cfg

let func_of ops term =
  {
    Ir.name = "t";
    params = [];
    ret_kind = None;
    vreg_kinds = Array.make 16 Ir.Kint;
    blocks = [| { Ir.ops; term } |];
    entry = 0;
    is_library = false;
  }

let test_constfold_ops () =
  let f =
    func_of
      [
        Ir.Bin (Ir.Add, 0, Ir.Cint 2, Ir.Cint 3);
        Ir.Bin (Ir.Mul, 1, Ir.V 0, Ir.Cint 0);
        Ir.Bin (Ir.Add, 2, Ir.V 0, Ir.Cint 0);
        Ir.Cmpset (Cmp.Lt, 3, Ir.Cint 1, Ir.Cint 2);
        Ir.Bin (Ir.Div, 4, Ir.V 0, Ir.Cint 0);
      ]
      Ir.Halt
  in
  Alcotest.(check bool) "changed" true (Constfold.run f);
  (match f.blocks.(0).ops with
  | [ Ir.Mov (0, Ir.Cint 5); Ir.Mov (1, Ir.Cint 0); Ir.Mov (2, Ir.V 0);
      Ir.Mov (3, Ir.Cint 1); Ir.Mov (4, Ir.Cint 0) ] ->
    ()
  | _ -> Alcotest.fail "unexpected fold results");
  Alcotest.(check bool) "fixpoint" false (Constfold.run f)

let test_constfold_branch () =
  let f = func_of [] (Ir.Br (Cmp.Lt, Ir.Cint 1, Ir.Cint 2, 0, 0)) in
  ignore (Constfold.run f);
  (match f.blocks.(0).term with
  | Ir.Jmp 0 -> ()
  | _ -> Alcotest.fail "branch not folded")

let test_constfold_semantics () =
  Alcotest.(check int) "div trunc" (-2) (Constfold.eval_binop Ir.Div (-5) 2);
  Alcotest.(check int) "div0" 0 (Constfold.eval_binop Ir.Div 9 0);
  Alcotest.(check int) "shift mask" 4 (Constfold.eval_binop Ir.Sll 1 66)

let test_copyprop () =
  let f =
    func_of
      [
        Ir.Mov (0, Ir.Cint 7);
        Ir.Bin (Ir.Add, 1, Ir.V 0, Ir.V 0);
        Ir.Mov (2, Ir.V 1);
        Ir.Bin (Ir.Add, 3, Ir.V 2, Ir.Cint 1);
        (* Redefining v1 must kill the v2 -> v1 binding. *)
        Ir.Mov (1, Ir.Cint 0);
        Ir.Bin (Ir.Add, 4, Ir.V 2, Ir.Cint 2);
      ]
      Ir.Halt
  in
  ignore (Localopt.copyprop f);
  (match f.blocks.(0).ops with
  | [ _; Ir.Bin (Ir.Add, 1, Ir.Cint 7, Ir.Cint 7); _;
      Ir.Bin (Ir.Add, 3, Ir.V 1, Ir.Cint 1); _;
      Ir.Bin (Ir.Add, 4, Ir.V 2, Ir.Cint 2) ] ->
    ()
  | _ -> Alcotest.fail "unexpected copyprop result")

let test_cse () =
  let f =
    func_of
      [
        Ir.Bin (Ir.Add, 1, Ir.V 0, Ir.Cint 3);
        Ir.Bin (Ir.Add, 2, Ir.V 0, Ir.Cint 3);
        (* A load is available until a store intervenes. *)
        Ir.Load (3, Ir.V 0, 8);
        Ir.Load (4, Ir.V 0, 8);
        Ir.Store (Ir.Cint 1, Ir.V 0, 16);
        Ir.Load (5, Ir.V 0, 8);
      ]
      Ir.Halt
  in
  ignore (Localopt.cse f);
  (match f.blocks.(0).ops with
  | [ _; Ir.Mov (2, Ir.V 1); _; Ir.Mov (4, Ir.V 3); _; Ir.Load (5, Ir.V 0, 8) ] -> ()
  | _ -> Alcotest.fail "unexpected cse result")

let test_cse_kill_on_redef () =
  let f =
    func_of
      [
        Ir.Bin (Ir.Add, 1, Ir.V 0, Ir.Cint 3);
        Ir.Mov (0, Ir.Cint 9);
        (* v0 changed: this is NOT the same computation. *)
        Ir.Bin (Ir.Add, 2, Ir.V 0, Ir.Cint 3);
      ]
      Ir.Halt
  in
  ignore (Localopt.cse f);
  (match f.blocks.(0).ops with
  | [ _; _; Ir.Bin (Ir.Add, 2, Ir.V 0, Ir.Cint 3) ] -> ()
  | _ -> Alcotest.fail "cse must not reuse a stale value")

let test_dce () =
  let f =
    func_of
      [
        Ir.Bin (Ir.Add, 0, Ir.Cint 1, Ir.Cint 2);  (* dead *)
        Ir.Bin (Ir.Add, 1, Ir.Cint 3, Ir.Cint 4);  (* used by the store *)
        Ir.Store (Ir.V 1, Ir.Cint 0x100, 0);       (* side effect: kept *)
        Ir.Load (2, Ir.Cint 0x100, 0);             (* dead load: removable *)
      ]
      Ir.Halt
  in
  ignore (Dce.run f);
  Alcotest.(check int) "two ops survive" 2 (List.length f.blocks.(0).ops)

let test_simplify_cfg_threading () =
  (* 0 -> 1(empty) -> 2; jump threading then merging collapses to 1 block *)
  let f =
    {
      Ir.name = "t";
      params = [];
      ret_kind = None;
      vreg_kinds = [||];
      blocks =
        [|
          { Ir.ops = []; term = Ir.Jmp 1 };
          { Ir.ops = []; term = Ir.Jmp 2 };
          { Ir.ops = []; term = Ir.Halt };
        |];
      entry = 0;
      is_library = false;
    }
  in
  while Simplify_cfg.run f do () done;
  Alcotest.(check int) "collapsed" 1 (Array.length f.blocks);
  (match f.blocks.(0).term with Ir.Halt -> () | _ -> Alcotest.fail "wrong terminator")

let test_simplify_infinite_loop_safe () =
  let f =
    {
      Ir.name = "t";
      params = [];
      ret_kind = None;
      vreg_kinds = [||];
      blocks = [| { Ir.ops = []; term = Ir.Jmp 0 } |];
      entry = 0;
      is_library = false;
    }
  in
  ignore (Simplify_cfg.run f);
  Alcotest.(check int) "still one block" 1 (Array.length f.blocks)

(* End-to-end: O0 and O1 compilations agree with the interpreter. *)
let semantic_src =
  {|
int tbl[32];
int helper(int a, int b) {
  int x = a * 3 + b;
  if (x % 7 == 0) { x = x / 2 + 5 * 0; }
  return x - b + 0;
}
int main() {
  int i;
  int acc = 0;
  for (i = 0; i < 64; i = i + 1) {
    tbl[i & 31] = helper(i, acc & 15);
    acc = acc + tbl[i & 31] + 2 * 8;
  }
  print_int(acc);
  return acc & 255;
}
|}

let exec_output prog =
  let out, _ = Bisa_sim.Conv_exec.run prog () in
  out

let test_opt_preserves_semantics () =
  let tp = Bisa_frontend.Typecheck.check (Bisa_frontend.Parser.parse semantic_src) in
  let r = Bisa_frontend.Interp.run tp in
  let expected =
    { Bisa_sim.Output.ret = r.ret;
      items =
        List.map
          (function
            | Bisa_frontend.Interp.Oint v -> Bisa_sim.Output.Oint v
            | Bisa_frontend.Interp.Oflt v -> Bisa_sim.Output.Oflt v)
          r.outputs }
  in
  List.iter
    (fun opt ->
      let c = Bisa_compiler.Compiler.compile ~opt semantic_src in
      Alcotest.(check bool) "conv matches interp" true
        (Bisa_sim.Output.equal (exec_output c.conv) expected);
      let bout, _ = Bisa_sim.Block_exec.run c.block () in
      Alcotest.(check bool) "block matches interp" true
        (Bisa_sim.Output.equal bout expected))
    [ Bisa_opt.Pipeline.O0; Bisa_opt.Pipeline.O1 ]

let test_opt_reduces_code () =
  let _, ir0 = Bisa_compiler.Compiler.frontend semantic_src in
  let _, ir1 = Bisa_compiler.Compiler.frontend semantic_src in
  Bisa_opt.Pipeline.optimize Bisa_opt.Pipeline.O0 ir0;
  Bisa_opt.Pipeline.optimize Bisa_opt.Pipeline.O1 ir1;
  let count p = List.fold_left (fun a f -> a + Ir.func_op_count f) 0 p.Ir.funcs in
  Alcotest.(check bool) "O1 is smaller" true (count ir1 < count ir0)

(* --- A folded NaN reaches a fixpoint -------------------------------------- *)

(* [z / z] folds to [Cflt nan] in round 2.  Copyprop and Simplify_cfg
   used to test for change with [<>], and [Cflt nan <> Cflt nan], so both
   reported a change in every later round and the loop ran to its cap on
   IR that no longer changed.  The emitted bytes stay those of that loop. *)
let nan_src =
  {|
float h() {
  float z = 0.0;
  return z / z;
}
int main() {
  print_float(h());
  return 0;
}
|}

let test_folded_nan_fixpoint () =
  let _, ir = Bisa_compiler.Compiler.frontend nan_src in
  Bisa_opt.Pipeline.optimize Bisa_opt.Pipeline.O1 ir;
  let h = Ir.find_func ir "h" in
  (match h.blocks with
  | [| { ops = []; term = Ir.Ret (Some (Ir.Cflt x)) } |] when Float.is_nan x -> ()
  | _ -> Alcotest.fail "h does not fold to a NaN return");
  Alcotest.(check bool) "copyprop again: no change" false (Localopt.copyprop h);
  Alcotest.(check bool) "simplify again: no change" false (Simplify_cfg.run h);
  let c = Bisa_compiler.Compiler.compile nan_src in
  Alcotest.(check (pair int64 int64)) "conv, block prog_hash"
    (0xd6b50bd45d450c23L, 0xe4778d2297ab555dL)
    (Bisa_timing.Pipeline.Conv.prog_hash c.conv, Bisa_timing.Pipeline.Block.prog_hash c.block)

(* --- The local passes against reference models ---------------------------- *)

(* Copy propagation, CSE, DCE and liveness as they were before their kill
   sets were indexed: a fresh hash table per block, whole-table folds on
   every kill and def/use lists built per op.  They stay here as
   executable specifications of the rewritten passes. *)
module Ref = struct
  module Env = struct
    type t = (int, Ir.operand) Hashtbl.t

    let create () : t = Hashtbl.create 16

    let kill_def (t : t) v =
      Hashtbl.remove t v;
      let stale =
        Hashtbl.fold (fun k value acc -> if value = Ir.V v then k :: acc else acc) t []
      in
      List.iter (Hashtbl.remove t) stale

    let subst (t : t) (o : Ir.operand) =
      match o with
      | Ir.V v -> ( match Hashtbl.find_opt t v with Some o' -> o' | None -> o)
      | _ -> o
  end

  let map_term_operands f (t : Ir.terminator) : Ir.terminator =
    match t with
    | Br (c, x, y, lt, lf) -> Br (c, f x, f y, lt, lf)
    | Call c -> Call { c with args = List.map f c.args }
    | Ret (Some x) -> Ret (Some (f x))
    | Switch (x, cases, d) -> Switch (f x, cases, d)
    | (Jmp _ | Ret None | Halt) as t -> t

  let copyprop (f : Ir.func) =
    let changed = ref false in
    Array.iter
      (fun (b : Ir.block) ->
        let env = Env.create () in
        let rewrite o =
          let o' = Env.subst env o in
          if o' <> o then changed := true;
          o'
        in
        b.ops <-
          List.map
            (fun op ->
              let op = Localopt.map_op_operands rewrite op in
              List.iter (Env.kill_def env) (Ir.op_defs op);
              (match op with
              | Mov (d, src) when src <> Ir.V d -> Hashtbl.replace env d src
              | _ -> ());
              op)
            b.ops;
        b.term <- map_term_operands rewrite b.term)
      f.blocks;
    !changed

  type key =
    | Kbin of Ir.binop * Ir.operand * Ir.operand
    | Kfbin of Ir.fbinop * Ir.operand * Ir.operand
    | Kcmp of Cmp.t * Ir.operand * Ir.operand
    | Kfcmp of Cmp.t * Ir.operand * Ir.operand
    | Kitof of Ir.operand
    | Kftoi of Ir.operand
    | Kgaddr of string
    | Kload of Ir.operand * int
    | Kloadf of Ir.operand * int

  let key_of_op (op : Ir.op) : (key * Ir.vreg) option =
    match op with
    | Bin (b, d, x, y) -> Some (Kbin (b, x, y), d)
    | Fbin (b, d, x, y) -> Some (Kfbin (b, x, y), d)
    | Cmpset (c, d, x, y) -> Some (Kcmp (c, x, y), d)
    | Fcmpset (c, d, x, y) -> Some (Kfcmp (c, x, y), d)
    | Itof (d, x) -> Some (Kitof x, d)
    | Ftoi (d, x) -> Some (Kftoi x, d)
    | Gaddr (d, g) -> Some (Kgaddr g, d)
    | Load (d, b, off) -> Some (Kload (b, off), d)
    | Loadf (d, b, off) -> Some (Kloadf (b, off), d)
    | Mov _ | Select _ | Store _ | Storef _ | Print _ | Printflt _ -> None

  let key_is_load = function Kload _ | Kloadf _ -> true | _ -> false

  let key_reads_vreg v = function
    | Kbin (_, x, y) | Kfbin (_, x, y) | Kcmp (_, x, y) | Kfcmp (_, x, y) ->
      x = Ir.V v || y = Ir.V v
    | Kitof x | Kftoi x -> x = Ir.V v
    | Kgaddr _ -> false
    | Kload (b, _) | Kloadf (b, _) -> b = Ir.V v

  let cse (f : Ir.func) =
    let changed = ref false in
    Array.iter
      (fun (b : Ir.block) ->
        let avail : (key, Ir.vreg) Hashtbl.t = Hashtbl.create 16 in
        let kill_vreg v =
          let stale =
            Hashtbl.fold
              (fun k holder acc -> if holder = v || key_reads_vreg v k then k :: acc else acc)
              avail []
          in
          List.iter (Hashtbl.remove avail) stale
        in
        let kill_loads () =
          let stale =
            Hashtbl.fold (fun k _ acc -> if key_is_load k then k :: acc else acc) avail []
          in
          List.iter (Hashtbl.remove avail) stale
        in
        b.ops <-
          List.map
            (fun op ->
              if Ir.op_defs op = [] then begin
                (match op with Store _ | Storef _ -> kill_loads () | _ -> ());
                op
              end
              else begin
                match key_of_op op with
                | Some (k, d) -> begin
                  let self_reading = key_reads_vreg d k in
                  match Hashtbl.find_opt avail k with
                  | Some prev when prev <> d ->
                    changed := true;
                    kill_vreg d;
                    if not self_reading then Hashtbl.replace avail k d;
                    Ir.Mov (d, Ir.V prev)
                  | _ ->
                    kill_vreg d;
                    if not self_reading then Hashtbl.replace avail k d;
                    op
                end
                | None ->
                  List.iter kill_vreg (Ir.op_defs op);
                  op
              end)
            b.ops)
      f.blocks;
    !changed

  let block_use_def nv (b : Ir.block) =
    let use = Bitset.create nv and def = Bitset.create nv in
    let visit_uses vs = List.iter (fun v -> if not (Bitset.mem def v) then Bitset.add use v) vs in
    let visit_defs vs = List.iter (fun v -> Bitset.add def v) vs in
    List.iter
      (fun op ->
        visit_uses (Ir.op_uses op);
        visit_defs (Ir.op_defs op))
      b.ops;
    visit_uses (Ir.term_uses b.term);
    visit_defs (Ir.term_defs b.term);
    (use, def)

  let liveness (f : Ir.func) =
    let n = Array.length f.blocks and nv = Array.length f.vreg_kinds in
    let ud = Array.map (block_use_def nv) f.blocks in
    let live_in = Array.init n (fun _ -> Bitset.create nv) in
    let live_out = Array.init n (fun _ -> Bitset.create nv) in
    let changed = ref true in
    while !changed do
      changed := false;
      for i = n - 1 downto 0 do
        List.iter
          (fun s -> if Bitset.union_into ~dst:live_out.(i) live_in.(s) then changed := true)
          (Ir.successors f.blocks.(i).term);
        let use, def = ud.(i) in
        if Bitset.transfer ~dst:live_in.(i) ~gen:use ~kill:def live_out.(i) then changed := true
      done
    done;
    (live_in, live_out)

  let has_side_effect (op : Ir.op) =
    match op with Store _ | Storef _ | Print _ | Printflt _ -> true | _ -> false

  let dce (f : Ir.func) =
    let _, live_out = liveness f in
    let changed = ref false in
    Array.iteri
      (fun i (b : Ir.block) ->
        let live_now = Bitset.copy live_out.(i) in
        List.iter (fun v -> Bitset.add live_now v) (Ir.term_uses b.term);
        b.ops <-
          List.fold_left
            (fun acc op ->
              let defs = Ir.op_defs op in
              if has_side_effect op || defs = [] || List.exists (fun v -> Bitset.mem live_now v) defs
              then begin
                List.iter (fun v -> Bitset.remove live_now v) defs;
                List.iter (fun v -> Bitset.add live_now v) (Ir.op_uses op);
                op :: acc
              end
              else begin
                changed := true;
                acc
              end)
            [] (List.rev b.ops))
      f.blocks;
    !changed
end

let has_nan (f : Ir.func) =
  let found = ref false in
  let look o =
    (match o with Ir.Cflt x when Float.is_nan x -> found := true | _ -> ());
    o
  in
  Array.iter
    (fun (b : Ir.block) ->
      List.iter (fun op -> ignore (Localopt.map_op_operands look op)) b.ops;
      ignore (Ref.map_term_operands look b.term))
    f.blocks;
  !found

(* Blocks compared as bytes, so floats compare by their bits. *)
let same_blocks (a : Ir.func) (b : Ir.func) =
  Marshal.to_string a.blocks [ Marshal.No_sharing ]
  = Marshal.to_string b.blocks [ Marshal.No_sharing ]

(* [Pipeline.optimize_func]'s round loop on two copies of [f], the real
   passes on one and the reference models on the other; after every pass
   the IR and the [changed] flag must agree, and before every DCE so must
   liveness.  Stops at the first folded NaN (the one intended flag
   difference, covered above); returns whether the loop ran to its end. *)
let differential ~what (f : Ir.func) =
  let copy (f : Ir.func) =
    { f with blocks = Array.map (fun (b : Ir.block) -> { b with Ir.ops = b.ops }) f.blocks }
  in
  let a = copy f and b = copy f in
  let fail fmt = Alcotest.failf ("%s, %s: " ^^ fmt) what f.name in
  let step name real model =
    if has_nan b then raise Exit;
    let ca = real a and cb = model b in
    if ca <> cb then fail "%s reported changed=%b, its reference %b" name ca cb;
    if not (same_blocks a b) then fail "%s rewrote the IR unlike its reference" name;
    ca
  in
  let same_liveness () =
    let live = Liveness.analyze a and ref_in, ref_out = Ref.liveness b in
    Array.iteri
      (fun i _ ->
        if not (Bitset.equal live.live_in.(i) ref_in.(i) && Bitset.equal live.live_out.(i) ref_out.(i))
        then fail "liveness of L%d differs from its reference" i)
      a.blocks
  in
  let rec round i =
    let c1 = step "constfold" Constfold.run Constfold.run in
    let c2 = step "copyprop" Localopt.copyprop Ref.copyprop in
    let c3 = step "cse" Localopt.cse Ref.cse in
    same_liveness ();
    let c4 = step "dce" Dce.run Ref.dce in
    let c5 = step "simplify" Simplify_cfg.run Simplify_cfg.run in
    if (c1 || c2 || c3 || c4 || c5) && i < 8 then round (i + 1)
  in
  match round 1 with () -> true | exception Exit -> false

(* Every kill rule, on IR that lowered MiniC does not produce (lowering
   computes into temporaries and moves them, so copy propagation rewrites
   a redefined vreg's later reads before CSE sees them): a copy whose
   source is redefined, a key whose ingredient a load redefines, a load
   repeated across a store, and bindings and keys that must not outlive
   their block. *)
let kill_rules_func () =
  {
    Ir.name = "kill_rules";
    params = [ 0; 1; 2; 3; 4 ];
    ret_kind = Some Ir.Kint;
    vreg_kinds = Array.make 16 Ir.Kint;
    blocks =
      [|
        {
          Ir.ops =
            [
              Ir.Mov (5, Ir.V 0);
              Ir.Mov (0, Ir.V 1);
              Ir.Bin (Ir.Add, 6, Ir.V 5, Ir.Cint 1);
              Ir.Bin (Ir.Mul, 7, Ir.V 2, Ir.V 3);
              Ir.Load (2, Ir.V 4, 0);
              Ir.Bin (Ir.Mul, 8, Ir.V 2, Ir.V 3);
              Ir.Load (9, Ir.V 4, 8);
              Ir.Store (Ir.V 8, Ir.V 4, 16);
              Ir.Load (10, Ir.V 4, 8);
              Ir.Mov (11, Ir.Cint 4);
              Ir.Bin (Ir.Mul, 12, Ir.V 3, Ir.V 3);
              Ir.Print (Ir.V 6);
              Ir.Print (Ir.V 7);
              Ir.Print (Ir.V 9);
              Ir.Print (Ir.V 10);
              Ir.Print (Ir.V 12);
            ];
          term = Ir.Jmp 1;
        };
        {
          Ir.ops = [ Ir.Bin (Ir.Add, 13, Ir.V 11, Ir.V 0); Ir.Bin (Ir.Mul, 14, Ir.V 3, Ir.V 3) ];
          term = Ir.Br (Cmp.Lt, Ir.V 13, Ir.V 14, 1, 2);
        };
        { Ir.ops = [ Ir.Print (Ir.V 14) ]; term = Ir.Ret (Some (Ir.V 13)) };
      |];
    entry = 0;
    is_library = false;
  }

let test_passes_match_reference () =
  let compared = ref 0 in
  let check ~what ?(inline = false) ?(ifconvert = false) ?library_funcs src =
    let _, ir = Bisa_compiler.Compiler.frontend ?library_funcs src in
    if inline then ignore (Bisa_opt.Inline.run ir : int);
    if ifconvert then ignore (Bisa_opt.Ifconvert.run_program ir : int);
    if List.for_all (differential ~what) ir.funcs then incr compared
  in
  for i = 0 to 119 do
    check ~what:(Printf.sprintf "Gen program %d" i)
      (Bisa_check.Gen.render (Bisa_check.Gen.generate (Bisa_base.Rng.derive 7 i)))
  done;
  let gen = !compared in
  if differential ~what:"kill rules" (kill_rules_func ()) then incr compared;
  List.iter
    (fun name ->
      let w = Bisa_workloads.Workloads.find name in
      let src = Bisa_workloads.Workloads.source w and library_funcs = w.library_funcs in
      check ~what:name ~library_funcs src;
      check ~what:(name ^ " inlined, if-converted") ~inline:true ~ifconvert:true ~library_funcs src)
    ("scientific" :: Bisa_workloads.Workloads.names);
  Alcotest.(check bool) (Printf.sprintf "%d Gen programs compared" gen) true (gen >= 100);
  Alcotest.(check int) "every other program compared" (gen + 19) !compared

let suite =
  [
    Alcotest.test_case "constfold ops" `Quick test_constfold_ops;
    Alcotest.test_case "constfold branch" `Quick test_constfold_branch;
    Alcotest.test_case "constfold semantics" `Quick test_constfold_semantics;
    Alcotest.test_case "copyprop" `Quick test_copyprop;
    Alcotest.test_case "cse" `Quick test_cse;
    Alcotest.test_case "cse kill on redef" `Quick test_cse_kill_on_redef;
    Alcotest.test_case "dce" `Quick test_dce;
    Alcotest.test_case "cfg threading" `Quick test_simplify_cfg_threading;
    Alcotest.test_case "cfg infinite loop" `Quick test_simplify_infinite_loop_safe;
    Alcotest.test_case "opt preserves semantics" `Quick test_opt_preserves_semantics;
    Alcotest.test_case "opt reduces code" `Quick test_opt_reduces_code;
    Alcotest.test_case "folded NaN reaches a fixpoint" `Quick test_folded_nan_fixpoint;
    Alcotest.test_case "passes match reference models" `Quick test_passes_match_reference;
  ]
