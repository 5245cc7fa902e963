(* Static well-formedness verification for both ISAs.  Every rule reports
   a structured diagnostic whose message starts with the rule id; the
   checkers themselves are total on arbitrary decoded input (no array
   access is performed before the quantity indexing it has been checked,
   or without an explicit bound), because they run on the untrusted side
   of the decode boundary. *)

module Diag = Bisa_base.Diag
module Reg = Bisa_isa.Reg
module Op = Bisa_isa.Op
module Insn = Bisa_isa.Insn
module Ablock = Bisa_isa.Ablock
module Block_prog = Bisa_isa.Block_prog
module Conv_prog = Bisa_isa.Conv_prog

type verified_block_prog = Block_prog.t
type verified_conv_prog = Conv_prog.t

let spf = Printf.sprintf

(* The linker's formula (paper section 4.3): history bits for n distinct
   successors, clamped to the predictor's 1..3 range. *)
let succ_log2_of_count n =
  let rec bits acc = if 1 lsl acc >= n then acc else bits (acc + 1) in
  max 1 (min 3 (bits 0))

let rule_of (d : Diag.t) =
  match String.index_opt d.message ':' with
  | Some i -> String.sub d.message 0 i
  | None -> ""

(* Diagnostics accumulate in reverse; every helper closes over [ds].
   [emit] takes a pre-rendered message so one binding serves every rule's
   argument shape. *)
let collector component =
  let ds = ref [] in
  let emit rule msg = ds := Diag.error ~component (rule ^ ": " ^ msg) :: !ds in
  (ds, emit)

(* [where ()] renders the location a diagnostic names; it runs only when
   a rule fires, so a clean program formats no location at all. *)
let check_reg emit ~where r =
  let (Reg.Int i | Reg.Flt i) = r in
  if i < 0 || i >= Reg.count then
    emit "reg-range"
      (spf "%s: register index %d outside 0..%d (fix: re-encode with a real register)"
         (where ()) i (Reg.count - 1))

(* The executor reads each operand through the register class the
   operation implies (integer vs float register file); a class mismatch
   would raise inside the register file instead of computing.  This
   mirrors Opsem.exec operand for operand. *)
let class_violation (op : Op.t) =
  let i r = Reg.is_int r in
  let f r = not (Reg.is_int r) in
  let ok =
    match op with
    | Op.Nop -> true
    | Op.Mov (d, s) -> i d = i s
    | Op.Li (d, _) -> i d
    | Op.Lif (d, _) -> f d
    | Op.Alu (_, d, s1, s2) ->
      i d && i s1 && (match s2 with Op.R r -> i r | Op.I _ -> true)
    | Op.Fpu (_, d, s1, s2) -> f d && f s1 && f s2
    | Op.Fcmp (_, d, s1, s2) -> i d && f s1 && f s2
    | Op.Itof (d, s) -> f d && i s
    | Op.Ftoi (d, s) -> i d && f s
    | Op.Select (_, d, s1, s2, t, fl) ->
      i s1
      && (match s2 with Op.R r -> i r | Op.I _ -> true)
      && i t = i d && i fl = i d
    | Op.Load (d, b, _) -> i d && i b
    | Op.Loadf (d, b, _) -> f d && i b
    | Op.Store (s, b, _) -> i s && i b
    | Op.Storef (s, b, _) -> f s && i b
    | Op.Print s -> i s
    | Op.Printf s -> f s
  in
  not ok

let check_int emit ~where what r =
  if not (Reg.is_int r) then
    emit "reg-class"
      (spf "%s: %s operand %s must be an integer register (fix: re-encode the class bit)"
         (where ()) what (Reg.to_string r))

let check_op_regs emit ~where op =
  List.iter (check_reg emit ~where) (Op.defs op);
  List.iter (check_reg emit ~where) (Op.uses op);
  if class_violation op then
    emit "reg-class"
      (spf "%s: %s mixes integer and float register classes (fix: re-encode the class bits)"
         (where ()) (Op.to_string op))

(* r31 may be written only by call terminators (hardware) and the
   epilogue reload [Load r31, sp+off] (the compiler's save/restore
   idiom); any other body definition would let arbitrary data become a
   return target without the stack discipline that makes it a block id. *)
let ra_ok (op : Op.t) =
  if not (List.exists (Reg.equal Reg.ra) (Op.defs op)) then true
  else
    match op with
    | Op.Load (d, base, _) -> Reg.equal d Reg.ra && Reg.equal base Reg.sp
    | _ -> false

(* --- Block-structured programs ------------------------------------------- *)

let block_diags (p : Block_prog.t) =
  let ds, emit = collector "verify.block" in
  let nblocks = Array.length p.blocks in
  let in_range b = b >= 0 && b < nblocks in
  let target ~where what l =
    if not (in_range l) then
      emit "target-range"
        (spf "%s: %s target %d is not a block id in 0..%d (fix: relink)" (where ()) what l
           (nblocks - 1))
  in
  if not (in_range p.entry) then
    emit "entry-range"
      (spf "entry: block id %d is not in 0..%d (fix: point entry at a real block)"
         p.entry (nblocks - 1));
  if p.data_base land 7 <> 0 then
    emit "data-base-align"
      (spf "data: base address 0x%x is not 8-byte aligned (fix: align the data segment)"
         p.data_base);
  List.iter
    (fun (name, b) ->
      if not (in_range b) then
        emit "symbol-range"
          (spf "symbol %s: block id %d is not in 0..%d (fix: relink the symbol table)"
             name b (nblocks - 1)))
    p.symbols;
  (* Per-block structural rules. *)
  Array.iteri
    (fun bi (blk : int Ablock.t) ->
      let at k () = spf "block %d op %d" bi k in
      let size = Ablock.size blk in
      if size > 16 then
        emit "block-size"
          (spf "block %d: %d operations exceed the 16-wide issue limit (fix: split the block)"
             bi size);
      let faults = Ablock.fault_count blk in
      if faults > 2 then
        emit "fault-count"
          (spf
             "block %d: %d fault operations exceed the limit of 2 (enlargement rule 2) (fix: stop merging at two faults)"
             bi faults);
      Array.iteri
        (fun k elt ->
          let w = at k in
          match elt with
          | Ablock.Op op ->
            check_op_regs emit ~where:w op;
            if not (ra_ok op) then
              emit "ra-discipline"
                (spf
                   "%s: %s writes r31; only call terminators and 'load r31, sp+off' may (fix: use another register)"
                   (w ()) (Op.to_string op))
          | Ablock.Fault (_, r1, r2, l) ->
            check_reg emit ~where:w r1;
            check_reg emit ~where:w r2;
            check_int emit ~where:w "fault" r1;
            check_int emit ~where:w "fault" r2;
            target ~where:w "fault" l)
        blk.Ablock.elts;
      let wt = at (Array.length blk.Ablock.elts) in
      match blk.Ablock.term with
      | Ablock.Trap { rs1; rs2; taken; not_taken; succ_log2; _ } ->
        check_reg emit ~where:wt rs1;
        check_reg emit ~where:wt rs2;
        check_int emit ~where:wt "trap" rs1;
        check_int emit ~where:wt "trap" rs2;
        target ~where:wt "trap taken" taken;
        target ~where:wt "trap not-taken" not_taken;
        if succ_log2 < 1 || succ_log2 > 3 then
          emit "succ-log2"
            (spf "%s: succ_log2 %d outside 1..3 (fix: clamp to the predictor's history width)"
               (wt ()) succ_log2)
      | Ablock.Goto l -> target ~where:wt "goto" l
      | Ablock.Call { callee; ret_to } ->
        target ~where:wt "call" callee;
        target ~where:wt "return-to" ret_to
      | Ablock.Return -> ()
      | Ablock.Ijump r ->
        check_reg emit ~where:wt r;
        check_int emit ~where:wt "ijump" r
      | Ablock.Halt -> ())
    p.blocks;
  (* Successor structure: shape first, then contents; the content rules
     run only at indexes the shape rule proved exist. *)
  let shape_ok = ref true in
  if Array.length p.succ_struct <> nblocks then begin
    shape_ok := false;
    emit "succ-shape"
      (spf "succ_struct: %d entries for %d blocks (fix: one successor record per block)"
         (Array.length p.succ_struct) nblocks)
  end;
  if Array.length p.variant_group <> nblocks then begin
    shape_ok := false;
    emit "succ-shape"
      (spf "variant_group: %d entries for %d blocks (fix: one variant set per block)"
         (Array.length p.variant_group) nblocks)
  end;
  if !shape_ok then
    Array.iteri
      (fun bi (blk : int Ablock.t) ->
        let dir1, dir0 = p.succ_struct.(bi) in
        let check_ids what ids =
          Array.iter
            (fun s ->
              if not (in_range s) then
                emit "succ-range"
                  (spf "block %d: %s successor %d is not a block id in 0..%d (fix: relink)"
                     bi what s (nblocks - 1)))
            ids
        in
        check_ids "taken" dir1;
        check_ids "not-taken" dir0;
        check_ids "variant" p.variant_group.(bi);
        match blk.Ablock.term with
        | Ablock.Trap { succ_log2; _ } ->
          let distinct =
            List.sort_uniq compare (Array.to_list dir1 @ Array.to_list dir0)
          in
          let expect = succ_log2_of_count (List.length distinct) in
          if succ_log2 >= 1 && succ_log2 <= 3 && succ_log2 <> expect then
            emit "succ-log2-consistent"
              (spf
                 "block %d: succ_log2 %d but %d distinct declared successors need %d (fix: recompute from succ_struct)"
                 bi succ_log2 (List.length distinct) expect)
        | Ablock.Ijump _ ->
          if Array.length dir1 = 0 then
            emit "ijump-declared"
              (spf "block %d: indirect jump declares no successors (fix: declare the jump-table targets)"
                 bi)
        | _ -> ())
      p.blocks;
  List.rev !ds

(* --- Conventional programs ------------------------------------------------ *)

let conv_diags (p : Conv_prog.t) =
  let ds, emit = collector "verify.conv" in
  let n = Array.length p.insns in
  if n = 0 then
    emit "nonempty" "code: program has no instructions (fix: emit at least a halt)"
  else if p.entry < 0 || p.entry >= n then
    emit "entry-range"
      (spf "entry: instruction index %d is not in 0..%d (fix: point entry at a real instruction)"
         p.entry (n - 1));
  if p.data_base land 7 <> 0 then
    emit "data-base-align"
      (spf "data: base address 0x%x is not 8-byte aligned (fix: align the data segment)"
         p.data_base);
  List.iter
    (fun (name, i) ->
      if i < 0 || i >= n then
        emit "symbol-range"
          (spf "symbol %s: instruction index %d is not in 0..%d (fix: relink the symbol table)"
             name i (n - 1)))
    p.symbols;
  Array.iteri
    (fun i insn ->
      let where () = spf "insn %d" i in
      List.iter (check_reg emit ~where) (Insn.defs insn);
      List.iter (check_reg emit ~where) (Insn.uses insn);
      (match insn with
      | Insn.Op op ->
        if class_violation op then
          emit "reg-class"
            (spf
               "%s: %s mixes integer and float register classes (fix: re-encode the class bits)"
               (where ()) (Op.to_string op));
        if not (ra_ok op) then
          emit "ra-discipline"
            (spf
               "%s: %s writes r31; only call instructions and 'load r31, sp+off' may (fix: use another register)"
               (where ()) (Op.to_string op))
      | Insn.Br (_, s1, s2, _) ->
        check_int emit ~where "branch" s1;
        check_int emit ~where "branch" s2
      | Insn.Jr r -> check_int emit ~where "jr" r
      | _ -> ());
      match Insn.label insn with
      | Some l when l < 0 || l >= n ->
        emit "target-range"
          (spf "%s: target %d is not an instruction index in 0..%d (fix: relink)" (where ()) l
             (n - 1))
      | _ -> ())
    p.insns;
  (* The executor advances pc past non-control instructions and past a
     call's return point; the last instruction must make both impossible. *)
  if n > 0 then begin
    match p.insns.(n - 1) with
    | Insn.Jmp _ | Insn.Ret | Insn.Jr _ | Insn.Halt -> ()
    | Insn.Op _ | Insn.Br _ | Insn.Call _ ->
      emit "fallthrough"
        (spf
           "insn %d: the last instruction can fall through past the end (fix: end with jmp/ret/jr/halt)"
           (n - 1))
  end;
  List.rev !ds

(* --- Witnesses ------------------------------------------------------------ *)

let block_prog p = match block_diags p with [] -> Ok p | ds -> Error ds
let conv_prog p = match conv_diags p with [] -> Ok p | ds -> Error ds

let first_exn = function
  | [] -> assert false
  | (d : Diag.t) :: rest ->
    let message =
      if rest = [] then d.message
      else spf "%s (+%d more diagnostics)" d.message (List.length rest)
    in
    raise (Diag.Fail { d with message })

let block_exn p = match block_diags p with [] -> p | ds -> first_exn ds
let conv_exn p = match conv_diags p with [] -> p | ds -> first_exn ds
