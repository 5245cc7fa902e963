module Ir = Bisa_ir.Ir
module Reg = Bisa_isa.Reg
module Op = Bisa_isa.Op
module Insn = Bisa_isa.Insn
module Ablock = Bisa_isa.Ablock

let data_base = 0x1_000_000
let stack_top = 0x4_000_000
let word = 8

type layout = {
  addr_of_global : string -> int;
  table_addr : string -> int -> int;
  data_words : int;
}

let layout_data (globals : Ir.global list) (funcs : Mir.mfunc list) : layout =
  let gtbl = Hashtbl.create 64 in
  let next = ref 0 in
  List.iter
    (fun (g : Ir.global) ->
      Hashtbl.replace gtbl g.gname (data_base + (!next * word));
      next := !next + g.words)
    globals;
  let ttbl = Hashtbl.create 16 in
  List.iter
    (fun (f : Mir.mfunc) ->
      Array.iteri
        (fun i tbl ->
          Hashtbl.replace ttbl (f.name, i) (data_base + (!next * word));
          next := !next + Array.length tbl)
        f.jumptables)
    funcs;
  {
    addr_of_global =
      (fun name ->
        match Hashtbl.find_opt gtbl name with
        | Some a -> a
        | None -> invalid_arg ("Linker: unknown global " ^ name));
    table_addr =
      (fun fname i ->
        match Hashtbl.find_opt ttbl (fname, i) with
        | Some a -> a
        | None -> invalid_arg (Printf.sprintf "Linker: unknown table %s/%d" fname i));
    data_words = !next;
  }

(* The startup stub: sp, scalar global initializers, call main, halt. *)
let make_start (globals : Ir.global list) : Mir.mfunc =
  let ops = ref [] in
  let emit op = ops := Mir.Mop op :: !ops in
  emit (Op.Li (Reg.sp, stack_top));
  List.iter
    (fun (g : Ir.global) ->
      if g.ginit <> 0.0 then begin
        ops := Mir.Mlea (Reg.at, Mir.Sglobal g.gname) :: !ops;
        match g.gkind with
        | Ir.Kint ->
          let s = fst Frame.scratch_int in
          emit (Op.Li (s, int_of_float g.ginit));
          emit (Op.Store (s, Reg.at, 0))
        | Ir.Kflt ->
          let s = fst Frame.scratch_flt in
          emit (Op.Lif (s, g.ginit));
          emit (Op.Storef (s, Reg.at, 0))
      end)
    globals;
  {
    Mir.name = "_start";
    entry = 0;
    blocks =
      [|
        { Mir.mops = List.rev !ops; mterm = Mir.Mcall ("main", 1) };
        { Mir.mops = []; mterm = Mir.Mhalt };
      |];
    jumptables = [||];
    is_library = true;
    frame_bytes = 0;
  }

let resolve_mop lay fname = function
  | Mir.Mop op -> op
  | Mir.Mlea (r, Mir.Sglobal g) -> Op.Li (r, lay.addr_of_global g)
  | Mir.Mlea (r, Mir.Sjumptable i) -> Op.Li (r, lay.table_addr fname i)

(* --- Conventional ISA ----------------------------------------------------- *)

type conv_target = Clocal of string * int | Cfunc of string

let link_conventional (globals : Ir.global list) (user_funcs : Mir.mfunc list) :
    Bisa_isa.Conv_prog.t =
  let funcs = make_start globals :: user_funcs in
  let lay = layout_data globals funcs in
  (* First pass: emit with symbolic targets. *)
  let insns : conv_target Insn.t list ref = ref [] in
  let count = ref 0 in
  let emit i =
    insns := i :: !insns;
    incr count
  in
  let block_index = Hashtbl.create 256 in
  let func_entry = Hashtbl.create 16 in
  List.iter
    (fun (f : Mir.mfunc) ->
      (* Entry must come first in the layout so fall-through from the
         previous function cannot happen (every function ends in
         ret/halt/jump anyway, but the entry symbol must point at the top). *)
      let n = Array.length f.blocks in
      let order = Array.init n (fun i -> i) in
      if f.entry <> 0 then begin
        (* Rotate the entry block to the front, keep the rest in order. *)
        let rest = Array.to_list order |> List.filter (fun i -> i <> f.entry) in
        Array.blit (Array.of_list (f.entry :: rest)) 0 order 0 n
      end;
      Hashtbl.replace func_entry f.name !count;
      Array.iteri
        (fun pos b_idx ->
          Hashtbl.replace block_index (f.name, b_idx) !count;
          let b = f.blocks.(b_idx) in
          List.iter (fun mop -> emit (Insn.Op (resolve_mop lay f.name mop))) b.mops;
          let next_blk = if pos + 1 < n then Some order.(pos + 1) else None in
          match b.Mir.mterm with
          | Mir.Mjmp l ->
            if next_blk <> Some l then emit (Insn.Jmp (Clocal (f.name, l)))
          | Mir.Mbr (c, r1, r2, t, fl) ->
            if next_blk = Some fl then emit (Insn.Br (c, r1, r2, Clocal (f.name, t)))
            else if next_blk = Some t then
              emit (Insn.Br (Bisa_isa.Cmp.negate c, r1, r2, Clocal (f.name, fl)))
            else begin
              emit (Insn.Br (c, r1, r2, Clocal (f.name, t)));
              emit (Insn.Jmp (Clocal (f.name, fl)))
            end
          | Mir.Mcall (callee, cont) ->
            emit (Insn.Call (Cfunc callee));
            if next_blk <> Some cont then emit (Insn.Jmp (Clocal (f.name, cont)))
          | Mir.Mret -> emit Insn.Ret
          | Mir.Mijump r -> emit (Insn.Jr r)
          | Mir.Mhalt -> emit Insn.Halt)
        order)
    funcs;
  let resolve = function
    | Clocal (fname, l) -> Hashtbl.find block_index (fname, l)
    | Cfunc name -> (
      match Hashtbl.find_opt func_entry name with
      | Some i -> i
      | None -> invalid_arg ("Linker: undefined function " ^ name))
  in
  (* [insns] is in reverse, so fill from the end.  The constant initial
     value keeps [Array.make] from forcing a minor collection, as
     [Array.of_list] of a young first element does past 256 words. *)
  let code = Array.make !count Insn.Halt in
  List.iteri (fun k i -> code.(!count - 1 - k) <- Insn.map_label resolve i) !insns;
  (* Data segment: zeroed globals plus jump tables holding instruction
     indexes. *)
  let data = Array.make lay.data_words 0 in
  List.iter
    (fun (f : Mir.mfunc) ->
      Array.iteri
        (fun i tbl ->
          let base = (lay.table_addr f.name i - data_base) / word in
          Array.iteri
            (fun j l -> data.(base + j) <- Hashtbl.find block_index (f.name, l))
            tbl)
        f.jumptables)
    funcs;
  {
    Bisa_isa.Conv_prog.insns = code;
    entry = Hashtbl.find func_entry "_start";
    data;
    data_base;
    symbols = List.map (fun (f : Mir.mfunc) -> (f.name, Hashtbl.find func_entry f.name)) funcs;
  }

(* --- Block-structured ISA -------------------------------------------------- *)

let link_block ?(config = Enlarge.default_config) ?(bias = fun _ _ -> None)
    (globals : Ir.global list) (user_funcs : Mir.mfunc list) :
    Bisa_isa.Block_prog.t * Enlarge.t list =
  let funcs = make_start globals :: user_funcs in
  let lay = layout_data globals funcs in
  let enlarged =
    List.map (fun (f : Mir.mfunc) -> Enlarge.run ~bias:(bias f.name) config f) funcs
  in
  (* Global id space: per-function offsets. *)
  let offsets = Hashtbl.create 16 in
  let total =
    List.fold_left
      (fun acc (e : Enlarge.t) ->
        Hashtbl.replace offsets e.name acc;
        acc + Array.length e.blocks)
      0 enlarged
  in
  let offset name = Hashtbl.find offsets name in
  let entry_of name =
    match List.find_opt (fun (e : Enlarge.t) -> e.name = name) enlarged with
    | Some e -> offset name + e.entry
    | None -> invalid_arg ("Linker: undefined function " ^ name)
  in
  let blocks = Array.make total { Ablock.elts = [||]; term = Ablock.Halt } in
  let succ_struct = Array.make total ([||], [||]) in
  let variant_group = Array.make total [||] in
  List.iter
    (fun (e : Enlarge.t) ->
      let off = offset e.name in
      let table_targets =
        Array.to_list e.jumptables
        |> List.concat_map Array.to_list
        |> List.sort_uniq compare
        |> List.map (fun l -> off + l)
      in
      Array.iteri
        (fun i (fb : Enlarge.fblock) ->
          let elts =
            Array.map
              (function
                | Enlarge.Fop mop -> Ablock.Op (resolve_mop lay e.name mop)
                | Enlarge.Ffault (c, r1, r2, l) -> Ablock.Fault (c, r1, r2, off + l))
              fb.elts
          in
          let variant_ids l = List.map (fun v -> off + v) e.variants.(l) in
          let term, succs =
            match fb.term with
            | Enlarge.Ftrap { cmp; rs1; rs2; taken; not_taken } ->
              let dir1 = variant_ids taken and dir0 = variant_ids not_taken in
              let succ_log2 =
                let n = List.length (List.sort_uniq compare (dir1 @ dir0)) in
                let rec bits k acc = if 1 lsl acc >= k then acc else bits k (acc + 1) in
                max 1 (min 3 (bits n 0))
              in
              ( Ablock.Trap
                  {
                    cmp;
                    rs1;
                    rs2;
                    taken = off + taken;
                    not_taken = off + not_taken;
                    succ_log2;
                  },
                (Array.of_list dir1, Array.of_list dir0) )
            | Enlarge.Fgoto l -> (Ablock.Goto (off + l), (Array.of_list (variant_ids l), [||]))
            | Enlarge.Fcall (callee, ret_to) ->
              ( Ablock.Call { callee = entry_of callee; ret_to = off + ret_to },
                ([| entry_of callee |], [||]) )
            | Enlarge.Freturn -> (Ablock.Return, ([||], [||]))
            | Enlarge.Fijump r -> (Ablock.Ijump r, (Array.of_list table_targets, [||]))
            | Enlarge.Fhalt -> (Ablock.Halt, ([||], [||]))
          in
          blocks.(off + i) <- { Ablock.elts; term };
          succ_struct.(off + i) <- succs;
          variant_group.(off + i) <- Array.of_list (variant_ids i))
        e.blocks)
    enlarged;
  let block_addr, code_bytes = Bisa_isa.Block_prog.layout blocks in
  let data = Array.make lay.data_words 0 in
  List.iter
    (fun (e : Enlarge.t) ->
      let off = offset e.name in
      Array.iteri
        (fun i tbl ->
          let base = (lay.table_addr e.name i - data_base) / word in
          Array.iteri (fun j l -> data.(base + j) <- off + l) tbl)
        e.jumptables)
    enlarged;
  ( {
      Bisa_isa.Block_prog.blocks;
      entry = entry_of "_start";
      data;
      data_base;
      block_addr;
      code_bytes;
      symbols = List.map (fun (e : Enlarge.t) -> (e.name, entry_of e.name)) enlarged;
      succ_struct;
      variant_group;
    },
    enlarged )
