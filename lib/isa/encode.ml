(* Validated binary encode/decode for both ISAs, written and read only
   through Bisa_base.Codec: a raw byte for each tag and register, its
   zigzag varints for integers, 8 IEEE-754 bytes for a float literal, its
   input-bounded arrays for every section.  Every decode runs on a
   located reader, so a failure raises [Malformed] carrying the byte
   offset and the section being decoded — never Stack_overflow,
   Out_of_memory or a hang, which the decode fuzzer enforces. *)

exception Malformed of Bisa_base.Diag.t

module Diag = Bisa_base.Diag
module W = Bisa_base.Codec.W
module R = Bisa_base.Codec.R

let reg b r = W.byte b (Reg.flat_index r)

let read_reg r =
  let i = R.byte r in
  if i >= Reg.flat_count then R.fail r "bad register index %d" i;
  Reg.of_flat_index i

(* --- Enums ------------------------------------------------------------------ *)

let cmp_tag = function
  | Cmp.Eq -> 0 | Cmp.Ne -> 1 | Cmp.Lt -> 2 | Cmp.Le -> 3 | Cmp.Gt -> 4 | Cmp.Ge -> 5

let read_cmp r =
  match R.byte r with
  | 0 -> Cmp.Eq | 1 -> Cmp.Ne | 2 -> Cmp.Lt | 3 -> Cmp.Le | 4 -> Cmp.Gt | 5 -> Cmp.Ge
  | t -> R.fail r "bad cmp tag %d" t

let alu_tag = function
  | Op.Add -> 0 | Op.Sub -> 1 | Op.Mul -> 2 | Op.Div -> 3 | Op.Rem -> 4
  | Op.And -> 5 | Op.Or -> 6 | Op.Xor -> 7 | Op.Sll -> 8 | Op.Srl -> 9
  | Op.Sra -> 10
  | Op.Set c -> 16 + cmp_tag c

let cmp_of_sub r t =
  match t with
  | 0 -> Cmp.Eq | 1 -> Cmp.Ne | 2 -> Cmp.Lt | 3 -> Cmp.Le | 4 -> Cmp.Gt | 5 -> Cmp.Ge
  | _ -> R.fail r "bad cmp tag %d" t

let read_alu r =
  match R.byte r with
  | 0 -> Op.Add | 1 -> Op.Sub | 2 -> Op.Mul | 3 -> Op.Div | 4 -> Op.Rem
  | 5 -> Op.And | 6 -> Op.Or | 7 -> Op.Xor | 8 -> Op.Sll | 9 -> Op.Srl
  | 10 -> Op.Sra
  | t when t >= 16 && t <= 21 -> Op.Set (cmp_of_sub r (t - 16))
  | t -> R.fail r "bad alu tag %d" t

let fpu_tag = function Op.Fadd -> 0 | Op.Fsub -> 1 | Op.Fmul -> 2 | Op.Fdiv -> 3

let read_fpu r =
  match R.byte r with
  | 0 -> Op.Fadd | 1 -> Op.Fsub | 2 -> Op.Fmul | 3 -> Op.Fdiv
  | t -> R.fail r "bad fpu tag %d" t

(* --- Operations ---------------------------------------------------------------- *)

let encode_op b (op : Op.t) =
  match op with
  | Op.Nop -> W.byte b 0
  | Op.Mov (d, s) ->
    W.byte b 1;
    reg b d;
    reg b s
  | Op.Li (d, v) ->
    W.byte b 2;
    reg b d;
    W.int b v
  | Op.Lif (d, v) ->
    W.byte b 3;
    reg b d;
    W.float64 b v
  | Op.Alu (a, d, s1, Op.R s2) ->
    W.byte b 4;
    W.byte b (alu_tag a);
    reg b d;
    reg b s1;
    reg b s2
  | Op.Alu (a, d, s1, Op.I v) ->
    W.byte b 5;
    W.byte b (alu_tag a);
    reg b d;
    reg b s1;
    W.int b v
  | Op.Fpu (f, d, s1, s2) ->
    W.byte b 6;
    W.byte b (fpu_tag f);
    reg b d;
    reg b s1;
    reg b s2
  | Op.Fcmp (c, d, s1, s2) ->
    W.byte b 7;
    W.byte b (cmp_tag c);
    reg b d;
    reg b s1;
    reg b s2
  | Op.Itof (d, s) ->
    W.byte b 8;
    reg b d;
    reg b s
  | Op.Ftoi (d, s) ->
    W.byte b 9;
    reg b d;
    reg b s
  | Op.Load (d, base, off) ->
    W.byte b 10;
    reg b d;
    reg b base;
    W.int b off
  | Op.Loadf (d, base, off) ->
    W.byte b 11;
    reg b d;
    reg b base;
    W.int b off
  | Op.Store (s, base, off) ->
    W.byte b 12;
    reg b s;
    reg b base;
    W.int b off
  | Op.Storef (s, base, off) ->
    W.byte b 13;
    reg b s;
    reg b base;
    W.int b off
  | Op.Print s ->
    W.byte b 14;
    reg b s
  | Op.Printf s ->
    W.byte b 15;
    reg b s
  | Op.Select (c, d, s1, Op.R s2, t, f) ->
    W.byte b 16;
    W.byte b (cmp_tag c);
    reg b d;
    reg b s1;
    reg b s2;
    reg b t;
    reg b f
  | Op.Select (c, d, s1, Op.I v, t, f) ->
    W.byte b 17;
    W.byte b (cmp_tag c);
    reg b d;
    reg b s1;
    W.int b v;
    reg b t;
    reg b f

let decode_op r : Op.t =
  match R.byte r with
  | 0 -> Op.Nop
  | 1 ->
    let d = read_reg r in
    Op.Mov (d, read_reg r)
  | 2 ->
    let d = read_reg r in
    Op.Li (d, R.int r)
  | 3 ->
    let d = read_reg r in
    Op.Lif (d, R.float64 r)
  | 4 ->
    let a = read_alu r in
    let d = read_reg r in
    let s1 = read_reg r in
    Op.Alu (a, d, s1, Op.R (read_reg r))
  | 5 ->
    let a = read_alu r in
    let d = read_reg r in
    let s1 = read_reg r in
    Op.Alu (a, d, s1, Op.I (R.int r))
  | 6 ->
    let f = read_fpu r in
    let d = read_reg r in
    let s1 = read_reg r in
    Op.Fpu (f, d, s1, read_reg r)
  | 7 ->
    let c = read_cmp r in
    let d = read_reg r in
    let s1 = read_reg r in
    Op.Fcmp (c, d, s1, read_reg r)
  | 8 ->
    let d = read_reg r in
    Op.Itof (d, read_reg r)
  | 9 ->
    let d = read_reg r in
    Op.Ftoi (d, read_reg r)
  | 10 ->
    let d = read_reg r in
    let base = read_reg r in
    Op.Load (d, base, R.int r)
  | 11 ->
    let d = read_reg r in
    let base = read_reg r in
    Op.Loadf (d, base, R.int r)
  | 12 ->
    let s = read_reg r in
    let base = read_reg r in
    Op.Store (s, base, R.int r)
  | 13 ->
    let s = read_reg r in
    let base = read_reg r in
    Op.Storef (s, base, R.int r)
  | 14 -> Op.Print (read_reg r)
  | 15 -> Op.Printf (read_reg r)
  | 16 ->
    let c = read_cmp r in
    let d = read_reg r in
    let s1 = read_reg r in
    let s2 = read_reg r in
    let t = read_reg r in
    Op.Select (c, d, s1, Op.R s2, t, read_reg r)
  | 17 ->
    let c = read_cmp r in
    let d = read_reg r in
    let s1 = read_reg r in
    let v = R.int r in
    let t = read_reg r in
    Op.Select (c, d, s1, Op.I v, t, read_reg r)
  | t -> R.fail r "bad op tag %d" t

(* Every decode runs on a located reader, so a failure names its byte and
   section; [encode.mli] promises it as [Malformed]. *)
let decoding ~section s decode =
  let r = R.of_string ~component:"encode" ~section s in
  match
    let v = decode r in
    if not (R.at_end r) then R.fail r "trailing bytes";
    v
  with
  | v -> v
  | exception Diag.Fail d -> raise (Malformed d)

let op_to_bytes op =
  let b = W.create () in
  encode_op b op;
  W.contents b

let op_of_bytes s = decoding ~section:"op" s decode_op

(* --- Conventional instructions -------------------------------------------------- *)

let encode_insn b (i : int Insn.t) =
  match i with
  | Insn.Op op ->
    W.byte b 0;
    encode_op b op
  | Insn.Br (c, s1, s2, l) ->
    W.byte b 1;
    W.byte b (cmp_tag c);
    reg b s1;
    reg b s2;
    W.int b l
  | Insn.Jmp l ->
    W.byte b 2;
    W.int b l
  | Insn.Call l ->
    W.byte b 3;
    W.int b l
  | Insn.Ret -> W.byte b 4
  | Insn.Jr s ->
    W.byte b 5;
    reg b s
  | Insn.Halt -> W.byte b 6

let decode_insn r : int Insn.t =
  match R.byte r with
  | 0 -> Insn.Op (decode_op r)
  | 1 ->
    let c = read_cmp r in
    let s1 = read_reg r in
    let s2 = read_reg r in
    Insn.Br (c, s1, s2, R.int r)
  | 2 -> Insn.Jmp (R.int r)
  | 3 -> Insn.Call (R.int r)
  | 4 -> Insn.Ret
  | 5 -> Insn.Jr (read_reg r)
  | 6 -> Insn.Halt
  | t -> R.fail r "bad insn tag %d" t

(* --- Atomic blocks --------------------------------------------------------------- *)

let encode_elt b (e : int Ablock.elt) =
  match e with
  | Ablock.Op op ->
    W.byte b 0;
    encode_op b op
  | Ablock.Fault (c, s1, s2, l) ->
    W.byte b 1;
    W.byte b (cmp_tag c);
    reg b s1;
    reg b s2;
    W.int b l

let decode_elt r : int Ablock.elt =
  match R.byte r with
  | 0 -> Ablock.Op (decode_op r)
  | 1 ->
    let c = read_cmp r in
    let s1 = read_reg r in
    let s2 = read_reg r in
    Ablock.Fault (c, s1, s2, R.int r)
  | t -> R.fail r "bad elt tag %d" t

let encode_term b (t : int Ablock.terminator) =
  match t with
  | Ablock.Trap { cmp; rs1; rs2; taken; not_taken; succ_log2 } ->
    W.byte b 0;
    W.byte b (cmp_tag cmp);
    reg b rs1;
    reg b rs2;
    W.int b taken;
    W.int b not_taken;
    W.byte b succ_log2
  | Ablock.Goto l ->
    W.byte b 1;
    W.int b l
  | Ablock.Call { callee; ret_to } ->
    W.byte b 2;
    W.int b callee;
    W.int b ret_to
  | Ablock.Return -> W.byte b 3
  | Ablock.Ijump s ->
    W.byte b 4;
    reg b s
  | Ablock.Halt -> W.byte b 5

let decode_term r : int Ablock.terminator =
  match R.byte r with
  | 0 ->
    let cmp = read_cmp r in
    let rs1 = read_reg r in
    let rs2 = read_reg r in
    let taken = R.int r in
    let not_taken = R.int r in
    let succ_log2 = R.byte r in
    Ablock.Trap { cmp; rs1; rs2; taken; not_taken; succ_log2 }
  | 1 -> Ablock.Goto (R.int r)
  | 2 ->
    let callee = R.int r in
    Ablock.Call { callee; ret_to = R.int r }
  | 3 -> Ablock.Return
  | 4 -> Ablock.Ijump (read_reg r)
  | 5 -> Ablock.Halt
  | t -> R.fail r "bad term tag %d" t

(* --- Whole programs ------------------------------------------------------------------ *)

let encode_symbols b syms =
  W.int b (List.length syms);
  List.iter
    (fun (name, v) ->
      W.string b name;
      W.int b v)
    syms

let decode_symbols r =
  Array.to_list
    (R.array r (fun r ->
         let name = R.string r in
         (name, R.int r)))

let magic_conv = "BISA-CONV1"
let magic_block = "BISA-BLK1"

let conv_to_bytes (p : Conv_prog.t) =
  let b = W.create () in
  W.magic b magic_conv;
  W.array b encode_insn p.insns;
  W.int b p.entry;
  W.int_array b p.data;
  W.int b p.data_base;
  encode_symbols b p.symbols;
  W.contents b

let conv_of_bytes s =
  decoding ~section:"magic" s @@ fun r ->
  R.magic r magic_conv;
  R.set_section r "code";
  let insns = R.array r decode_insn in
  R.set_section r "entry";
  let entry = R.int r in
  R.set_section r "data";
  let data = R.int_array r in
  let data_base = R.int r in
  R.set_section r "symbols";
  let symbols = decode_symbols r in
  R.set_section r "trailer";
  { Conv_prog.insns; entry; data; data_base; symbols }

let encode_block b (blk : int Ablock.t) =
  W.array b encode_elt blk.elts;
  encode_term b blk.term

let decode_block r : int Ablock.t =
  let elts = R.array r decode_elt in
  { Ablock.elts; term = decode_term r }

let block_to_bytes (p : Block_prog.t) =
  let b = W.create () in
  W.magic b magic_block;
  W.array b encode_block p.blocks;
  W.int b p.entry;
  W.int_array b p.data;
  W.int b p.data_base;
  encode_symbols b p.symbols;
  W.array b
    (fun b (taken, not_taken) ->
      W.int_array b taken;
      W.int_array b not_taken)
    p.succ_struct;
  W.array b W.int_array p.variant_group;
  W.contents b

let block_of_bytes s =
  decoding ~section:"magic" s @@ fun r ->
  R.magic r magic_block;
  R.set_section r "code";
  let blocks = R.array r decode_block in
  R.set_section r "entry";
  let entry = R.int r in
  R.set_section r "data";
  let data = R.int_array r in
  let data_base = R.int r in
  R.set_section r "symbols";
  let symbols = decode_symbols r in
  R.set_section r "succ_struct";
  let succ_struct =
    R.array r (fun r ->
        let taken = R.int_array r in
        let not_taken = R.int_array r in
        (taken, not_taken))
  in
  R.set_section r "variant_groups";
  let variant_group = R.array r R.int_array in
  R.set_section r "trailer";
  let block_addr, code_bytes = Block_prog.layout blocks in
  {
    Block_prog.blocks;
    entry;
    data;
    data_base;
    block_addr;
    code_bytes;
    symbols;
    succ_struct;
    variant_group;
  }
