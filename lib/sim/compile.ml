(* Threaded-code bodies for the functional executors: each block (and
   each conventional instruction) becomes one specialized closure that
   tail-calls its successor, with operand indices and literals resolved at
   compile time.  No step protocol lives here: [bind] returns a body that
   Block_exec.step_into / Conv_exec.step_into drive exactly as they drive
   the interpreter's, so halting, fetch legality, squash, commit, the
   budget and machine traps have one implementation per ISA.  The chains
   mutate the executor's own registers, memory, step fields and output;
   on trusted malformed input they raise the interpreter's register-class
   Invalid_argument at the same program point.

   Three executors are compiled here — the block chain, the conventional
   packet threads and the conventional run-to-halt chain — from one op
   compiler: [reg_op] compiles every op that only touches registers, and
   [int_cond] every integer compare that picks a continuation.  Each
   executor adds only what its machine does differently: the block core
   buffers stores and prints until its atomic block commits, the packet
   threads record each instruction's address slot, and the run chain
   keeps its budget in [fuel].  [Opsem] stays a separate copy on purpose:
   it is the oracle the compiled paths are checked against. *)

module Op = Bisa_isa.Op
module Cmp = Bisa_isa.Cmp
module Reg = Bisa_isa.Reg
module Ablock = Bisa_isa.Ablock
module Insn = Bisa_isa.Insn
module Block_prog = Bisa_isa.Block_prog
module Conv_prog = Bisa_isa.Conv_prog

type backend = Interp | Compiled

let backends = [ ("interp", Interp); ("compiled", Compiled) ]
let backend_to_string = function Interp -> "interp" | Compiled -> "compiled"

(* Comparators specialized to unboxed arguments, for [Set] and [Select]:
   resolved once at compile time. *)
let icmp : Cmp.t -> int -> int -> bool = function
  | Cmp.Eq -> fun a b -> a = b
  | Cmp.Ne -> fun a b -> a <> b
  | Cmp.Lt -> fun a b -> a < b
  | Cmp.Le -> fun a b -> a <= b
  | Cmp.Gt -> fun a b -> a > b
  | Cmp.Ge -> fun a b -> a >= b

(* Does every operand's register class match what the operation reads and
   writes?  Verified programs always pass (the verifier's reg-class
   rule); a trusted malformed program that fails here gets the generic
   Opsem fallback so it raises exactly as the interpreter would. *)
let ok_i = Reg.is_int
let ok_f r = not (Reg.is_int r)
let ok_srcv = function Op.R r -> Reg.is_int r | Op.I _ -> true

let classes_ok : Op.t -> bool = function
  | Op.Nop -> true
  | Op.Mov (d, s) -> Reg.is_int d = Reg.is_int s
  | Op.Li (d, _) -> ok_i d
  | Op.Lif (d, _) -> ok_f d
  | Op.Alu (_, d, s1, s2) -> ok_i d && ok_i s1 && ok_srcv s2
  | Op.Fpu (_, d, s1, s2) -> ok_f d && ok_f s1 && ok_f s2
  | Op.Fcmp (_, d, s1, s2) -> ok_i d && ok_f s1 && ok_f s2
  | Op.Itof (d, s) -> ok_f d && ok_i s
  | Op.Ftoi (d, s) -> ok_i d && ok_f s
  | Op.Select (_, d, s1, s2, t, f) ->
    ok_i s1 && ok_srcv s2 && Reg.is_int t = Reg.is_int d && Reg.is_int f = Reg.is_int d
  | Op.Load (d, b, _) -> ok_i d && ok_i b
  | Op.Loadf (d, b, _) -> ok_f d && ok_i b
  | Op.Store (s, b, _) -> ok_i s && ok_i b
  | Op.Storef (s, b, _) -> ok_f s && ok_i b
  | Op.Print s -> ok_i s
  | Op.Printf s -> ok_f s

let ix = Reg.index

(* Register-file accesses throughout use unsafe indexing: every index
   comes from [Reg.index] on a register built by [Reg]'s checked
   constructors ([Reg.int]/[Reg.flt]/[Reg.of_flat_index], which decode
   goes through), so it is < [Reg.count] — the length of both register
   arrays by construction.  The bounds checks these elide sit on the
   per-executed-instruction path of the compiled executor. *)

(* --- the shared op compiler ---------------------------------------------

   [reg_op ~ints ~flts op k] compiles an op that only touches registers
   into a closure that applies the op to [ints]/[flts] — the register
   arrays of the one executor the chain is built for — and tail-calls
   [k].  It is polymorphic in the executor's state, which only [k]
   reads, so all three executors share it.  Each arm is specialized per
   opcode and operand form: a closure per ALU function would cost a
   caml_apply2 per executed ALU op, the most common dynamic kind.  Only
   ops that pass [classes_ok] come here; memory and print ops are
   compiled per executor. *)
let reg_op ~(ints : int array) ~(flts : float array) (op : Op.t) (k : 's -> unit) :
    's -> unit =
  match op with
  | Op.Nop -> k
  | Op.Mov (d, _)
  | Op.Li (d, _)
  | Op.Alu (_, d, _, _)
  | Op.Fcmp (_, d, _, _)
  | Op.Ftoi (d, _)
  | Op.Select (_, d, _, _, _, _)
    when Reg.equal d Reg.zero ->
    k (* a write to r0 is dropped *)
  | Op.Mov (d, s) when Reg.is_int d ->
    let d = ix d and s = ix s in
    fun st ->
      Array.unsafe_set ints d (Array.unsafe_get ints s);
      k st
  | Op.Mov (d, s) ->
    let d = ix d and s = ix s in
    fun st ->
      Array.unsafe_set flts d (Array.unsafe_get flts s);
      k st
  | Op.Li (d, v) ->
    let d = ix d in
    fun st ->
      Array.unsafe_set ints d v;
      k st
  | Op.Lif (d, v) ->
    let d = ix d in
    fun st ->
      Array.unsafe_set flts d v;
      k st
  | Op.Alu (a, d, s1, Op.R s2) -> (
    let d = ix d and s1 = ix s1 and s2 = ix s2 in
    match a with
    | Op.Add ->
      fun st ->
        Array.unsafe_set ints d (Array.unsafe_get ints s1 + Array.unsafe_get ints s2);
        k st
    | Op.Sub ->
      fun st ->
        Array.unsafe_set ints d (Array.unsafe_get ints s1 - Array.unsafe_get ints s2);
        k st
    | Op.Mul ->
      fun st ->
        Array.unsafe_set ints d (Array.unsafe_get ints s1 * Array.unsafe_get ints s2);
        k st
    | Op.Div ->
      fun st ->
        let y = Array.unsafe_get ints s2 in
        Array.unsafe_set ints d (if y = 0 then 0 else Array.unsafe_get ints s1 / y);
        k st
    | Op.Rem ->
      fun st ->
        let y = Array.unsafe_get ints s2 in
        Array.unsafe_set ints d (if y = 0 then 0 else Array.unsafe_get ints s1 mod y);
        k st
    | Op.And ->
      fun st ->
        Array.unsafe_set ints d (Array.unsafe_get ints s1 land Array.unsafe_get ints s2);
        k st
    | Op.Or ->
      fun st ->
        Array.unsafe_set ints d (Array.unsafe_get ints s1 lor Array.unsafe_get ints s2);
        k st
    | Op.Xor ->
      fun st ->
        Array.unsafe_set ints d (Array.unsafe_get ints s1 lxor Array.unsafe_get ints s2);
        k st
    | Op.Sll ->
      fun st ->
        let y = Array.unsafe_get ints s2 land 63 in
        Array.unsafe_set ints d (Array.unsafe_get ints s1 lsl y);
        k st
    | Op.Srl ->
      fun st ->
        let y = Array.unsafe_get ints s2 land 63 in
        Array.unsafe_set ints d (Array.unsafe_get ints s1 lsr y);
        k st
    | Op.Sra ->
      fun st ->
        let y = Array.unsafe_get ints s2 land 63 in
        Array.unsafe_set ints d (Array.unsafe_get ints s1 asr y);
        k st
    | Op.Set c ->
      let cmp = icmp c in
      fun st ->
        let y = Array.unsafe_get ints s2 in
        Array.unsafe_set ints d (if cmp (Array.unsafe_get ints s1) y then 1 else 0);
        k st)
  | Op.Alu (a, d, s1, Op.I v) -> (
    let d = ix d and s1 = ix s1 in
    match a with
    | Op.Add ->
      fun st ->
        Array.unsafe_set ints d (Array.unsafe_get ints s1 + v);
        k st
    | Op.Sub ->
      fun st ->
        Array.unsafe_set ints d (Array.unsafe_get ints s1 - v);
        k st
    | Op.Mul ->
      fun st ->
        Array.unsafe_set ints d (Array.unsafe_get ints s1 * v);
        k st
    | Op.Div ->
      fun st ->
        Array.unsafe_set ints d (if v = 0 then 0 else Array.unsafe_get ints s1 / v);
        k st
    | Op.Rem ->
      fun st ->
        Array.unsafe_set ints d (if v = 0 then 0 else Array.unsafe_get ints s1 mod v);
        k st
    | Op.And ->
      fun st ->
        Array.unsafe_set ints d (Array.unsafe_get ints s1 land v);
        k st
    | Op.Or ->
      fun st ->
        Array.unsafe_set ints d (Array.unsafe_get ints s1 lor v);
        k st
    | Op.Xor ->
      fun st ->
        Array.unsafe_set ints d (Array.unsafe_get ints s1 lxor v);
        k st
    | Op.Sll ->
      fun st ->
        Array.unsafe_set ints d (Array.unsafe_get ints s1 lsl (v land 63));
        k st
    | Op.Srl ->
      fun st ->
        Array.unsafe_set ints d (Array.unsafe_get ints s1 lsr (v land 63));
        k st
    | Op.Sra ->
      fun st ->
        Array.unsafe_set ints d (Array.unsafe_get ints s1 asr (v land 63));
        k st
    | Op.Set c ->
      let cmp = icmp c in
      fun st ->
        Array.unsafe_set ints d (if cmp (Array.unsafe_get ints s1) v then 1 else 0);
        k st)
  | Op.Fpu (f, d, s1, s2) -> (
    let d = ix d and s1 = ix s1 and s2 = ix s2 in
    (* Inlined per arm: an indirect float->float call would box. *)
    match f with
    | Op.Fadd ->
      fun st ->
        Array.unsafe_set flts d (Array.unsafe_get flts s1 +. Array.unsafe_get flts s2);
        k st
    | Op.Fsub ->
      fun st ->
        Array.unsafe_set flts d (Array.unsafe_get flts s1 -. Array.unsafe_get flts s2);
        k st
    | Op.Fmul ->
      fun st ->
        Array.unsafe_set flts d (Array.unsafe_get flts s1 *. Array.unsafe_get flts s2);
        k st
    | Op.Fdiv ->
      fun st ->
        Array.unsafe_set flts d (Array.unsafe_get flts s1 /. Array.unsafe_get flts s2);
        k st)
  | Op.Fcmp (c, d, s1, s2) -> (
    let d = ix d and s1 = ix s1 and s2 = ix s2 in
    match c with
    | Cmp.Eq ->
      fun st ->
        let x = Array.unsafe_get flts s1 and y = Array.unsafe_get flts s2 in
        Array.unsafe_set ints d (if x = y then 1 else 0);
        k st
    | Cmp.Ne ->
      fun st ->
        let x = Array.unsafe_get flts s1 and y = Array.unsafe_get flts s2 in
        Array.unsafe_set ints d (if x <> y then 1 else 0);
        k st
    | Cmp.Lt ->
      fun st ->
        let x = Array.unsafe_get flts s1 and y = Array.unsafe_get flts s2 in
        Array.unsafe_set ints d (if x < y then 1 else 0);
        k st
    | Cmp.Le ->
      fun st ->
        let x = Array.unsafe_get flts s1 and y = Array.unsafe_get flts s2 in
        Array.unsafe_set ints d (if x <= y then 1 else 0);
        k st
    | Cmp.Gt ->
      fun st ->
        let x = Array.unsafe_get flts s1 and y = Array.unsafe_get flts s2 in
        Array.unsafe_set ints d (if x > y then 1 else 0);
        k st
    | Cmp.Ge ->
      fun st ->
        let x = Array.unsafe_get flts s1 and y = Array.unsafe_get flts s2 in
        Array.unsafe_set ints d (if x >= y then 1 else 0);
        k st)
  | Op.Itof (d, s) ->
    let d = ix d and s = ix s in
    fun st ->
      Array.unsafe_set flts d (float_of_int (Array.unsafe_get ints s));
      k st
  | Op.Ftoi (d, s) ->
    let d = ix d and s = ix s in
    fun st ->
      Array.unsafe_set ints d (int_of_float (Float.trunc (Array.unsafe_get flts s)));
      k st
  | Op.Select (c, d, s1, s2, tr, fr) -> (
    let cmp = icmp c and s1 = ix s1 in
    let cond =
      match s2 with
      | Op.R r ->
        let s2 = ix r in
        fun () -> cmp (Array.unsafe_get ints s1) (Array.unsafe_get ints s2)
      | Op.I v -> fun () -> cmp (Array.unsafe_get ints s1) v
    in
    let int_dest = Reg.is_int d in
    let d = ix d and tr = ix tr and fr = ix fr in
    if int_dest then
      fun st ->
        Array.unsafe_set ints d (Array.unsafe_get ints (if cond () then tr else fr));
        k st
    else
      fun st ->
        Array.unsafe_set flts d (Array.unsafe_get flts (if cond () then tr else fr));
        k st)
  | Op.Load _ | Op.Loadf _ | Op.Store _ | Op.Storef _ | Op.Print _ | Op.Printf _ ->
    invalid_arg "Compile.reg_op: memory and print ops are compiled per executor"

(* [int_cond ~regs ~ints c s1 s2 t f] compiles an integer compare that
   tail-calls [t] if it holds and [f] otherwise: block faults and traps,
   conventional branches, and the branches folded into the run chain's
   fused runs.  Specialized per comparator, so a decision is one direct
   compare; a class-malformed operand reads through [Regfile.get_i] and
   raises exactly as the interpreter does. *)
let int_cond ~regs ~(ints : int array) (c : Cmp.t) s1 s2 (t : 's -> unit) (f : 's -> unit) :
    's -> unit =
  if not (Reg.is_int s1 && Reg.is_int s2) then
    fun st ->
      if Cmp.eval c (Regfile.get_i regs s1) (Regfile.get_i regs s2) then t st else f st
  else
    let s1 = ix s1 and s2 = ix s2 in
    match c with
    | Cmp.Eq ->
      fun st -> if Array.unsafe_get ints s1 = Array.unsafe_get ints s2 then t st else f st
    | Cmp.Ne ->
      fun st -> if Array.unsafe_get ints s1 <> Array.unsafe_get ints s2 then t st else f st
    | Cmp.Lt ->
      fun st -> if Array.unsafe_get ints s1 < Array.unsafe_get ints s2 then t st else f st
    | Cmp.Le ->
      fun st -> if Array.unsafe_get ints s1 <= Array.unsafe_get ints s2 then t st else f st
    | Cmp.Gt ->
      fun st -> if Array.unsafe_get ints s1 > Array.unsafe_get ints s2 then t st else f st
    | Cmp.Ge ->
      fun st -> if Array.unsafe_get ints s1 >= Array.unsafe_get ints s2 then t st else f st

module Block = struct
  (* A chain runs on the executor it was built for, whose step fields
     it writes; [ints]/[flts] are closed over as that executor's
     register arrays. *)
  type chain = Block_exec.t -> unit

  (* A handle on the program: the chains are built by [bind], so they
     live exactly as long as the body that executes them. *)
  type code = { cprog : Block_prog.t }

  let prog c = c.cprog

  (* Fallback for class-malformed trusted programs: run the interpreter's
     own Opsem on this element so exceptions and evaluation order are
     identical by definition. *)
  let generic_op (x : Block_exec.t) ~pos op (k : chain) : chain =
    let sbuf = Some x.Block_exec.sbuf in
    fun st ->
      st.Block_exec.last_addrs.(pos) <-
        Opsem.exec ~regs:x.Block_exec.regs ~mem:x.Block_exec.mem ~sbuf
          ~out:(fun item -> st.Block_exec.out_rev <- item :: st.Block_exec.out_rev)
          op;
      k st

  (* What the atomic block changes: memory ops go through the store
     buffer, so a store waits for commit, and record their address in
     this step's [last_addrs]; prints wait in [out_rev] for commit.
     Every other op is the shared [reg_op]. *)
  let compile_op (x : Block_exec.t) ~pos (op : Op.t) (k : chain) : chain =
    let { Regfile.ints; flts } = x.Block_exec.regs in
    let sbuf = x.Block_exec.sbuf and mem = x.Block_exec.mem in
    if not (classes_ok op) then generic_op x ~pos op k
    else
      match op with
      | Op.Load (d, b, off) ->
        let d = ix d and b = ix b in
        fun st ->
          let addr = Array.unsafe_get ints b + off in
          let v = Sbuf.load sbuf mem addr in
          if d <> 0 then Array.unsafe_set ints d v;
          st.Block_exec.last_addrs.(pos) <- addr;
          k st
      | Op.Loadf (d, b, off) ->
        let d = ix d and b = ix b in
        fun st ->
          let addr = Array.unsafe_get ints b + off in
          Array.unsafe_set flts d (Sbuf.loadf sbuf mem addr);
          st.Block_exec.last_addrs.(pos) <- addr;
          k st
      | Op.Store (s, b, off) ->
        let s = ix s and b = ix b in
        fun st ->
          let addr = Array.unsafe_get ints b + off in
          Sbuf.store sbuf addr (Array.unsafe_get ints s);
          st.Block_exec.last_addrs.(pos) <- addr;
          k st
      | Op.Storef (s, b, off) ->
        let s = ix s and b = ix b in
        fun st ->
          let addr = Array.unsafe_get ints b + off in
          Sbuf.storef sbuf addr (Array.unsafe_get flts s);
          st.Block_exec.last_addrs.(pos) <- addr;
          k st
      | Op.Print s ->
        let s = ix s in
        fun st ->
          st.Block_exec.out_rev <- Output.Oint (Array.unsafe_get ints s) :: st.out_rev;
          k st
      | Op.Printf s ->
        let s = ix s in
        fun st ->
          st.Block_exec.out_rev <- Output.Oflt (Array.unsafe_get flts s) :: st.out_rev;
          k st
      | _ -> reg_op ~ints ~flts op k

  (* A firing fault records its position and target and returns without
     calling the continuation — the rest of the block never executes,
     exactly like the interpreter's loop exit. *)
  let compile_elt (x : Block_exec.t) ~pos (elt : int Ablock.elt) (k : chain) : chain =
    match elt with
    | Ablock.Op op -> compile_op x ~pos op k
    | Ablock.Fault (c, s1, s2, target) ->
      let regs = x.Block_exec.regs in
      let fire st =
        st.Block_exec.last_fpos <- pos;
        st.Block_exec.last_next <- target
      in
      int_cond ~regs ~ints:regs.Regfile.ints c s1 s2 fire k

  (* The terminator is the last link of the chain: it only runs when no
     fault fired, mirroring the interpreter's body. *)
  let compile_term (x : Block_exec.t) ~self (term : int Ablock.terminator) : chain =
    let regs = x.Block_exec.regs in
    let ints = regs.Regfile.ints in
    match term with
    | Ablock.Trap { cmp; rs1; rs2; taken; not_taken; _ } ->
      let on_taken st =
        st.Block_exec.last_next <- taken;
        st.Block_exec.last_dir <- 1
      and on_not_taken st =
        st.Block_exec.last_next <- not_taken;
        st.Block_exec.last_dir <- 0
      in
      int_cond ~regs ~ints cmp rs1 rs2 on_taken on_not_taken
    | Ablock.Goto l -> fun st -> st.Block_exec.last_next <- l
    | Ablock.Call { callee; ret_to } ->
      let ra = Reg.index Reg.ra in
      fun st ->
        (* r31: direct write, never the r0 drop (matches Regfile.set_i) *)
        Array.unsafe_set ints ra ret_to;
        st.Block_exec.last_next <- callee
    | Ablock.Return ->
      let ra = Reg.index Reg.ra in
      fun st -> st.Block_exec.last_next <- Array.unsafe_get ints ra
    | Ablock.Ijump r ->
      if Reg.is_int r then
        let r = ix r in
        fun st -> st.Block_exec.last_next <- Array.unsafe_get ints r
      else fun st -> st.Block_exec.last_next <- Regfile.get_i regs r
    | Ablock.Halt ->
      fun st ->
        st.Block_exec.halted <- true;
        st.Block_exec.last_next <- self

  let compile_block x ~self (blk : int Ablock.t) : chain =
    let n = Array.length blk.Ablock.elts in
    let rec build pos =
      if pos = n then compile_term x ~self blk.Ablock.term
      else compile_elt x ~pos blk.Ablock.elts.(pos) (build (pos + 1))
    in
    build 0

  let compile_trusted (prog : Block_prog.t) = { cprog = prog }

  let compile (w : Bisa_verify.Verify.verified_block_prog) =
    compile_trusted (w :> Block_prog.t)

  let bind (code : code) (x : Block_exec.t) : Block_exec.body =
    let prog = code.cprog in
    if not (prog == x.Block_exec.prog || prog = x.Block_exec.prog) then
      invalid_arg "Compile.Block.bind: code compiled from a different program";
    let chains = Array.mapi (fun b blk -> compile_block x ~self:b blk) prog.blocks in
    fun b -> chains.(b) x

  let run ?(budget = 2_000_000_000) (code : code) =
    let x = Block_exec.create code.cprog in
    Block_exec.set_budget x budget;
    let body = bind code x in
    while Block_exec.step_into body ~fetch:x.Block_exec.required x >= 0 do
      ()
    done;
    (Block_exec.output x, Block_exec.retired_ops x)
end

module Conv = struct
  (* A packet thread runs on the executor it was built for, whose step
     fields it writes. *)
  type thread = Conv_exec.t -> unit

  (* The run chain's state: its executor and the remaining dyn budget,
     exact at every thread entry and at every faultable access, so the
     Unaligned handler can reconstruct the exact dyn count. *)
  type fuel_st = { x : Conv_exec.t; mutable fuel : int }

  type fast = fuel_st -> unit

  (* A handle on the program, as in [Block]: [bind] builds the packet
     threads and [run] the run-to-halt chain, each for its own use. *)
  type code = { cprog : Conv_prog.t }

  let prog c = c.cprog
  let kbr_t = Conv_exec.Kbr true
  let kbr_f = Conv_exec.Kbr false

  (* Fallback for class-malformed trusted programs, as in [Block]: the
     interpreter's own Opsem; returns the access address or -1. *)
  let opsem (x : Conv_exec.t) op =
    Opsem.exec ~regs:x.Conv_exec.regs ~mem:x.Conv_exec.mem ~sbuf:None
      ~out:(fun item -> Output.Sink.push x.Conv_exec.sink item)
      op

  (* Both conventional chains print straight to the sink — there is no
     atomic block to wait for — and share [reg_op] for the rest. *)
  let print_or_reg_op (x : Conv_exec.t) (op : Op.t) (k : 's -> unit) : 's -> unit =
    let { Regfile.ints; flts } = x.Conv_exec.regs in
    match op with
    | Op.Print s ->
      let s = ix s in
      fun st ->
        Output.Sink.push x.Conv_exec.sink (Output.Oint (Array.unsafe_get ints s));
        k st
    | Op.Printf s ->
      let s = ix s in
      fun st ->
        Output.Sink.push x.Conv_exec.sink (Output.Oflt (Array.unsafe_get flts s));
        k st
    | _ -> reg_op ~ints ~flts op k

  (* --- packet threads ----------------------------------------------------

     [bind] builds one thread per pc; the body it returns enters the
     thread of the packet's start.  Each instruction runs the body's
     prologue, then its own code: an op falls through to the next pc's
     thread, a control instruction ends the packet by setting
     [last_term]/[last_next]. *)

  (* At the step's [limit] the protocol decides ([Conv_exec.stop]);
     below it, the instruction takes its address slot, [-1] until a
     memory op overwrites it (the array is reused across packets). *)
  let with_prologue pc (body : thread) : thread =
   fun st ->
    let count = st.Conv_exec.last_count in
    if count >= st.Conv_exec.limit then Conv_exec.stop st pc
    else begin
      Array.unsafe_set st.Conv_exec.last_addrs count (-1);
      st.Conv_exec.last_count <- count + 1;
      body st
    end

  (* A memory op overwrites its instruction's slot with the address. *)
  let packet_op (x : Conv_exec.t) (op : Op.t) (k : thread) : thread =
    let { Regfile.ints; flts } = x.Conv_exec.regs in
    let mem = x.Conv_exec.mem in
    if not (classes_ok op) then
      fun st ->
        st.Conv_exec.last_addrs.(st.Conv_exec.last_count - 1) <- opsem x op;
        k st
    else
      match op with
      | Op.Load (d, b, off) ->
        let d = ix d and b = ix b in
        fun st ->
          let addr = Array.unsafe_get ints b + off in
          let v = Memory.load mem addr in
          if d <> 0 then Array.unsafe_set ints d v;
          st.Conv_exec.last_addrs.(st.Conv_exec.last_count - 1) <- addr;
          k st
      | Op.Loadf (d, b, off) ->
        let d = ix d and b = ix b in
        fun st ->
          let addr = Array.unsafe_get ints b + off in
          Array.unsafe_set flts d (Memory.loadf mem addr);
          st.Conv_exec.last_addrs.(st.Conv_exec.last_count - 1) <- addr;
          k st
      | Op.Store (s, b, off) ->
        let s = ix s and b = ix b in
        fun st ->
          let addr = Array.unsafe_get ints b + off in
          Memory.store mem addr (Array.unsafe_get ints s);
          st.Conv_exec.last_addrs.(st.Conv_exec.last_count - 1) <- addr;
          k st
      | Op.Storef (s, b, off) ->
        let s = ix s and b = ix b in
        fun st ->
          let addr = Array.unsafe_get ints b + off in
          Memory.storef mem addr (Array.unsafe_get flts s);
          st.Conv_exec.last_addrs.(st.Conv_exec.last_count - 1) <- addr;
          k st
      | _ -> print_or_reg_op x op k

  let compile_insn (x : Conv_exec.t) ~(next : thread) pc (insn : int Insn.t) : thread =
    let regs = x.Conv_exec.regs in
    let ints = regs.Regfile.ints in
    let ra = Reg.index Reg.ra in
    match insn with
    | Insn.Op op -> packet_op x op next
    | Insn.Br (c, s1, s2, target) ->
      let taken st =
        st.Conv_exec.last_term <- kbr_t;
        st.Conv_exec.last_next <- target
      and not_taken st =
        st.Conv_exec.last_term <- kbr_f;
        st.Conv_exec.last_next <- pc + 1
      in
      int_cond ~regs ~ints c s1 s2 taken not_taken
    | Insn.Jmp target ->
      fun st ->
        st.Conv_exec.last_term <- Conv_exec.Kjmp;
        st.Conv_exec.last_next <- target
    | Insn.Call target ->
      fun st ->
        Array.unsafe_set ints ra (pc + 1);
        st.Conv_exec.last_term <- Conv_exec.Kcall;
        st.Conv_exec.last_next <- target
    | Insn.Ret ->
      fun st ->
        st.Conv_exec.last_term <- Conv_exec.Kret;
        st.Conv_exec.last_next <- Array.unsafe_get ints ra
    | Insn.Jr r when Reg.is_int r ->
      let r = ix r in
      fun st ->
        st.Conv_exec.last_term <- Conv_exec.Kjr;
        st.Conv_exec.last_next <- Array.unsafe_get ints r
    | Insn.Jr r ->
      fun st ->
        let tgt = Regfile.get_i regs r in
        st.Conv_exec.last_term <- Conv_exec.Kjr;
        st.Conv_exec.last_next <- tgt
    | Insn.Halt ->
      fun st ->
        st.Conv_exec.halted <- true;
        st.Conv_exec.last_term <- Conv_exec.Khalt;
        st.Conv_exec.last_next <- pc

  (* One thread per pc, built backward so an op's fall-through is a
     direct call to the next pc's thread, plus the off-the-end sentinel. *)
  let packet_threads (x : Conv_exec.t) (prog : Conv_prog.t) =
    let n = Array.length prog.insns in
    let threads = Array.make (n + 1) (fun (_ : Conv_exec.t) -> assert false) in
    (* Fall-through off the program's end, as in the interpreter. *)
    threads.(n) <- (fun st -> Conv_exec.off_end st n);
    for pc = n - 1 downto 0 do
      let body = compile_insn x ~next:threads.(pc + 1) pc prog.insns.(pc) in
      threads.(pc) <- with_prologue pc body
    done;
    threads

  (* --- the run-to-halt chain ---------------------------------------------

     [run] retains no per-step records, so the packet bookkeeping above
     (address slots, packet-cap splits, one record and one fresh array
     per packet) is pure overhead there.  A second thread array drives
     run-to-halt directly: every entry applies its instructions to the
     executor state and tail-calls its successor — compiled backward, so
     fall-through and forward jumps are direct calls to already-built
     entries and only back edges and computed targets go through the
     array.

     The dyn budget lives in [st.fuel] ([fuel] = budget minus the
     instructions paid for), exact at every entry; threads are
     one-argument closures on purpose — a two-argument call to a
     statically-unknown closure goes through the shared caml_apply2
     stub, whose single indirect jump retargets on every dispatch and
     defeats the branch predictor.  [x.dyn] is reconstructed at every
     exit, which keeps the Runaway point, its payload, and the dyn count
     after an Unaligned halt exactly the interpreter's.  The packet cap
     only decides where packets split (no architectural effect), so
     outputs, dyn counts, machine traps and exceptions are all preserved;
     the final [pc] is the one field [run] leaves unspecified, and its
     executor is private to it.  This path is what the oracle's
     conv-compiled leg fuzzes differentially against the interpreter.

     Straight-line fusion: a run of consecutive [Insn.Op]s is one CPS
     chain of [reg_op]-style closures with a single entry, which checks
     and pays the whole run's fuel up front and then enters the chain.
     The branch or jump ending the run folds into it.  If the remaining
     budget cannot cover the run, the entry falls back to the per-op
     checked thread, which charges op by op and raises Runaway at exactly
     the interpreter's instruction — so fusion never changes where the
     budget runs out.  Runs are capped so the suffix entry built for
     every pc (any pc can be a computed-jump target) stays linear in
     program size. *)

  (* The insn that would be the (budget+1)-th: raise before its effects,
     with the interpreter's exact dyn value. *)
  let runaway st =
    let x = st.x in
    x.Conv_exec.dyn <- x.Conv_exec.budget + 1;
    raise (Conv_exec.Runaway x.Conv_exec.dyn)

  (* [st.fuel] is post-charge for the jumping insn; the wild target
     itself is never charged, as in the packet step. *)
  let wild st target =
    let x = st.x in
    x.Conv_exec.dyn <- x.Conv_exec.budget - st.fuel;
    x.Conv_exec.halted <- true;
    x.Conv_exec.mtrap <- Some (Conv_exec.Wild_jump target)

  (* A per-instruction thread's charge, inlined into every thread (it is
     not otherwise: a function call per executed instruction). *)
  let[@inline] pay1 st =
    let fuel = st.fuel in
    if fuel = 0 then runaway st;
    st.fuel <- fuel - 1

  (* A run-chain op.  [left] counts the instructions after it in its run:
     paid for at the run's entry, not executed yet.  A faultable op adds
     them back around its access, so [st.fuel] is exact if the access
     raises. *)
  let run_op (x : Conv_exec.t) ~left (op : Op.t) (k : fast) : fast =
    let { Regfile.ints; flts } = x.Conv_exec.regs in
    let mem = x.Conv_exec.mem in
    if not (classes_ok op) then
      fun st ->
        st.fuel <- st.fuel + left;
        ignore (opsem x op : int);
        st.fuel <- st.fuel - left;
        k st
    else
      match op with
      | Op.Load (d, b, off) ->
        let d = ix d and b = ix b in
        fun st ->
          st.fuel <- st.fuel + left;
          let v = Memory.load mem (Array.unsafe_get ints b + off) in
          st.fuel <- st.fuel - left;
          if d <> 0 then Array.unsafe_set ints d v;
          k st
      | Op.Loadf (d, b, off) ->
        let d = ix d and b = ix b in
        fun st ->
          st.fuel <- st.fuel + left;
          Array.unsafe_set flts d (Memory.loadf mem (Array.unsafe_get ints b + off));
          st.fuel <- st.fuel - left;
          k st
      | Op.Store (s, b, off) ->
        let s = ix s and b = ix b in
        fun st ->
          st.fuel <- st.fuel + left;
          Memory.store mem (Array.unsafe_get ints b + off) (Array.unsafe_get ints s);
          st.fuel <- st.fuel - left;
          k st
      | Op.Storef (s, b, off) ->
        let s = ix s and b = ix b in
        fun st ->
          st.fuel <- st.fuel + left;
          Memory.storef mem (Array.unsafe_get ints b + off) (Array.unsafe_get flts s);
          st.fuel <- st.fuel - left;
          k st
      | _ -> print_or_reg_op x op k

  (* Longest run fused as one entry; also bounds the per-pc build cost
     (every pc gets a suffix-run entry, so an unrolled straight-line
     program would otherwise cost quadratic closures). *)
  let fuse_cap = 8

  (* The run-to-halt entries: one per pc, plus the off-the-end sentinel. *)
  let fast_chain (x : Conv_exec.t) (prog : Conv_prog.t) =
    let insns = prog.insns in
    let n = Array.length insns in
    let regs = x.Conv_exec.regs in
    let ints = regs.Regfile.ints in
    let ra = Reg.index Reg.ra in
    let fast = Array.make (n + 1) (fun (_ : fuel_st) -> assert false) in
    (* Off the end without a control transfer: the same architected
       Wild_jump as the packet sentinel's no-room-left arm. *)
    fast.(n) <- (fun st -> wild st n);
    (* A static target from the entry at [pc]: entries past [pc] are
       built already, a back edge reads [fast] when taken, and a target
       outside the program traps where the packet step would. *)
    let goto pc target : fast =
      if target < 0 || target > n then fun st -> wild st target
      else if target > pc then fast.(target)
      else fun st -> (Array.unsafe_get fast target) st
    in
    let jump st target =
      if target >= 0 && target <= n then (Array.unsafe_get fast target) st
      else wild st target
    in
    let run = ref 0 in
    for pc = n - 1 downto 0 do
      let next = fast.(pc + 1) in
      let single : fast =
        match insns.(pc) with
        | Insn.Op op ->
          let body = run_op x ~left:0 op next in
          fun st ->
            pay1 st;
            body st
        | Insn.Br (c, s1, s2, target) ->
          let body = int_cond ~regs ~ints c s1 s2 (goto pc target) next in
          fun st ->
            pay1 st;
            body st
        | Insn.Jmp target ->
          let t = goto pc target in
          fun st ->
            pay1 st;
            t st
        | Insn.Call target ->
          let t = goto pc target in
          fun st ->
            pay1 st;
            Array.unsafe_set ints ra (pc + 1);
            t st
        | Insn.Ret ->
          fun st ->
            pay1 st;
            jump st (Array.unsafe_get ints ra)
        | Insn.Jr r when Reg.is_int r ->
          let r = ix r in
          fun st ->
            pay1 st;
            jump st (Array.unsafe_get ints r)
        | Insn.Jr r ->
          fun st ->
            pay1 st;
            jump st (Regfile.get_i regs r)
        | Insn.Halt ->
          fun st ->
            pay1 st;
            x.Conv_exec.dyn <- x.Conv_exec.budget - st.fuel;
            x.Conv_exec.halted <- true
      in
      (run := match insns.(pc) with Insn.Op _ -> min fuse_cap (!run + 1) | _ -> 0);
      let m = !run in
      (* The branch or jump after the run folds into it (one more
         instruction to pay for) unless the run is capped or falls off
         the program's end. *)
      let folded =
        if m = 0 || m = fuse_cap || pc + m = n then None
        else
          match insns.(pc + m) with
          | Insn.Br (c, s1, s2, target) ->
            Some (int_cond ~regs ~ints c s1 s2 (goto pc target) fast.(pc + m + 1))
          | Insn.Jmp target -> Some (goto pc target)
          | _ -> None
      in
      fast.(pc) <-
        (match folded with
        | None when m < 2 -> single (* a lone op only pays off with a fold *)
        | _ ->
          let charge, fin =
            match folded with Some fin -> (m + 1, fin) | None -> (m, fast.(pc + m))
          in
          let rec chain j =
            if j = m then fin
            else
              match insns.(pc + j) with
              | Insn.Op op -> run_op x ~left:(charge - j - 1) op (chain (j + 1))
              | _ -> assert false
          in
          let body = chain 0 in
          fun st ->
            let fuel = st.fuel in
            if fuel < charge then single st
            else begin
              st.fuel <- fuel - charge;
              body st
            end)
    done;
    fast

  let compile_trusted (prog : Conv_prog.t) = { cprog = prog }

  let compile (w : Bisa_verify.Verify.verified_conv_prog) =
    compile_trusted (w :> Conv_prog.t)

  let bind (code : code) (x : Conv_exec.t) : Conv_exec.body =
    let prog = code.cprog in
    if not (prog == x.Conv_exec.prog || prog = x.Conv_exec.prog) then
      invalid_arg "Compile.Conv.bind: code compiled from a different program";
    let threads = packet_threads x prog in
    fun start -> threads.(start) x

  let run ?(budget = 2_000_000_000) (code : code) =
    let x = Conv_exec.create code.cprog in
    Conv_exec.set_budget x budget;
    let fast = fast_chain x code.cprog in
    let st = { x; fuel = budget } in
    let n = Array.length code.cprog.Conv_prog.insns in
    let pc = x.Conv_exec.pc in
    (try
       if pc >= 0 && pc <= n then fast.(pc) st
       else wild st pc
     with Memory.Unaligned a ->
       (* Committed effects stay (no packet atomicity in this machine);
          the offending access halts the run, as in the packet step.
          [st.fuel] was exact at the access. *)
       x.Conv_exec.dyn <- x.Conv_exec.budget - st.fuel;
       x.Conv_exec.halted <- true;
       x.Conv_exec.mtrap <- Some (Conv_exec.Unaligned_access a));
    (Conv_exec.output x, Conv_exec.dyn_insns x)
end
