(* Threaded-code compilation of the functional executors: each block (and
   each conventional instruction) becomes one specialized closure that
   tail-calls its successor, with operand indices and literals resolved at
   compile time.  The chains mutate the interpreter's own state records
   (Block_exec.t / Conv_exec.t), so every observable — registers, memory,
   output sink, counters, traps, checkpoints — is shared with the
   interpreter by construction.  Where the interpreter would raise
   (Runaway, Illegal_fetch, register-class Invalid_argument on trusted
   malformed input), the compiled path raises at the same program point;
   where it traps (Wild_jump, Unaligned_access), the compiled path traps. *)

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

let backend_of_string s =
  match List.assoc_opt s backends with Some b -> Some b | None -> None

(* Comparators specialized to unboxed arguments: resolved once at compile
   time, so executing a fault/trap/select does one direct int compare. *)
let icmp : Cmp.t -> int -> int -> bool = function
  | Cmp.Eq -> fun a b -> a = b
  | Cmp.Ne -> fun a b -> a <> b
  | Cmp.Lt -> fun a b -> a < b
  | Cmp.Le -> fun a b -> a <= b
  | Cmp.Gt -> fun a b -> a > b
  | Cmp.Ge -> fun a b -> a >= b

(* Binary ALU function, literal-identical to Op.eval_alu arm by arm. *)
let alu_fn : Op.alu -> int -> int -> int = function
  | Op.Add -> ( + )
  | Op.Sub -> ( - )
  | Op.Mul -> ( * )
  | Op.Div -> fun a b -> if b = 0 then 0 else a / b
  | Op.Rem -> fun a b -> if b = 0 then 0 else a mod b
  | Op.And -> ( land )
  | Op.Or -> ( lor )
  | Op.Xor -> ( lxor )
  | Op.Sll -> fun a b -> a lsl (b land 63)
  | Op.Srl -> fun a b -> a lsr (b land 63)
  | Op.Sra -> fun a b -> a asr (b land 63)
  | Op.Set c ->
    let cmp = icmp c in
    fun a b -> if cmp a b then 1 else 0

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

module Block = struct
  (* Per-binding scratch threaded through the chain.  [ints]/[flts]
     alias the executor's register file arrays; everything else is
     intra-step state the epilogue consumes. *)
  type st = {
    x : Block_exec.t;
    ints : int array;
    flts : float array;
    sints : int array;  (* shadow register file, same aliasing *)
    sflts : float array;
    mutable addrs : int array;  (* this step's mem_addrs, -1-initialized *)
    scratch : int array;  (* [step_into]'s reusable mem_addrs, max-sized *)
    mutable fpos : int;  (* firing fault position, -1 = none *)
    mutable ftarget : int;
    mutable next : int;  (* terminator's successor *)
    mutable dir : int;  (* trap direction: -1 none / 0 not-taken / 1 taken *)
    mutable r_block : int;  (* last [step_into] results *)
    mutable r_ops : int;
    mutable out_rev : Output.item list;  (* pending prints, newest first *)
  }

  type chain = st -> unit

  (* A handle on the program: the chains are built by [bind], so they
     live exactly as long as the binding that executes them. *)
  type code = { cprog : Block_prog.t }

  let prog c = c.cprog

  (* Fallback for class-malformed trusted programs: run the interpreter's
     own Opsem on this element so exceptions and evaluation order are
     identical by definition. *)
  let generic_op ~pos op (k : chain) : chain =
   fun st ->
    let x = st.x in
    st.addrs.(pos) <-
      Opsem.exec ~regs:x.Block_exec.regs ~mem:x.Block_exec.mem
        ~sbuf:(Some x.Block_exec.sbuf)
        ~out:(fun item -> st.out_rev <- item :: st.out_rev)
        op;
    k st

  let compile_op ~pos (op : Op.t) (k : chain) : chain =
    if not (classes_ok op) then generic_op ~pos op k
    else
      match op with
      | Op.Nop -> k
      | Op.Mov (d, s) when Reg.is_int d ->
        let d = ix d and s = ix s in
        if d = 0 then k
        else
          fun st ->
           Array.unsafe_set st.ints (d) ((Array.unsafe_get st.ints (s)));
           k st
      | Op.Mov (d, s) ->
        let d = ix d and s = ix s in
        fun st ->
          Array.unsafe_set st.flts (d) ((Array.unsafe_get st.flts (s)));
          k st
      | Op.Li (d, v) ->
        let d = ix d in
        if d = 0 then k
        else
          fun st ->
           Array.unsafe_set st.ints (d) (v);
           k st
      | Op.Lif (d, v) ->
        let d = ix d in
        fun st ->
          Array.unsafe_set st.flts (d) (v);
          k st
      | Op.Alu (a, d, s1, s2) -> (
        let d = ix d and s1 = ix s1 in
        if d = 0 then k
        else
          let fn = alu_fn a in
          match s2 with
          | Op.R r ->
            let s2 = ix r in
            fun st ->
              Array.unsafe_set st.ints (d) (fn (Array.unsafe_get st.ints (s1)) (Array.unsafe_get st.ints (s2)));
              k st
          | Op.I v ->
            fun st ->
              Array.unsafe_set st.ints (d) (fn (Array.unsafe_get st.ints (s1)) v);
              k st)
      | Op.Fpu (f, d, s1, s2) -> (
        let d = ix d and s1 = ix s1 and s2 = ix s2 in
        (* Inlined per arm: an indirect float->float call would box. *)
        match f with
        | Op.Fadd ->
          fun st ->
            Array.unsafe_set st.flts (d) ((Array.unsafe_get st.flts (s1)) +. (Array.unsafe_get st.flts (s2)));
            k st
        | Op.Fsub ->
          fun st ->
            Array.unsafe_set st.flts (d) ((Array.unsafe_get st.flts (s1)) -. (Array.unsafe_get st.flts (s2)));
            k st
        | Op.Fmul ->
          fun st ->
            Array.unsafe_set st.flts (d) ((Array.unsafe_get st.flts (s1)) *. (Array.unsafe_get st.flts (s2)));
            k st
        | Op.Fdiv ->
          fun st ->
            Array.unsafe_set st.flts (d) ((Array.unsafe_get st.flts (s1)) /. (Array.unsafe_get st.flts (s2)));
            k st)
      | Op.Fcmp (c, d, s1, s2) -> (
        let d = ix d and s1 = ix s1 and s2 = ix s2 in
        if d = 0 then k
        else
          match c with
          | Cmp.Eq ->
            fun st ->
              Array.unsafe_set st.ints (d) ((if (Array.unsafe_get st.flts (s1)) = (Array.unsafe_get st.flts (s2)) then 1 else 0));
              k st
          | Cmp.Ne ->
            fun st ->
              Array.unsafe_set st.ints (d) ((if (Array.unsafe_get st.flts (s1)) <> (Array.unsafe_get st.flts (s2)) then 1 else 0));
              k st
          | Cmp.Lt ->
            fun st ->
              Array.unsafe_set st.ints (d) ((if (Array.unsafe_get st.flts (s1)) < (Array.unsafe_get st.flts (s2)) then 1 else 0));
              k st
          | Cmp.Le ->
            fun st ->
              Array.unsafe_set st.ints (d) ((if (Array.unsafe_get st.flts (s1)) <= (Array.unsafe_get st.flts (s2)) then 1 else 0));
              k st
          | Cmp.Gt ->
            fun st ->
              Array.unsafe_set st.ints (d) ((if (Array.unsafe_get st.flts (s1)) > (Array.unsafe_get st.flts (s2)) then 1 else 0));
              k st
          | Cmp.Ge ->
            fun st ->
              Array.unsafe_set st.ints (d) ((if (Array.unsafe_get st.flts (s1)) >= (Array.unsafe_get st.flts (s2)) then 1 else 0));
              k st)
      | Op.Itof (d, s) ->
        let d = ix d and s = ix s in
        fun st ->
          Array.unsafe_set st.flts (d) (float_of_int (Array.unsafe_get st.ints (s)));
          k st
      | Op.Ftoi (d, s) ->
        let d = ix d and s = ix s in
        if d = 0 then k
        else
          fun st ->
           Array.unsafe_set st.ints (d) (int_of_float (Float.trunc (Array.unsafe_get st.flts (s))));
           k st
      | Op.Select (c, d, s1, s2, tr, fr) -> (
        let cmp = icmp c and s1 = ix s1 in
        let cond =
          match s2 with
          | Op.R r ->
            let s2 = ix r in
            fun st -> cmp (Array.unsafe_get st.ints (s1)) (Array.unsafe_get st.ints (s2))
          | Op.I v -> fun st -> cmp (Array.unsafe_get st.ints (s1)) v
        in
        if Reg.is_int d then
          let d = ix d and tr = ix tr and fr = ix fr in
          if d = 0 then k
          else
            fun st ->
             Array.unsafe_set st.ints (d) ((Array.unsafe_get st.ints (if cond st then tr else fr)));
             k st
        else
          let d = ix d and tr = ix tr and fr = ix fr in
          fun st ->
            Array.unsafe_set st.flts (d) ((Array.unsafe_get st.flts (if cond st then tr else fr)));
            k st)
      | Op.Load (d, b, off) ->
        let d = ix d and b = ix b in
        fun st ->
          let x = st.x in
          let addr = (Array.unsafe_get st.ints (b)) + off in
          let v = Sbuf.load x.Block_exec.sbuf x.Block_exec.mem addr in
          if d <> 0 then Array.unsafe_set st.ints (d) (v);
          st.addrs.(pos) <- addr;
          k st
      | Op.Loadf (d, b, off) ->
        let d = ix d and b = ix b in
        fun st ->
          let x = st.x in
          let addr = (Array.unsafe_get st.ints (b)) + off in
          Array.unsafe_set st.flts (d) (Sbuf.loadf x.Block_exec.sbuf x.Block_exec.mem addr);
          st.addrs.(pos) <- addr;
          k st
      | Op.Store (s, b, off) ->
        let s = ix s and b = ix b in
        fun st ->
          let addr = (Array.unsafe_get st.ints (b)) + off in
          Sbuf.store st.x.Block_exec.sbuf addr (Array.unsafe_get st.ints (s));
          st.addrs.(pos) <- addr;
          k st
      | Op.Storef (s, b, off) ->
        let s = ix s and b = ix b in
        fun st ->
          let addr = (Array.unsafe_get st.ints (b)) + off in
          Sbuf.storef st.x.Block_exec.sbuf addr (Array.unsafe_get st.flts (s));
          st.addrs.(pos) <- addr;
          k st
      | Op.Print s ->
        let s = ix s in
        fun st ->
          st.out_rev <- Output.Oint (Array.unsafe_get st.ints (s)) :: st.out_rev;
          k st
      | Op.Printf s ->
        let s = ix s in
        fun st ->
          st.out_rev <- Output.Oflt (Array.unsafe_get st.flts (s)) :: st.out_rev;
          k st

  (* A firing fault records its position and returns without calling the
     continuation — the rest of the block never executes, exactly like
     the interpreter's loop exit. *)
  let compile_elt ~pos (elt : int Ablock.elt) (k : chain) : chain =
    match elt with
    | Ablock.Op op -> compile_op ~pos op k
    | Ablock.Fault (c, s1, s2, target) ->
      if Reg.is_int s1 && Reg.is_int s2 then
        let cmp = icmp c and s1 = ix s1 and s2 = ix s2 in
        fun st ->
          if cmp (Array.unsafe_get st.ints (s1)) (Array.unsafe_get st.ints (s2)) then begin
            st.fpos <- pos;
            st.ftarget <- target
          end
          else k st
      else
        fun st ->
         (* class-malformed guard: reproduce the interpreter's raise *)
         if
           Cmp.eval c
             (Regfile.get_i st.x.Block_exec.regs s1)
             (Regfile.get_i st.x.Block_exec.regs s2)
         then begin
           st.fpos <- pos;
           st.ftarget <- target
         end
         else k st

  (* The terminator is the last link of the chain: it only runs when no
     fault fired, mirroring the interpreter's commit path. *)
  let compile_term ~self (term : int Ablock.terminator) : chain =
    match term with
    | Ablock.Trap { cmp; rs1; rs2; taken; not_taken; _ } ->
      if Reg.is_int rs1 && Reg.is_int rs2 then
        let c = icmp cmp and s1 = ix rs1 and s2 = ix rs2 in
        fun st ->
          if c (Array.unsafe_get st.ints (s1)) (Array.unsafe_get st.ints (s2)) then begin
            st.next <- taken;
            st.dir <- 1
          end
          else begin
            st.next <- not_taken;
            st.dir <- 0
          end
      else
        fun st ->
         let dir =
           Cmp.eval cmp
             (Regfile.get_i st.x.Block_exec.regs rs1)
             (Regfile.get_i st.x.Block_exec.regs rs2)
         in
         st.next <- (if dir then taken else not_taken);
         st.dir <- (if dir then 1 else 0)
    | Ablock.Goto l -> fun st -> st.next <- l
    | Ablock.Call { callee; ret_to } ->
      fun st ->
        (* r31: direct write, never the r0 drop (matches Regfile.set_i) *)
        Array.unsafe_set st.ints (Reg.index Reg.ra) (ret_to);
        st.next <- callee
    | Ablock.Return ->
      let ra = Reg.index Reg.ra in
      fun st -> st.next <- (Array.unsafe_get st.ints (ra))
    | Ablock.Ijump r ->
      if Reg.is_int r then
        let r = ix r in
        fun st -> st.next <- (Array.unsafe_get st.ints (r))
      else fun st -> st.next <- Regfile.get_i st.x.Block_exec.regs r
    | Ablock.Halt ->
      fun st ->
        st.x.Block_exec.halted <- true;
        st.next <- self

  let compile_block ~self (blk : int Ablock.t) : chain =
    let n = Array.length blk.Ablock.elts in
    let rec build pos =
      if pos = n then compile_term ~self blk.Ablock.term
      else compile_elt ~pos blk.Ablock.elts.(pos) (build (pos + 1))
    in
    build 0

  (* The registers a block can write, per class.  The Call terminator's
     link write is included even though it only runs on commit (when
     nothing is restored) — the list is a static over-approximation. *)
  let written_regs (blk : int Ablock.t) =
    let ints = ref [] and flts = ref [] in
    let add r =
      let i = Reg.index r in
      if Reg.is_int r then begin
        if not (List.mem i !ints) then ints := i :: !ints
      end
      else if not (List.mem i !flts) then flts := i :: !flts
    in
    Array.iter
      (function
        | Ablock.Op op -> List.iter add (Op.defs op)
        | Ablock.Fault _ -> ())
      blk.Ablock.elts;
    (match blk.Ablock.term with Ablock.Call _ -> add Reg.ra | _ -> ());
    (Array.of_list (List.rev !ints), Array.of_list (List.rev !flts))

  let compile_trusted (prog : Block_prog.t) = { cprog = prog }

  let compile (w : Bisa_verify.Verify.verified_block_prog) =
    compile_trusted (w :> Block_prog.t)

  type t = {
    cprog : Block_prog.t;
    chains : chain array;  (* one per block *)
    sizes : int array;  (* body elements per block *)
    (* Registers each block can write (static), per class: the shadow
       save/restore only touches these instead of blitting the whole
       register file around every block. *)
    wr_int : int array array;
    wr_flt : int array array;
    st : st;
  }

  let exec t = t.st.x

  let bind (code : code) (x : Block_exec.t) =
    let prog = code.cprog in
    if not (prog == x.Block_exec.prog || prog = x.Block_exec.prog) then
      invalid_arg "Compile.Block.bind: code compiled from a different program";
    let written = Array.map written_regs prog.blocks in
    let sizes = Array.map (fun blk -> Array.length blk.Ablock.elts) prog.blocks in
    {
      cprog = prog;
      chains = Array.mapi (fun b blk -> compile_block ~self:b blk) prog.blocks;
      sizes;
      wr_int = Array.map fst written;
      wr_flt = Array.map snd written;
      st =
        {
          x;
          ints = Regfile.ints x.Block_exec.regs;
          flts = Regfile.flts x.Block_exec.regs;
          sints = Regfile.ints x.Block_exec.shadow;
          sflts = Regfile.flts x.Block_exec.shadow;
          addrs = [||];
          scratch = Array.make (max 1 (Array.fold_left max 0 sizes)) (-1);
          fpos = -1;
          ftarget = 0;
          next = 0;
          dir = -1;
          r_block = -1;
          r_ops = 0;
          out_rev = [];
        };
    }

  (* Shadow save/restore over the block's static written-register lists:
     equivalent to the interpreter's whole-file blits because registers
     the block cannot write never change between save and restore. *)
  let save_written st (wi : int array) (wf : int array) =
    for k = 0 to Array.length wi - 1 do
      let r = Array.unsafe_get wi k in
      Array.unsafe_set st.sints r (Array.unsafe_get st.ints r)
    done;
    for k = 0 to Array.length wf - 1 do
      let r = Array.unsafe_get wf k in
      Array.unsafe_set st.sflts r (Array.unsafe_get st.flts r)
    done

  let restore_written st (wi : int array) (wf : int array) =
    for k = 0 to Array.length wi - 1 do
      let r = Array.unsafe_get wi k in
      Array.unsafe_set st.ints r (Array.unsafe_get st.sints r)
    done;
    for k = 0 to Array.length wf - 1 do
      let r = Array.unsafe_get wf k in
      Array.unsafe_set st.flts r (Array.unsafe_get st.sflts r)
    done

  (* One block step, mirroring Block_exec.step line for line with the
     element loop replaced by the chain call.  The epilogue lands in
     [r_block]/[r_ops]/[dir] (plus [fpos]/[ftarget] or [next]) and the
     step's addresses in [addrs]: the reusable scratch, whose slots of
     non-memory ops keep stale values — sound for the timing engine,
     which gates every address read on the template's memory kind — or,
     with [fresh], a new [-1]-filled array a step record can keep.
     Returns [-1] where Block_exec.step returns [None], [0] for a
     committed block, [1] for a fault squash. *)
  let advance ~fresh ~fetch t =
    let st = t.st in
    let x = st.x in
    let nblocks = Array.length t.cprog.Block_prog.blocks in
    if x.Block_exec.halted then -1
    else if x.Block_exec.required < 0 || x.Block_exec.required >= nblocks
    then begin
      x.Block_exec.halted <- true;
      x.Block_exec.mtrap <- Some (Block_exec.Wild_jump x.Block_exec.required);
      -1
    end
    else begin
      let b =
        if
          fetch = x.Block_exec.required
          || Block_prog.in_group t.cprog ~rep:x.Block_exec.required fetch
        then fetch
        else
          raise
            (Block_exec.Illegal_fetch
               { required = x.Block_exec.required; requested = fetch })
      in
      if b < 0 || b >= nblocks then begin
        x.Block_exec.halted <- true;
        x.Block_exec.mtrap <- Some (Block_exec.Wild_jump b);
        -1
      end
      else begin
        let nelts = t.sizes.(b) in
        st.addrs <- (if fresh then Array.make nelts (-1) else st.scratch);
        let wi = t.wr_int.(b) and wf = t.wr_flt.(b) in
        save_written st wi wf;
        Sbuf.clear x.Block_exec.sbuf;
        st.fpos <- -1;
        st.dir <- -1;
        st.out_rev <- [];
        try
          t.chains.(b) st;
          if st.fpos >= 0 then begin
            (* Fault fired: suppress the whole block. *)
            let pos = st.fpos and target = st.ftarget in
            restore_written st wi wf;
            Sbuf.clear x.Block_exec.sbuf;
            x.Block_exec.dyn <- x.Block_exec.dyn + pos + 1;
            if x.Block_exec.dyn > x.Block_exec.budget then
              raise (Block_exec.Runaway x.Block_exec.dyn);
            if target < 0 || target >= nblocks then begin
              x.Block_exec.halted <- true;
              x.Block_exec.mtrap <- Some (Block_exec.Wild_jump target)
            end
            else x.Block_exec.required <- target;
            st.r_block <- b;
            st.r_ops <- pos + 1;
            st.dir <- -1;
            1
          end
          else begin
            (* Terminator already ran at the end of the chain; commit. *)
            let next = st.next in
            Sbuf.flush x.Block_exec.sbuf x.Block_exec.mem;
            List.iter
              (fun item -> Output.Sink.push x.Block_exec.sink item)
              (List.rev st.out_rev);
            let size = nelts + 1 in
            x.Block_exec.dyn <- x.Block_exec.dyn + size;
            x.Block_exec.retired <- x.Block_exec.retired + size;
            x.Block_exec.retired_blocks <- x.Block_exec.retired_blocks + 1;
            if x.Block_exec.dyn > x.Block_exec.budget then
              raise (Block_exec.Runaway x.Block_exec.dyn);
            if (not x.Block_exec.halted) && (next < 0 || next >= nblocks)
            then begin
              x.Block_exec.halted <- true;
              x.Block_exec.mtrap <- Some (Block_exec.Wild_jump next)
            end
            else if not x.Block_exec.halted then x.Block_exec.required <- next;
            st.r_block <- b;
            st.r_ops <- nelts;
            0
          end
        with Memory.Unaligned a ->
          restore_written st wi wf;
          Sbuf.clear x.Block_exec.sbuf;
          x.Block_exec.halted <- true;
          x.Block_exec.mtrap <- Some (Block_exec.Unaligned_access a);
          -1
      end
    end

  (* Zero-allocation stepping for the block timing pipeline: the results
     are only valid until the next call. *)
  let step_into ~fetch t = advance ~fresh:false ~fetch t

  let step ?fetch t =
    let st = t.st in
    let fetch = Option.value fetch ~default:st.x.Block_exec.required in
    match advance ~fresh:true ~fetch t with
    | -1 -> None
    | r ->
      let squashed = r = 1 in
      Some
        {
          Block_exec.block = st.r_block;
          ops_executed = st.r_ops;
          mem_addrs = st.addrs;
          squashed;
          fault_pos = (if squashed then Some st.fpos else None);
          next = (if squashed then st.ftarget else st.next);
          dir_taken = (if st.dir < 0 then None else Some (st.dir = 1));
        }

  let last_block t = t.st.r_block
  let last_ops t = t.st.r_ops
  let last_addrs t = t.st.addrs
  let last_dir t = t.st.dir

  let run ?(budget = 2_000_000_000) (code : code) =
    let x = Block_exec.create code.cprog in
    Block_exec.set_budget x budget;
    let t = bind code x in
    let rec go () = match step t with Some _ -> go () | None -> () in
    go ();
    (Block_exec.output x, Block_exec.retired_ops x)
end

module Conv = struct
  type st = {
    x : Conv_exec.t;
    ints : int array;
    flts : float array;
    saddrs : int array;  (* packet_cap-sized scratch; packets copy out *)
    mutable count : int;
    mutable term : Conv_exec.term_kind;
    mutable next : int;
    mutable last_start : int;  (* start pc of the last [step_into] packet *)
    mutable fuel : int;  (* fast path only: remaining dyn budget,
                            exact at every thread entry and synced
                            before any faultable access, so the
                            Unaligned handler can reconstruct the
                            exact dyn count *)
  }

  type thread = st -> unit

  (* A handle on the program, as in [Block]: [bind] builds the packet
     threads and [run] the run-to-halt chain, each for its own use. *)
  type code = { cprog : Conv_prog.t }

  let prog c = c.cprog
  let kbr_t = Conv_exec.Kbr true
  let kbr_f = Conv_exec.Kbr false

  (* Packet-cap check then budget charge, in the interpreter's order,
     before every instruction. *)
  let with_prologue pc (body : thread) : thread =
   fun st ->
    if st.count >= Conv_exec.packet_cap then begin
      st.term <- Conv_exec.Kfall;
      st.next <- pc
    end
    else begin
      let x = st.x in
      x.Conv_exec.dyn <- x.Conv_exec.dyn + 1;
      if x.Conv_exec.dyn > x.Conv_exec.budget then
        raise (Conv_exec.Runaway x.Conv_exec.dyn);
      body st
    end

  let generic_op op (k : thread) : thread =
   fun st ->
    let x = st.x in
    let a =
      Opsem.exec ~regs:x.Conv_exec.regs ~mem:x.Conv_exec.mem ~sbuf:None
        ~out:(fun item -> Output.Sink.push x.Conv_exec.sink item)
        op
    in
    st.saddrs.(st.count) <- a;
    st.count <- st.count + 1;
    k st

  (* Non-control ops record their slot (address or -1: the scratch array
     is reused across packets, so -1 must be written explicitly) and fall
     through to the next instruction's thread. *)
  let compile_op (op : Op.t) (k : thread) : thread =
    if not (classes_ok op) then generic_op op k
    else
      let pure (eff : thread) : thread =
       fun st ->
        st.saddrs.(st.count) <- -1;
        st.count <- st.count + 1;
        eff st;
        k st
      in
      match op with
      | Op.Nop ->
        fun st ->
          st.saddrs.(st.count) <- -1;
          st.count <- st.count + 1;
          k st
      | Op.Mov (d, s) when Reg.is_int d ->
        let d = ix d and s = ix s in
        if d = 0 then pure (fun _ -> ())
        else pure (fun st -> Array.unsafe_set st.ints (d) ((Array.unsafe_get st.ints (s))))
      | Op.Mov (d, s) ->
        let d = ix d and s = ix s in
        pure (fun st -> Array.unsafe_set st.flts (d) ((Array.unsafe_get st.flts (s))))
      | Op.Li (d, v) ->
        let d = ix d in
        if d = 0 then pure (fun _ -> ()) else pure (fun st -> Array.unsafe_set st.ints (d) (v))
      | Op.Lif (d, v) ->
        let d = ix d in
        pure (fun st -> Array.unsafe_set st.flts (d) (v))
      | Op.Alu (a, d, s1, s2) -> (
        let d = ix d and s1 = ix s1 in
        if d = 0 then pure (fun _ -> ())
        else
          let fn = alu_fn a in
          match s2 with
          | Op.R r ->
            let s2 = ix r in
            pure (fun st -> Array.unsafe_set st.ints (d) (fn (Array.unsafe_get st.ints (s1)) (Array.unsafe_get st.ints (s2))))
          | Op.I v -> pure (fun st -> Array.unsafe_set st.ints (d) (fn (Array.unsafe_get st.ints (s1)) v)))
      | Op.Fpu (f, d, s1, s2) -> (
        let d = ix d and s1 = ix s1 and s2 = ix s2 in
        match f with
        | Op.Fadd -> pure (fun st -> Array.unsafe_set st.flts (d) ((Array.unsafe_get st.flts (s1)) +. (Array.unsafe_get st.flts (s2))))
        | Op.Fsub -> pure (fun st -> Array.unsafe_set st.flts (d) ((Array.unsafe_get st.flts (s1)) -. (Array.unsafe_get st.flts (s2))))
        | Op.Fmul -> pure (fun st -> Array.unsafe_set st.flts (d) ((Array.unsafe_get st.flts (s1)) *. (Array.unsafe_get st.flts (s2))))
        | Op.Fdiv -> pure (fun st -> Array.unsafe_set st.flts (d) ((Array.unsafe_get st.flts (s1)) /. (Array.unsafe_get st.flts (s2)))))
      | Op.Fcmp (c, d, s1, s2) -> (
        let d = ix d and s1 = ix s1 and s2 = ix s2 in
        if d = 0 then pure (fun _ -> ())
        else
          match c with
          | Cmp.Eq ->
            pure (fun st -> Array.unsafe_set st.ints (d) ((if (Array.unsafe_get st.flts (s1)) = (Array.unsafe_get st.flts (s2)) then 1 else 0)))
          | Cmp.Ne ->
            pure (fun st ->
                Array.unsafe_set st.ints (d) ((if (Array.unsafe_get st.flts (s1)) <> (Array.unsafe_get st.flts (s2)) then 1 else 0)))
          | Cmp.Lt ->
            pure (fun st -> Array.unsafe_set st.ints (d) ((if (Array.unsafe_get st.flts (s1)) < (Array.unsafe_get st.flts (s2)) then 1 else 0)))
          | Cmp.Le ->
            pure (fun st ->
                Array.unsafe_set st.ints (d) ((if (Array.unsafe_get st.flts (s1)) <= (Array.unsafe_get st.flts (s2)) then 1 else 0)))
          | Cmp.Gt ->
            pure (fun st -> Array.unsafe_set st.ints (d) ((if (Array.unsafe_get st.flts (s1)) > (Array.unsafe_get st.flts (s2)) then 1 else 0)))
          | Cmp.Ge ->
            pure (fun st ->
                Array.unsafe_set st.ints (d) ((if (Array.unsafe_get st.flts (s1)) >= (Array.unsafe_get st.flts (s2)) then 1 else 0))))
      | Op.Itof (d, s) ->
        let d = ix d and s = ix s in
        pure (fun st -> Array.unsafe_set st.flts (d) (float_of_int (Array.unsafe_get st.ints (s))))
      | Op.Ftoi (d, s) ->
        let d = ix d and s = ix s in
        if d = 0 then pure (fun _ -> ())
        else pure (fun st -> Array.unsafe_set st.ints (d) (int_of_float (Float.trunc (Array.unsafe_get st.flts (s)))))
      | Op.Select (c, d, s1, s2, tr, fr) -> (
        let cmp = icmp c and s1 = ix s1 in
        let cond =
          match s2 with
          | Op.R r ->
            let s2 = ix r in
            fun st -> cmp (Array.unsafe_get st.ints (s1)) (Array.unsafe_get st.ints (s2))
          | Op.I v -> fun st -> cmp (Array.unsafe_get st.ints (s1)) v
        in
        if Reg.is_int d then
          let d = ix d and tr = ix tr and fr = ix fr in
          if d = 0 then pure (fun _ -> ())
          else pure (fun st -> Array.unsafe_set st.ints (d) ((Array.unsafe_get st.ints (if cond st then tr else fr))))
        else
          let d = ix d and tr = ix tr and fr = ix fr in
          pure (fun st -> Array.unsafe_set st.flts (d) ((Array.unsafe_get st.flts (if cond st then tr else fr)))))
      | Op.Load (d, b, off) ->
        let d = ix d and b = ix b in
        fun st ->
          let addr = (Array.unsafe_get st.ints (b)) + off in
          let v = Memory.load st.x.Conv_exec.mem addr in
          if d <> 0 then Array.unsafe_set st.ints (d) (v);
          st.saddrs.(st.count) <- addr;
          st.count <- st.count + 1;
          k st
      | Op.Loadf (d, b, off) ->
        let d = ix d and b = ix b in
        fun st ->
          let addr = (Array.unsafe_get st.ints (b)) + off in
          Array.unsafe_set st.flts (d) (Memory.loadf st.x.Conv_exec.mem addr);
          st.saddrs.(st.count) <- addr;
          st.count <- st.count + 1;
          k st
      | Op.Store (s, b, off) ->
        let s = ix s and b = ix b in
        fun st ->
          let addr = (Array.unsafe_get st.ints (b)) + off in
          Memory.store st.x.Conv_exec.mem addr (Array.unsafe_get st.ints (s));
          st.saddrs.(st.count) <- addr;
          st.count <- st.count + 1;
          k st
      | Op.Storef (s, b, off) ->
        let s = ix s and b = ix b in
        fun st ->
          let addr = (Array.unsafe_get st.ints (b)) + off in
          Memory.storef st.x.Conv_exec.mem addr (Array.unsafe_get st.flts (s));
          st.saddrs.(st.count) <- addr;
          st.count <- st.count + 1;
          k st
      | Op.Print s ->
        let s = ix s in
        pure (fun st -> Output.Sink.push st.x.Conv_exec.sink (Output.Oint (Array.unsafe_get st.ints (s))))
      | Op.Printf s ->
        let s = ix s in
        pure (fun st -> Output.Sink.push st.x.Conv_exec.sink (Output.Oflt (Array.unsafe_get st.flts (s))))

  (* Control instructions end the packet by setting term/next. *)
  let control (eff : thread) : thread =
   fun st ->
    st.saddrs.(st.count) <- -1;
    st.count <- st.count + 1;
    eff st

  let compile_insn threads pc (insn : int Insn.t) : thread =
    match insn with
    | Insn.Op op ->
      with_prologue pc (compile_op op (fun st -> threads.(pc + 1) st))
    | Insn.Br (c, s1, s2, target) ->
      with_prologue pc
        (if Reg.is_int s1 && Reg.is_int s2 then
           let cmp = icmp c and s1 = ix s1 and s2 = ix s2 in
           control (fun st ->
               if cmp (Array.unsafe_get st.ints (s1)) (Array.unsafe_get st.ints (s2)) then begin
                 st.term <- kbr_t;
                 st.next <- target
               end
               else begin
                 st.term <- kbr_f;
                 st.next <- pc + 1
               end)
         else
           control (fun st ->
               let taken =
                 Cmp.eval c
                   (Regfile.get_i st.x.Conv_exec.regs s1)
                   (Regfile.get_i st.x.Conv_exec.regs s2)
               in
               st.term <- (if taken then kbr_t else kbr_f);
               st.next <- (if taken then target else pc + 1)))
    | Insn.Jmp target ->
      with_prologue pc
        (control (fun st ->
             st.term <- Conv_exec.Kjmp;
             st.next <- target))
    | Insn.Call target ->
      let ra = Reg.index Reg.ra in
      with_prologue pc
        (control (fun st ->
             Array.unsafe_set st.ints (ra) (pc + 1);
             st.term <- Conv_exec.Kcall;
             st.next <- target))
    | Insn.Ret ->
      let ra = Reg.index Reg.ra in
      with_prologue pc
        (control (fun st ->
             st.term <- Conv_exec.Kret;
             st.next <- (Array.unsafe_get st.ints (ra))))
    | Insn.Jr r ->
      with_prologue pc
        (if Reg.is_int r then
           let r = ix r in
           control (fun st ->
               st.term <- Conv_exec.Kjr;
               st.next <- (Array.unsafe_get st.ints (r)))
         else
           control (fun st ->
               let tgt = Regfile.get_i st.x.Conv_exec.regs r in
               st.term <- Conv_exec.Kjr;
               st.next <- tgt))
    | Insn.Halt ->
      with_prologue pc
        (control (fun st ->
             st.x.Conv_exec.halted <- true;
             st.term <- Conv_exec.Khalt;
             st.next <- pc))

  (* --- direct-threaded functional execution ----------------------------

     [run] retains no per-step records, so the packet bookkeeping above
     (mem_addrs slots, packet-cap splits, one record and one fresh array
     per packet) is pure overhead there.  A second thread array drives
     run-to-halt directly: every instruction is a single closure that
     applies its effect to the shared executor state and tail-calls its
     successor — compiled backward so fall-through is a direct call to
     the already-built successor closure, and control flow is a computed
     tail call through the array.

     The dyn budget lives in [st.fuel] ([fuel] = budget minus ops
     executed), exact at every thread entry; threads are one-argument
     closures on purpose — a two-argument call to a statically-unknown
     closure goes through the shared caml_apply2 stub, whose single
     indirect jump retargets on every dispatch and defeats the branch
     predictor.  [x.dyn] is reconstructed at every exit, and [st.fuel]
     is synced before any access that can raise, which keeps the
     Runaway point, its payload, and the dyn count after an Unaligned
     halt exactly the interpreter's.  The packet cap only
     decides where packets split (no architectural effect), so outputs,
     dyn counts, machine traps and exceptions are all preserved; the
     final [pc] is the one field [run] leaves unspecified, and its
     executor is private to it.  This path is what the oracle's
     conv-compiled leg fuzzes differentially against the interpreter. *)

  type fthread = st -> unit

  (* The insn that would be the (budget+1)-th: raise before its effects,
     with the interpreter's exact dyn value. *)
  let runaway st =
    let x = st.x in
    x.Conv_exec.dyn <- x.Conv_exec.budget + 1;
    raise (Conv_exec.Runaway x.Conv_exec.dyn)

  (* [st.fuel] is post-charge for the jumping insn; the wild target
     itself is never charged, as in the packet driver. *)
  let wild st target =
    let x = st.x in
    x.Conv_exec.dyn <- x.Conv_exec.budget - st.fuel;
    x.Conv_exec.halted <- true;
    x.Conv_exec.mtrap <- Some (Conv_exec.Wild_jump target)

  (* --- straight-line fusion --------------------------------------------

     Runs of consecutive [Insn.Op]s pay one fuel check, one [st.fuel]
     sync and one successor dispatch for the whole run: each op becomes
     an effect-only closure ([st -> unit], a cheap one-argument call)
     sequenced directly inside the run's entry closure.  If the
     remaining budget cannot cover the run, the entry falls back to the
     per-op checked chain, which charges op by op and raises Runaway at
     exactly the interpreter's instruction — so fusion never changes
     where the budget runs out.  Faultable ops (memory accesses and the
     class-malformed Opsem fallback) re-sync [st.fuel] by their
     compile-time distance from the previous sync, so an Unaligned
     raised mid-run still reconstructs the interpreter's exact dyn
     count.  Runs are capped so the suffix entry built for every pc (any
     pc can be a computed-jump target) stays linear in program size. *)

  let noop (_ : st) = ()

  let op_faultable (op : Op.t) =
    (not (classes_ok op))
    ||
    match op with
    | Op.Load _ | Op.Loadf _ | Op.Store _ | Op.Storef _ -> true
    | _ -> false

  (* Effect-only compilation: no fuel check, no successor.  [gap] is how
     many run ops were charged since the last [st.fuel] sync (the run
     entry or the previous faultable op), counting this one; only
     faultable arms consume it. *)
  let compile_op_eff (op : Op.t) ~(gap : int) : st -> unit =
    if not (classes_ok op) then
      fun st ->
        st.fuel <- st.fuel - gap;
        let x = st.x in
        ignore
          (Opsem.exec ~regs:x.Conv_exec.regs ~mem:x.Conv_exec.mem ~sbuf:None
             ~out:(fun item -> Output.Sink.push x.Conv_exec.sink item)
             op
            : int)
    else
      match op with
      | Op.Nop -> noop
      | Op.Mov (d, s) when Reg.is_int d ->
        let d = ix d and s = ix s in
        if d = 0 then noop
        else fun st -> Array.unsafe_set st.ints d (Array.unsafe_get st.ints s)
      | Op.Mov (d, s) ->
        let d = ix d and s = ix s in
        fun st -> Array.unsafe_set st.flts d (Array.unsafe_get st.flts s)
      | Op.Li (d, v) ->
        let d = ix d in
        if d = 0 then noop else fun st -> Array.unsafe_set st.ints d v
      | Op.Lif (d, v) ->
        let d = ix d in
        fun st -> Array.unsafe_set st.flts d v
      | Op.Alu (a, d, s1, s2) -> (
        let d = ix d and s1 = ix s1 in
        if d = 0 then noop
        else
          (* Specialized per opcode and operand form: an [alu_fn]
             closure would cost a caml_apply2 per executed ALU op, the
             most common dynamic instruction kind. *)
          match s2 with
          | Op.R r -> (
            let s2 = ix r in
            match a with
            | Op.Add ->
              fun st ->
                let x = Array.unsafe_get st.ints s1
                and y = Array.unsafe_get st.ints s2 in
                Array.unsafe_set st.ints d (x + y)
            | Op.Sub ->
              fun st ->
                let x = Array.unsafe_get st.ints s1
                and y = Array.unsafe_get st.ints s2 in
                Array.unsafe_set st.ints d (x - y)
            | Op.Mul ->
              fun st ->
                let x = Array.unsafe_get st.ints s1
                and y = Array.unsafe_get st.ints s2 in
                Array.unsafe_set st.ints d (x * y)
            | Op.Div ->
              fun st ->
                let x = Array.unsafe_get st.ints s1
                and y = Array.unsafe_get st.ints s2 in
                Array.unsafe_set st.ints d (if y = 0 then 0 else x / y)
            | Op.Rem ->
              fun st ->
                let x = Array.unsafe_get st.ints s1
                and y = Array.unsafe_get st.ints s2 in
                Array.unsafe_set st.ints d (if y = 0 then 0 else x mod y)
            | Op.And ->
              fun st ->
                let x = Array.unsafe_get st.ints s1
                and y = Array.unsafe_get st.ints s2 in
                Array.unsafe_set st.ints d (x land y)
            | Op.Or ->
              fun st ->
                let x = Array.unsafe_get st.ints s1
                and y = Array.unsafe_get st.ints s2 in
                Array.unsafe_set st.ints d (x lor y)
            | Op.Xor ->
              fun st ->
                let x = Array.unsafe_get st.ints s1
                and y = Array.unsafe_get st.ints s2 in
                Array.unsafe_set st.ints d (x lxor y)
            | Op.Sll ->
              fun st ->
                let x = Array.unsafe_get st.ints s1
                and y = Array.unsafe_get st.ints s2 in
                Array.unsafe_set st.ints d (x lsl (y land 63))
            | Op.Srl ->
              fun st ->
                let x = Array.unsafe_get st.ints s1
                and y = Array.unsafe_get st.ints s2 in
                Array.unsafe_set st.ints d (x lsr (y land 63))
            | Op.Sra ->
              fun st ->
                let x = Array.unsafe_get st.ints s1
                and y = Array.unsafe_get st.ints s2 in
                Array.unsafe_set st.ints d (x asr (y land 63))
            | Op.Set c ->
              let cmp = icmp c in
              fun st ->
                Array.unsafe_set st.ints d
                  (if cmp (Array.unsafe_get st.ints s1) (Array.unsafe_get st.ints s2)
                   then 1
                   else 0))
          | Op.I v -> (
            match a with
            | Op.Add ->
              fun st ->
                let x = Array.unsafe_get st.ints s1 in
                Array.unsafe_set st.ints d (x + v)
            | Op.Sub ->
              fun st ->
                let x = Array.unsafe_get st.ints s1 in
                Array.unsafe_set st.ints d (x - v)
            | Op.Mul ->
              fun st ->
                let x = Array.unsafe_get st.ints s1 in
                Array.unsafe_set st.ints d (x * v)
            | Op.Div ->
              fun st ->
                let x = Array.unsafe_get st.ints s1 in
                Array.unsafe_set st.ints d (if v = 0 then 0 else x / v)
            | Op.Rem ->
              fun st ->
                let x = Array.unsafe_get st.ints s1 in
                Array.unsafe_set st.ints d (if v = 0 then 0 else x mod v)
            | Op.And ->
              fun st ->
                let x = Array.unsafe_get st.ints s1 in
                Array.unsafe_set st.ints d (x land v)
            | Op.Or ->
              fun st ->
                let x = Array.unsafe_get st.ints s1 in
                Array.unsafe_set st.ints d (x lor v)
            | Op.Xor ->
              fun st ->
                let x = Array.unsafe_get st.ints s1 in
                Array.unsafe_set st.ints d (x lxor v)
            | Op.Sll ->
              fun st ->
                let x = Array.unsafe_get st.ints s1 in
                Array.unsafe_set st.ints d (x lsl (v land 63))
            | Op.Srl ->
              fun st ->
                let x = Array.unsafe_get st.ints s1 in
                Array.unsafe_set st.ints d (x lsr (v land 63))
            | Op.Sra ->
              fun st ->
                let x = Array.unsafe_get st.ints s1 in
                Array.unsafe_set st.ints d (x asr (v land 63))
            | Op.Set c ->
              let cmp = icmp c in
              fun st ->
                Array.unsafe_set st.ints d
                  (if cmp (Array.unsafe_get st.ints s1) v then 1 else 0)))
      | Op.Fpu (f, d, s1, s2) -> (
        let d = ix d and s1 = ix s1 and s2 = ix s2 in
        match f with
        | Op.Fadd ->
          fun st ->
            Array.unsafe_set st.flts d
              (Array.unsafe_get st.flts s1 +. Array.unsafe_get st.flts s2)
        | Op.Fsub ->
          fun st ->
            Array.unsafe_set st.flts d
              (Array.unsafe_get st.flts s1 -. Array.unsafe_get st.flts s2)
        | Op.Fmul ->
          fun st ->
            Array.unsafe_set st.flts d
              (Array.unsafe_get st.flts s1 *. Array.unsafe_get st.flts s2)
        | Op.Fdiv ->
          fun st ->
            Array.unsafe_set st.flts d
              (Array.unsafe_get st.flts s1 /. Array.unsafe_get st.flts s2))
      | Op.Fcmp (c, d, s1, s2) -> (
        let d = ix d and s1 = ix s1 and s2 = ix s2 in
        if d = 0 then noop
        else
          match c with
          | Cmp.Eq ->
            fun st ->
              Array.unsafe_set st.ints d
                (if Array.unsafe_get st.flts s1 = Array.unsafe_get st.flts s2 then 1 else 0)
          | Cmp.Ne ->
            fun st ->
              Array.unsafe_set st.ints d
                (if Array.unsafe_get st.flts s1 <> Array.unsafe_get st.flts s2 then 1 else 0)
          | Cmp.Lt ->
            fun st ->
              Array.unsafe_set st.ints d
                (if Array.unsafe_get st.flts s1 < Array.unsafe_get st.flts s2 then 1 else 0)
          | Cmp.Le ->
            fun st ->
              Array.unsafe_set st.ints d
                (if Array.unsafe_get st.flts s1 <= Array.unsafe_get st.flts s2 then 1 else 0)
          | Cmp.Gt ->
            fun st ->
              Array.unsafe_set st.ints d
                (if Array.unsafe_get st.flts s1 > Array.unsafe_get st.flts s2 then 1 else 0)
          | Cmp.Ge ->
            fun st ->
              Array.unsafe_set st.ints d
                (if Array.unsafe_get st.flts s1 >= Array.unsafe_get st.flts s2 then 1 else 0))
      | Op.Itof (d, s) ->
        let d = ix d and s = ix s in
        fun st -> Array.unsafe_set st.flts d (float_of_int (Array.unsafe_get st.ints s))
      | Op.Ftoi (d, s) ->
        let d = ix d and s = ix s in
        if d = 0 then noop
        else
          fun st ->
           Array.unsafe_set st.ints d
             (int_of_float (Float.trunc (Array.unsafe_get st.flts s)))
      | Op.Select (c, d, s1, s2, tr, fr) -> (
        let cmp = icmp c and s1 = ix s1 in
        let cond =
          match s2 with
          | Op.R r ->
            let s2 = ix r in
            fun st -> cmp (Array.unsafe_get st.ints s1) (Array.unsafe_get st.ints s2)
          | Op.I v -> fun st -> cmp (Array.unsafe_get st.ints s1) v
        in
        if Reg.is_int d then
          let d = ix d and tr = ix tr and fr = ix fr in
          if d = 0 then noop
          else
            fun st ->
             Array.unsafe_set st.ints d
               (Array.unsafe_get st.ints (if cond st then tr else fr))
        else
          let d = ix d and tr = ix tr and fr = ix fr in
          fun st ->
            Array.unsafe_set st.flts d
              (Array.unsafe_get st.flts (if cond st then tr else fr)))
      | Op.Load (d, b, off) ->
        let d = ix d and b = ix b in
        fun st ->
          st.fuel <- st.fuel - gap;
          let v = Memory.load st.x.Conv_exec.mem (Array.unsafe_get st.ints b + off) in
          if d <> 0 then Array.unsafe_set st.ints d v
      | Op.Loadf (d, b, off) ->
        let d = ix d and b = ix b in
        fun st ->
          st.fuel <- st.fuel - gap;
          Array.unsafe_set st.flts d
            (Memory.loadf st.x.Conv_exec.mem (Array.unsafe_get st.ints b + off))
      | Op.Store (s, b, off) ->
        let s = ix s and b = ix b in
        fun st ->
          st.fuel <- st.fuel - gap;
          Memory.store st.x.Conv_exec.mem
            (Array.unsafe_get st.ints b + off)
            (Array.unsafe_get st.ints s)
      | Op.Storef (s, b, off) ->
        let s = ix s and b = ix b in
        fun st ->
          st.fuel <- st.fuel - gap;
          Memory.storef st.x.Conv_exec.mem
            (Array.unsafe_get st.ints b + off)
            (Array.unsafe_get st.flts s)
      | Op.Print s ->
        let s = ix s in
        fun st -> Output.Sink.push st.x.Conv_exec.sink (Output.Oint (Array.unsafe_get st.ints s))
      | Op.Printf s ->
        let s = ix s in
        fun st -> Output.Sink.push st.x.Conv_exec.sink (Output.Oflt (Array.unsafe_get st.flts s))

  (* Per-op checked thread: one budget check and charge around the
     op's effect.  Faultable effects sync [st.fuel] themselves (their
     gap of 1 is exactly this op's charge); the rest charge here.  This
     path only runs for ops that no fused run covers — run suffixes too
     short to pay off, and runs the remaining budget cannot cover. *)
  let compile_op_fast (op : Op.t) (k : fthread) : fthread =
    let e = compile_op_eff op ~gap:1 in
    if op_faultable op then
      fun st ->
        if st.fuel = 0 then runaway st;
        e st;
        k st
    else
      fun st ->
        let fuel = st.fuel in
        if fuel = 0 then runaway st;
        st.fuel <- fuel - 1;
        e st;
        k st

  (* Branch compare specialized per comparator: an [icmp]-returned
     closure would cost a caml_apply2 per executed branch. *)
  let br_fin (c : Cmp.t) s1 s2 (taken : st -> unit) (not_taken : st -> unit) : st -> unit =
    match c with
    | Cmp.Eq ->
      fun st ->
        if Array.unsafe_get st.ints s1 = Array.unsafe_get st.ints s2 then taken st
        else not_taken st
    | Cmp.Ne ->
      fun st ->
        if Array.unsafe_get st.ints s1 <> Array.unsafe_get st.ints s2 then taken st
        else not_taken st
    | Cmp.Lt ->
      fun st ->
        if Array.unsafe_get st.ints s1 < Array.unsafe_get st.ints s2 then taken st
        else not_taken st
    | Cmp.Le ->
      fun st ->
        if Array.unsafe_get st.ints s1 <= Array.unsafe_get st.ints s2 then taken st
        else not_taken st
    | Cmp.Gt ->
      fun st ->
        if Array.unsafe_get st.ints s1 > Array.unsafe_get st.ints s2 then taken st
        else not_taken st
    | Cmp.Ge ->
      fun st ->
        if Array.unsafe_get st.ints s1 >= Array.unsafe_get st.ints s2 then taken st
        else not_taken st

  (* Longest run fused as one closure; also bounds the per-pc build cost
     (every pc gets a suffix-run entry, so an unrolled straight-line
     program would otherwise cost quadratic closures). *)
  let fuse_cap = 8

  (* [charge] is the whole run's budget ([m] ops, plus one more when the
     terminating branch or jump is folded into [fin]); checked once at
     entry, paid once before [fin].  [slow] — the per-op checked chain —
     takes over when the remaining budget cannot cover the run. *)
  let fuse (effs : (st -> unit) list) (slow : fthread) ~(charge : int) (fin : st -> unit) :
      fthread =
    match effs with
    | [ e0 ] ->
      fun st ->
        let fuel = st.fuel in
        if fuel < charge then slow st
        else begin
          e0 st;
          st.fuel <- fuel - charge;
          fin st
        end
    | [ e0; e1 ] ->
      fun st ->
        let fuel = st.fuel in
        if fuel < charge then slow st
        else begin
          e0 st;
          e1 st;
          st.fuel <- fuel - charge;
          fin st
        end
    | [ e0; e1; e2 ] ->
      fun st ->
        let fuel = st.fuel in
        if fuel < charge then slow st
        else begin
          e0 st;
          e1 st;
          e2 st;
          st.fuel <- fuel - charge;
          fin st
        end
    | [ e0; e1; e2; e3 ] ->
      fun st ->
        let fuel = st.fuel in
        if fuel < charge then slow st
        else begin
          e0 st;
          e1 st;
          e2 st;
          e3 st;
          st.fuel <- fuel - charge;
          fin st
        end
    | [ e0; e1; e2; e3; e4 ] ->
      fun st ->
        let fuel = st.fuel in
        if fuel < charge then slow st
        else begin
          e0 st;
          e1 st;
          e2 st;
          e3 st;
          e4 st;
          st.fuel <- fuel - charge;
          fin st
        end
    | [ e0; e1; e2; e3; e4; e5 ] ->
      fun st ->
        let fuel = st.fuel in
        if fuel < charge then slow st
        else begin
          e0 st;
          e1 st;
          e2 st;
          e3 st;
          e4 st;
          e5 st;
          st.fuel <- fuel - charge;
          fin st
        end
    | [ e0; e1; e2; e3; e4; e5; e6 ] ->
      fun st ->
        let fuel = st.fuel in
        if fuel < charge then slow st
        else begin
          e0 st;
          e1 st;
          e2 st;
          e3 st;
          e4 st;
          e5 st;
          e6 st;
          st.fuel <- fuel - charge;
          fin st
        end
    | [ e0; e1; e2; e3; e4; e5; e6; e7 ] ->
      fun st ->
        let fuel = st.fuel in
        if fuel < charge then slow st
        else begin
          e0 st;
          e1 st;
          e2 st;
          e3 st;
          e4 st;
          e5 st;
          e6 st;
          e7 st;
          st.fuel <- fuel - charge;
          fin st
        end
    | _ -> assert false (* [fuse_cap] bounds runs to 1..8 effects *)

  (* [next] is the already-built closure for [pc + 1] (backward
     compilation), so fall-through and not-taken branches skip the array
     indirection; only actual jumps go through [fast].  A static target
     lands on the off-the-end sentinel or a wild-jump closure exactly
     where the packet driver would trap. *)
  let compile_insn_fast fast n ~next pc (insn : int Insn.t) : fthread =
    let goto target : fthread =
      if target >= 0 && target <= n then fun st -> fast.(target) st
      else fun st -> wild st target
    in
    match insn with
    | Insn.Op op -> compile_op_fast op next
    | Insn.Br (c, s1, s2, target) ->
      let taken = goto target in
      if Reg.is_int s1 && Reg.is_int s2 then
        let fin = br_fin c (ix s1) (ix s2) taken next in
        fun st ->
          let fuel = st.fuel in
          if fuel = 0 then runaway st;
          st.fuel <- fuel - 1;
          fin st
      else
        fun st ->
         let fuel = st.fuel in
         if fuel = 0 then runaway st;
         st.fuel <- fuel - 1;
         if
           Cmp.eval c
             (Regfile.get_i st.x.Conv_exec.regs s1)
             (Regfile.get_i st.x.Conv_exec.regs s2)
         then taken st
         else next st
    | Insn.Jmp target ->
      let t = goto target in
      fun st ->
        let fuel = st.fuel in
        if fuel = 0 then runaway st;
        st.fuel <- fuel - 1;
        t st
    | Insn.Call target ->
      let ra = Reg.index Reg.ra in
      let t = goto target in
      fun st ->
        let fuel = st.fuel in
        if fuel = 0 then runaway st;
        st.fuel <- fuel - 1;
        Array.unsafe_set st.ints (ra) (pc + 1);
        t st
    | Insn.Ret ->
      let ra = Reg.index Reg.ra in
      fun st ->
        let fuel = st.fuel in
        if fuel = 0 then runaway st;
        st.fuel <- fuel - 1;
        let t = (Array.unsafe_get st.ints (ra)) in
        if t >= 0 && t < n then fast.(t) st else wild st t
    | Insn.Jr r ->
      if Reg.is_int r then
        let r = ix r in
        fun st ->
          let fuel = st.fuel in
          if fuel = 0 then runaway st;
          st.fuel <- fuel - 1;
          let t = (Array.unsafe_get st.ints (r)) in
          if t >= 0 && t < n then fast.(t) st else wild st t
      else
        fun st ->
         let fuel = st.fuel in
         if fuel = 0 then runaway st;
         st.fuel <- fuel - 1;
         let t = Regfile.get_i st.x.Conv_exec.regs r in
         if t >= 0 && t < n then fast.(t) st else wild st t
    | Insn.Halt ->
      fun st ->
        let fuel = st.fuel in
        if fuel = 0 then runaway st;
        st.fuel <- fuel - 1;
        let x = st.x in
        x.Conv_exec.dyn <- x.Conv_exec.budget - (fuel - 1);
        x.Conv_exec.halted <- true

  (* The packet-free run-to-halt chains: one entry per pc, plus the
     off-the-end sentinel; the remaining dyn budget travels in
     [st.fuel]. *)
  let fast_chain (prog : Conv_prog.t) =
    let n = Array.length prog.insns in
    let fast = Array.make (n + 1) (fun (_ : st) -> assert false) in
    (* Off the end without a control transfer: the same architected
       Wild_jump as the packet sentinel's no-room-left arm. *)
    fast.(n) <- (fun st -> wild st n);
    (* [runlen.(pc)]: consecutive [Insn.Op]s starting at pc, capped. *)
    let runlen = Array.make (n + 1) 0 in
    for pc = n - 1 downto 0 do
      (match prog.insns.(pc) with
      | Insn.Op _ -> runlen.(pc) <- min fuse_cap (runlen.(pc + 1) + 1)
      | _ -> runlen.(pc) <- 0);
      let base = compile_insn_fast fast n ~next:fast.(pc + 1) pc prog.insns.(pc) in
      let m = runlen.(pc) in
      fast.(pc) <-
        (if m >= 1 then begin
           (* Thread the sync gap left to right: each faultable op's
              effect rewinds [st.fuel] by its distance from the run
              entry or the previous faultable op. *)
           let effs = ref [] and synced = ref 0 in
           for j = 0 to m - 1 do
             match prog.insns.(pc + j) with
             | Insn.Op op ->
               let gap = j + 1 - !synced in
               if op_faultable op then synced := j + 1;
               effs := compile_op_eff op ~gap :: !effs
             | _ -> assert false
           done;
           let effs = List.rev !effs in
           (* Back-edge targets are not yet built in this backward pass,
              so a folded jump reads [fast] at transfer time. *)
           let goto target : st -> unit =
             if target >= 0 && target <= n then fun st -> (Array.unsafe_get fast target) st
             else fun st -> wild st target
           in
           (* A run of ≥ 2 always fuses; a run of 1 only pays off when
              its terminator folds in.  The terminating branch or jump
              joins the run (one more charge unit) unless the run is
              capped or falls off the program's end. *)
           let plain () =
             if m >= 2 then fuse effs base ~charge:m fast.(pc + m) else base
           in
           if m = fuse_cap || pc + m = n then plain ()
           else
             match prog.insns.(pc + m) with
             | Insn.Br (c, s1, s2, target) when Reg.is_int s1 && Reg.is_int s2 ->
               let taken = goto target and not_taken = fast.(pc + m + 1) in
               fuse effs base ~charge:(m + 1) (br_fin c (ix s1) (ix s2) taken not_taken)
             | Insn.Jmp target -> fuse effs base ~charge:(m + 1) (goto target)
             | _ -> plain ()
         end
         else base)
    done;
    fast

  (* The packet threads: one per pc, plus the off-the-end sentinel. *)
  let packet_threads (prog : Conv_prog.t) =
    let n = Array.length prog.insns in
    let threads = Array.make (n + 1) (fun (_ : st) -> assert false) in
    Array.iteri (fun pc insn -> threads.(pc) <- compile_insn threads pc insn) prog.insns;
    (* Fall-through off the program's end: the same cap check, then the
       same architected Wild_jump trap as the interpreter's loop. *)
    threads.(n) <-
      (fun st ->
        if st.count >= Conv_exec.packet_cap then begin
          st.term <- Conv_exec.Kfall;
          st.next <- n
        end
        else begin
          st.x.Conv_exec.halted <- true;
          st.x.Conv_exec.mtrap <- Some (Conv_exec.Wild_jump n);
          st.term <- Conv_exec.Khalt;
          st.next <- n
        end);
    threads

  let compile_trusted (prog : Conv_prog.t) = { cprog = prog }

  let compile (w : Bisa_verify.Verify.verified_conv_prog) =
    compile_trusted (w :> Conv_prog.t)

  type t = {
    cprog : Conv_prog.t;
    threads : thread array;
    st : st;
  }

  let exec t = t.st.x

  let fresh_st (x : Conv_exec.t) =
    {
      x;
      ints = Regfile.ints x.Conv_exec.regs;
      flts = Regfile.flts x.Conv_exec.regs;
      saddrs = Array.make Conv_exec.packet_cap (-1);
      count = 0;
      term = Conv_exec.Khalt;
      next = 0;
      last_start = -1;
      fuel = 0;
    }

  let bind (code : code) (x : Conv_exec.t) =
    let prog = code.cprog in
    if not (prog == x.Conv_exec.prog || prog = x.Conv_exec.prog) then
      invalid_arg "Compile.Conv.bind: code compiled from a different program";
    { cprog = prog; threads = packet_threads prog; st = fresh_st x }

  (* One packet, mirroring Conv_exec.step: it lands in the binding's
     mutable fields ([last_start], [count], [term], [next]) and the
     scratch address array, valid only until the next call — the
     conventional timing pipeline's zero-allocation drain.  Returns
     [false] exactly where Conv_exec.step returns [None]. *)
  let step_into t =
    let st = t.st in
    let x = st.x in
    let n = Array.length t.cprog.Conv_prog.insns in
    if x.Conv_exec.halted then false
    else if x.Conv_exec.pc < 0 || x.Conv_exec.pc >= n then begin
      x.Conv_exec.halted <- true;
      x.Conv_exec.mtrap <- Some (Conv_exec.Wild_jump x.Conv_exec.pc);
      false
    end
    else begin
      let start = x.Conv_exec.pc in
      st.count <- 0;
      match t.threads.(start) st with
      | exception Memory.Unaligned a ->
        (* Earlier instructions of the packet committed; the offender
           halts it — no atomicity in the conventional machine. *)
        x.Conv_exec.halted <- true;
        x.Conv_exec.mtrap <- Some (Conv_exec.Unaligned_access a);
        false
      | () ->
        if (not x.Conv_exec.halted) && (st.next < 0 || st.next >= n)
        then begin
          x.Conv_exec.halted <- true;
          x.Conv_exec.mtrap <- Some (Conv_exec.Wild_jump st.next);
          st.term <- Conv_exec.Khalt;
          st.next <- start
        end;
        x.Conv_exec.pc <- st.next;
        st.last_start <- start;
        true
    end

  (* Fresh array per packet: the conventional pipeline's stream retains
     packets across steps. *)
  let step t =
    let st = t.st in
    if step_into t then
      Some
        {
          Conv_exec.start = st.last_start;
          count = st.count;
          mem_addrs = Array.sub st.saddrs 0 st.count;
          term = st.term;
          next = st.next;
        }
    else None

  let last_start t = t.st.last_start
  let last_count t = t.st.count
  let last_term t = t.st.term
  let last_next t = t.st.next
  let last_addrs t = t.st.saddrs

  let run ?(budget = 2_000_000_000) (code : code) =
    let x = Conv_exec.create code.cprog in
    Conv_exec.set_budget x budget;
    let fast = fast_chain code.cprog in
    let st = fresh_st x in
    st.fuel <- budget;
    let n = Array.length code.cprog.Conv_prog.insns in
    let pc = x.Conv_exec.pc in
    (try
       if pc >= 0 && pc <= n then fast.(pc) st
       else wild st pc
     with Memory.Unaligned a ->
       (* Committed effects stay (no packet atomicity in this machine);
          the offending access halts the run, as in [step].  [st.fuel]
          was synced post-charge just before the access. *)
       x.Conv_exec.dyn <- x.Conv_exec.budget - st.fuel;
       x.Conv_exec.halted <- true;
       x.Conv_exec.mtrap <- Some (Conv_exec.Unaligned_access a));
    (Conv_exec.output x, Conv_exec.dyn_insns x)
end
