module Ablock = Bisa_isa.Ablock
module Block_prog = Bisa_isa.Block_prog
module Reg = Bisa_isa.Reg
module Cmp = Bisa_isa.Cmp

type step = {
  block : int;
  ops_executed : int;
  mem_addrs : int array;
  squashed : bool;
  fault_pos : int option;
  next : int;
  dir_taken : bool option;
}

type machine_trap = Wild_jump of int | Unaligned_access of int

type t = {
  prog : Block_prog.t;
  regs : Regfile.t;
  shadow : Regfile.t;  (** snapshot at block start, for fault recovery *)
  mem : Memory.t;
  sbuf : Sbuf.t;
  mutable required : int;
  mutable halted : bool;
  mutable mtrap : machine_trap option;
  mutable dyn : int;
  mutable retired : int;
  mutable retired_blocks : int;
  mutable budget : int;
  sink : Output.Sink.sink;
  wr_int : int array array;
  wr_flt : int array array;
  scratch : int array;
  mutable last_block : int;
  mutable last_ops : int;
  mutable last_addrs : int array;
  mutable last_fpos : int;
  mutable last_next : int;
  mutable last_dir : int;
  mutable out_rev : Output.item list;
}

type body = int -> unit

exception Runaway of int
exception Illegal_fetch of { required : int; requested : int }

(* Structured rendering for the unified failure model. *)
let runaway_diag n =
  Bisa_base.Diag.errorf ~component:"sim.block"
    "runaway execution: %d dynamic operations exceeded the budget" n

let illegal_fetch_diag ~required ~requested =
  Bisa_base.Diag.errorf ~component:"sim.block"
    "illegal fetch: block %d requested while architecture requires %d (or a group \
     variant)"
    requested required

let machine_trap_diag mt =
  Bisa_base.Diag.warning ~component:"sim.block"
    (match mt with
    | Wild_jump b ->
      Printf.sprintf "machine trap: control transferred to nonexistent block %d" b
    | Unaligned_access a ->
      Printf.sprintf "machine trap: unaligned memory access at 0x%x" a)

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
  Array.iter (fun e -> List.iter add (Ablock.elt_defs e)) blk.Ablock.elts;
  List.iter add (Ablock.term_defs blk.Ablock.term);
  (Array.of_list (List.rev !ints), Array.of_list (List.rev !flts))

let create (prog : Block_prog.t) =
  let written = Array.map written_regs prog.blocks in
  let widest =
    Array.fold_left (fun m blk -> max m (Array.length blk.Ablock.elts)) 1 prog.blocks
  in
  let t =
    {
      prog;
      regs = Regfile.create ();
      shadow = Regfile.create ();
      mem = Memory.create ();
      sbuf = Sbuf.create ();
      required = prog.entry;
      halted = false;
      mtrap = None;
      dyn = 0;
      retired = 0;
      retired_blocks = 0;
      budget = 2_000_000_000;
      sink = Output.Sink.create ();
      wr_int = Array.map fst written;
      wr_flt = Array.map snd written;
      scratch = Array.make widest (-1);
      last_block = -1;
      last_ops = 0;
      last_addrs = [||];
      last_fpos = -1;
      last_next = 0;
      last_dir = -1;
      out_rev = [];
    }
  in
  Array.iteri
    (fun i v -> if v <> 0 then Memory.store t.mem (prog.data_base + (i * 8)) v)
    prog.data;
  t

let required t = t.required
let halted t = t.halted
let machine_trap t = t.mtrap
let dyn_ops t = t.dyn
let retired_ops t = t.retired
let retired_blocks t = t.retired_blocks
let set_budget t n = t.budget <- n
let set_out_cap t n = Output.Sink.set_cap t.sink n
let out_count t = Output.Sink.count t.sink
let out_hash t = Output.Sink.hash t.sink
let out_truncated t = Output.Sink.truncated t.sink

let output t =
  { Output.ret = Regfile.get_i t.regs Reg.rv; items = Output.Sink.items t.sink }

let read_mem t addr = Memory.load t.mem addr
let read_memf t addr = Memory.loadf t.mem addr

let last_block t = t.last_block
let last_ops t = t.last_ops
let last_addrs t = t.last_addrs
let last_dir t = t.last_dir

(* Shadow save/restore over the block's static written-register lists:
   equivalent to blitting the whole register file, because registers
   the block cannot write never change between save and restore. *)
let copy_written ~(src : Regfile.t) ~(dst : Regfile.t) (wi : int array) (wf : int array) =
  let si = src.ints and di = dst.ints in
  for k = 0 to Array.length wi - 1 do
    let r = Array.unsafe_get wi k in
    Array.unsafe_set di r (Array.unsafe_get si r)
  done;
  let sf = src.flts and df = dst.flts in
  for k = 0 to Array.length wf - 1 do
    let r = Array.unsafe_get wf k in
    Array.unsafe_set df r (Array.unsafe_get sf r)
  done

(* Architected clean halt: confinement for control or memory behavior the
   static verifier cannot bound (register-valued jump targets, runtime
   addresses).  Compiled programs never reach these paths; arbitrary
   verified-but-wild-at-runtime programs halt instead of crashing. *)
let trap_halt t mt =
  t.halted <- true;
  t.mtrap <- Some mt

(* The interpreter's body: [Opsem] over the block's elements, stopping
   at the first firing fault, then the terminator. *)
let interp t : body =
  let out item = t.out_rev <- item :: t.out_rev in
  let sbuf = Some t.sbuf in
  fun b ->
    let blk = t.prog.blocks.(b) in
    let elts = blk.Ablock.elts in
    let nelts = Array.length elts in
    let rec go k =
      if k < nelts then
        match elts.(k) with
        | Ablock.Op op ->
          t.last_addrs.(k) <- Opsem.exec ~regs:t.regs ~mem:t.mem ~sbuf ~out op;
          go (k + 1)
        | Ablock.Fault (c, s1, s2, target) ->
          if Cmp.eval c (Regfile.get_i t.regs s1) (Regfile.get_i t.regs s2) then begin
            t.last_fpos <- k;
            t.last_next <- target
          end
          else go (k + 1)
      else
        match blk.Ablock.term with
        | Ablock.Trap { cmp; rs1; rs2; taken; not_taken; _ } ->
          let dir = Cmp.eval cmp (Regfile.get_i t.regs rs1) (Regfile.get_i t.regs rs2) in
          t.last_next <- (if dir then taken else not_taken);
          t.last_dir <- (if dir then 1 else 0)
        | Ablock.Goto l -> t.last_next <- l
        | Ablock.Call { callee; ret_to } ->
          Regfile.set_i t.regs Reg.ra ret_to;
          t.last_next <- callee
        | Ablock.Return -> t.last_next <- Regfile.get_i t.regs Reg.ra
        | Ablock.Ijump r -> t.last_next <- Regfile.get_i t.regs r
        | Ablock.Halt ->
          t.halted <- true;
          t.last_next <- b
    in
    go 0

(* Hand a committed block's prints to the sink, oldest first ([out_rev]
   holds them newest first).  A top-level function, so a block that
   printed nothing costs no closure. *)
let rec push_out sink = function
  | [] -> ()
  | item :: older ->
    push_out sink older;
    Output.Sink.push sink item

(* The step protocol: halting, fetch legality, the shadow registers, the
   body, then squash or commit with the budget charge and the trap on a
   wild successor.  The step lands in the [last_*] fields, its addresses
   in the reusable scratch or, with [fresh], in a new [-1]-filled array
   a step record can keep.  Returns [-1] once halted, [0] for a
   committed block, [1] for a fault squash. *)
let advance ~fresh body ~fetch t =
  let nblocks = Array.length t.prog.blocks in
  if t.halted then -1
  else if t.required < 0 || t.required >= nblocks then begin
    trap_halt t (Wild_jump t.required);
    -1
  end
  else begin
    let b =
      if fetch = t.required || Block_prog.in_group t.prog ~rep:t.required fetch then fetch
      else raise (Illegal_fetch { required = t.required; requested = fetch })
    in
    if b < 0 || b >= nblocks then begin
      trap_halt t (Wild_jump b);
      -1
    end
    else begin
      let nelts = Array.length t.prog.blocks.(b).Ablock.elts in
      let wi = t.wr_int.(b) and wf = t.wr_flt.(b) in
      t.last_addrs <- (if fresh then Array.make nelts (-1) else t.scratch);
      t.last_block <- b;
      t.last_fpos <- -1;
      t.last_dir <- -1;
      t.out_rev <- [];
      copy_written ~src:t.regs ~dst:t.shadow wi wf;
      Sbuf.clear t.sbuf;
      try
        body b;
        if t.last_fpos >= 0 then begin
          (* Suppress the whole block. *)
          let pos = t.last_fpos and target = t.last_next in
          copy_written ~src:t.shadow ~dst:t.regs wi wf;
          Sbuf.clear t.sbuf;
          t.dyn <- t.dyn + pos + 1;
          if t.dyn > t.budget then raise (Runaway t.dyn);
          if target < 0 || target >= nblocks then trap_halt t (Wild_jump target)
          else t.required <- target;
          t.last_ops <- pos + 1;
          1
        end
        else begin
          (* The terminator ran at the end of the body; commit. *)
          let next = t.last_next in
          Sbuf.flush t.sbuf t.mem;
          push_out t.sink t.out_rev;
          let size = nelts + 1 in
          t.dyn <- t.dyn + size;
          t.retired <- t.retired + size;
          t.retired_blocks <- t.retired_blocks + 1;
          if t.dyn > t.budget then raise (Runaway t.dyn);
          (* Confine register-valued control flow (returns, indirect
             jumps): a target outside the program is a machine trap, not
             a crash at the next fetch. *)
          if (not t.halted) && (next < 0 || next >= nblocks) then
            trap_halt t (Wild_jump next)
          else if not t.halted then t.required <- next;
          t.last_ops <- nelts;
          0
        end
      with Memory.Unaligned a ->
        (* Register writes are shadowed and unflushed stores buffered, so
           the offending block's effects are discarded and the machine
           halts cleanly. *)
        copy_written ~src:t.shadow ~dst:t.regs wi wf;
        Sbuf.clear t.sbuf;
        trap_halt t (Unaligned_access a);
        -1
    end
  end

let step_into body ~fetch t = advance ~fresh:false body ~fetch t

let step ?body ?fetch t =
  let body = match body with Some body -> body | None -> interp t in
  let fetch = Option.value fetch ~default:t.required in
  match advance ~fresh:true body ~fetch t with
  | -1 -> None
  | r ->
    let squashed = r = 1 in
    Some
      {
        block = t.last_block;
        ops_executed = t.last_ops;
        mem_addrs = t.last_addrs;
        squashed;
        fault_pos = (if squashed then Some t.last_fpos else None);
        next = t.last_next;
        dir_taken = (if t.last_dir < 0 then None else Some (t.last_dir = 1));
      }

let mtrap_save w = function
  | None -> Bisa_base.Codec.W.int w 0
  | Some (Wild_jump b) ->
    Bisa_base.Codec.W.int w 1;
    Bisa_base.Codec.W.int w b
  | Some (Unaligned_access a) ->
    Bisa_base.Codec.W.int w 2;
    Bisa_base.Codec.W.int w a

let mtrap_load r =
  match Bisa_base.Codec.R.int r with
  | 0 -> None
  | 1 -> Some (Wild_jump (Bisa_base.Codec.R.int r))
  | 2 -> Some (Unaligned_access (Bisa_base.Codec.R.int r))
  | k -> invalid_arg (Printf.sprintf "Block_exec: bad machine-trap tag %d" k)

(* Checkpoint the full architectural state.  Only meaningful between
   [step]s: the shadow register file and store buffer are intra-step
   scratch (snapshotted at block entry, cleared by commit or squash), so
   they carry nothing across steps and are not serialized. *)
let save t w =
  Bisa_base.Codec.W.section w "block_exec";
  Bisa_base.Codec.W.int w t.required;
  Bisa_base.Codec.W.bool w t.halted;
  mtrap_save w t.mtrap;
  Bisa_base.Codec.W.int w t.dyn;
  Bisa_base.Codec.W.int w t.retired;
  Bisa_base.Codec.W.int w t.retired_blocks;
  Bisa_base.Codec.W.int w t.budget;
  Regfile.save t.regs w;
  Memory.save_state t.mem w;
  Output.Sink.save t.sink w

let load t r =
  Bisa_base.Codec.R.section r "block_exec";
  t.required <- Bisa_base.Codec.R.int r;
  t.halted <- Bisa_base.Codec.R.bool r;
  t.mtrap <- mtrap_load r;
  t.dyn <- Bisa_base.Codec.R.int r;
  t.retired <- Bisa_base.Codec.R.int r;
  t.retired_blocks <- Bisa_base.Codec.R.int r;
  t.budget <- Bisa_base.Codec.R.int r;
  Regfile.load t.regs r;
  Memory.load_state t.mem r;
  Output.Sink.load t.sink r;
  Sbuf.clear t.sbuf

let run prog ?(budget = 2_000_000_000) () =
  let t = create prog in
  set_budget t budget;
  let body = interp t in
  while step_into body ~fetch:t.required t >= 0 do
    ()
  done;
  (output t, retired_ops t)
