module Insn = Bisa_isa.Insn
module Reg = Bisa_isa.Reg
module Conv_prog = Bisa_isa.Conv_prog

type term_kind = Kbr of bool | Kjmp | Kcall | Kret | Kjr | Khalt | Kfall

type packet = {
  start : int;
  count : int;
  mem_addrs : int array;
  term : term_kind;
  next : int;
}

type machine_trap = Wild_jump of int | Unaligned_access of int

type t = {
  prog : Conv_prog.t;
  regs : Regfile.t;
  mem : Memory.t;
  mutable pc : int;
  mutable halted : bool;
  mutable mtrap : machine_trap option;
  mutable dyn : int;
  mutable budget : int;
  sink : Output.Sink.sink;
  last_addrs : int array;
  mutable last_start : int;
  mutable last_count : int;
  mutable last_term : term_kind;
  mutable last_next : int;
  mutable limit : int;
}

type body = int -> unit

exception Runaway of int

(* Structured rendering for the unified failure model. *)
let runaway_diag n =
  Bisa_base.Diag.errorf ~component:"sim.conv"
    "runaway execution: %d dynamic instructions exceeded the budget" n

let machine_trap_diag mt =
  Bisa_base.Diag.warning ~component:"sim.conv"
    (match mt with
    | Wild_jump pc ->
      Printf.sprintf "machine trap: control transferred to nonexistent instruction %d" pc
    | Unaligned_access a ->
      Printf.sprintf "machine trap: unaligned memory access at 0x%x" a)

(* Safety cap on packet length; real basic blocks are far shorter, and the
   timing model re-chunks to issue width anyway. *)
let packet_cap = 1024

let create (prog : Conv_prog.t) =
  let t =
    {
      prog;
      regs = Regfile.create ();
      mem = Memory.create ();
      pc = prog.entry;
      halted = false;
      mtrap = None;
      dyn = 0;
      budget = 2_000_000_000;
      sink = Output.Sink.create ();
      last_addrs = Array.make packet_cap (-1);
      last_start = -1;
      last_count = 0;
      last_term = Khalt;
      last_next = 0;
      limit = 0;
    }
  in
  (* Preload the data segment. *)
  Array.iteri
    (fun i v -> if v <> 0 then Memory.store t.mem (prog.data_base + (i * 8)) v)
    prog.data;
  t

let halted t = t.halted
let machine_trap t = t.mtrap
let dyn_insns t = t.dyn
let set_budget t n = t.budget <- n
let set_out_cap t n = Output.Sink.set_cap t.sink n
let out_count t = Output.Sink.count t.sink
let out_hash t = Output.Sink.hash t.sink
let out_truncated t = Output.Sink.truncated t.sink

let output t =
  { Output.ret = Regfile.get_i t.regs Reg.rv; items = Output.Sink.items t.sink }

let read_mem t addr = Memory.load t.mem addr
let read_memf t addr = Memory.loadf t.mem addr

let last_start t = t.last_start
let last_count t = t.last_count
let last_term t = t.last_term
let last_next t = t.last_next
let last_addrs t = t.last_addrs

let split t pc =
  t.last_term <- Kfall;
  t.last_next <- pc

(* A body found [last_count] at [limit] before the instruction at [pc]:
   the packet cap splits the packet there, else the budget is spent, so
   that instruction is charged and raises. *)
let stop t pc =
  if t.last_count >= packet_cap then split t pc
  else begin
    t.last_count <- t.last_count + 1;
    raise (Runaway (t.dyn + t.last_count))
  end

(* Fall-through off the program's end mid-packet: the same cap split,
   else an architected Wild_jump trap. *)
let off_end t pc =
  if t.last_count >= packet_cap then split t pc
  else begin
    t.halted <- true;
    t.mtrap <- Some (Wild_jump pc);
    t.last_term <- Khalt;
    t.last_next <- pc
  end

(* The interpreter's body: [Opsem] per instruction up to the first
   control instruction. *)
let interp t : body =
  let insns = t.prog.insns in
  let n = Array.length insns in
  let out item = Output.Sink.push t.sink item in
  let rec loop pc =
    let k = t.last_count in
    if pc >= n then off_end t pc
    else if k >= t.limit then stop t pc
    else begin
      t.last_count <- k + 1;
      t.last_addrs.(k) <- -1;
      match insns.(pc) with
      | Insn.Op op ->
        t.last_addrs.(k) <- Opsem.exec ~regs:t.regs ~mem:t.mem ~sbuf:None ~out op;
        loop (pc + 1)
      | Insn.Br (c, s1, s2, target) ->
        let taken = Bisa_isa.Cmp.eval c (Regfile.get_i t.regs s1) (Regfile.get_i t.regs s2) in
        if taken then begin
          t.last_term <- Kbr true;
          t.last_next <- target
        end
        else begin
          t.last_term <- Kbr false;
          t.last_next <- pc + 1
        end
      | Insn.Jmp target ->
        t.last_term <- Kjmp;
        t.last_next <- target
      | Insn.Call target ->
        Regfile.set_i t.regs Reg.ra (pc + 1);
        t.last_term <- Kcall;
        t.last_next <- target
      | Insn.Ret ->
        t.last_term <- Kret;
        t.last_next <- Regfile.get_i t.regs Reg.ra
      | Insn.Jr r ->
        t.last_term <- Kjr;
        t.last_next <- Regfile.get_i t.regs r
      | Insn.Halt ->
        t.halted <- true;
        t.last_term <- Khalt;
        t.last_next <- pc
    end
  in
  loop

(* The step protocol: halting, the start's legality, the budget (the
   body may run [limit] instructions, and each one it ran is charged
   here), then the trap on a wild successor.  The packet lands in the
   [last_*] fields. *)
let step_into body t =
  let n = Array.length t.prog.insns in
  if t.halted then false
  else if t.pc < 0 || t.pc >= n then begin
    (* Confinement: register-valued control flow (ret/jr) or a wild entry
       landed outside the program — an architected machine trap, not a
       crash.  Compiled programs never reach this. *)
    t.halted <- true;
    t.mtrap <- Some (Wild_jump t.pc);
    false
  end
  else begin
    let start = t.pc in
    t.last_count <- 0;
    t.limit <- Int.min packet_cap (t.budget - t.dyn);
    match body start with
    | exception Memory.Unaligned a ->
      (* No atomicity to restore in the conventional machine: earlier
         instructions of the packet committed; the offender halts it. *)
      t.dyn <- t.dyn + t.last_count;
      t.halted <- true;
      t.mtrap <- Some (Unaligned_access a);
      false
    | exception e ->
      t.dyn <- t.dyn + t.last_count;
      raise e
    | () ->
      t.dyn <- t.dyn + t.last_count;
      (* Confine the packet's successor the same way: a wild target halts
         architecturally (presented as Khalt so the front end stops
         training on it). *)
      if (not t.halted) && (t.last_next < 0 || t.last_next >= n) then begin
        t.halted <- true;
        t.mtrap <- Some (Wild_jump t.last_next);
        t.last_term <- Khalt;
        t.last_next <- start
      end;
      t.pc <- t.last_next;
      t.last_start <- start;
      true
  end

let step ?body t =
  let body = match body with Some body -> body | None -> interp t in
  if step_into body t then
    Some
      {
        start = t.last_start;
        count = t.last_count;
        mem_addrs = Array.sub t.last_addrs 0 t.last_count;
        term = t.last_term;
        next = t.last_next;
      }
  else None

let mtrap_save w = function
  | None -> Bisa_base.Codec.W.int w 0
  | Some (Wild_jump pc) ->
    Bisa_base.Codec.W.int w 1;
    Bisa_base.Codec.W.int w pc
  | Some (Unaligned_access a) ->
    Bisa_base.Codec.W.int w 2;
    Bisa_base.Codec.W.int w a

let mtrap_load r =
  match Bisa_base.Codec.R.int r with
  | 0 -> None
  | 1 -> Some (Wild_jump (Bisa_base.Codec.R.int r))
  | 2 -> Some (Unaligned_access (Bisa_base.Codec.R.int r))
  | k -> invalid_arg (Printf.sprintf "Conv_exec: bad machine-trap tag %d" k)

(* Checkpoint the full architectural state.  Only meaningful between
   [step]s — there is no intra-packet state to capture. *)
let save t w =
  Bisa_base.Codec.W.section w "conv_exec";
  Bisa_base.Codec.W.int w t.pc;
  Bisa_base.Codec.W.bool w t.halted;
  mtrap_save w t.mtrap;
  Bisa_base.Codec.W.int w t.dyn;
  Bisa_base.Codec.W.int w t.budget;
  Regfile.save t.regs w;
  Memory.save_state t.mem w;
  Output.Sink.save t.sink w

let load t r =
  Bisa_base.Codec.R.section r "conv_exec";
  t.pc <- Bisa_base.Codec.R.int r;
  t.halted <- Bisa_base.Codec.R.bool r;
  t.mtrap <- mtrap_load r;
  t.dyn <- Bisa_base.Codec.R.int r;
  t.budget <- Bisa_base.Codec.R.int r;
  Regfile.load t.regs r;
  Memory.load_state t.mem r;
  Output.Sink.load t.sink r

let run prog ?(budget = 2_000_000_000) () =
  let t = create prog in
  set_budget t budget;
  let body = interp t in
  while step_into body t do
    ()
  done;
  (output t, dyn_insns t)
