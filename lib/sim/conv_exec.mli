(** Functional executor for the conventional ISA.

    Drives the program one {e fetch packet} (dynamic basic block) at a
    time: a run of instructions ending at the first control instruction.
    Each packet records everything the timing model needs — memory
    addresses, the control outcome, the successor pc — so the timing
    simulator replays the correct path without re-deciding semantics.

    {2 One step protocol, two bodies}

    {!step_into} is the only implementation of the packet step: halting,
    the start's legality, the budget and the packet-cap split (it grants
    the body a [limit], charges what the body ran, and decides in
    {!stop} what reaching the limit means), and the machine traps.  What runs inside is a {!body}: the interpreter's
    ({!interp}) or the threaded code's ({!Compile.Conv.bind}).  The
    packet lands in the executor's step fields, read through the
    [last_*] accessors, and {!step} derives its record from them. *)

type term_kind =
  | Kbr of bool  (** conditional branch; payload = taken? *)
  | Kjmp
  | Kcall
  | Kret
  | Kjr
  | Khalt
  | Kfall  (** packet hit the safety cap (1024) without a control instruction *)

type packet = {
  start : int;  (** index of the packet's first instruction *)
  count : int;  (** instructions in the packet, terminator included *)
  mem_addrs : int array;  (** per position: touched byte address or -1 *)
  term : term_kind;
  next : int;  (** index of the next instruction to execute *)
}

type machine_trap =
  | Wild_jump of int  (** control transferred outside the program *)
  | Unaligned_access of int  (** byte address of a misaligned access *)
      (** Architected clean halts for behavior the static verifier cannot
          bound — see {!Bisa_sim.Block_exec.machine_trap}.  Compiled
          programs never trap. *)

type t = {
  prog : Bisa_isa.Conv_prog.t;
  regs : Regfile.t;
  mem : Memory.t;
  mutable pc : int;
  mutable halted : bool;
  mutable mtrap : machine_trap option;
  mutable dyn : int;
  mutable budget : int;
  sink : Output.Sink.sink;
  last_addrs : int array;  (** the step fields: one address slot per packet position *)
  mutable last_start : int;
  mutable last_count : int;
  mutable last_term : term_kind;
  mutable last_next : int;
  mutable limit : int;  (** instructions the body may run: cap or budget left *)
}
(** Concrete for the same reason as {!Block_exec.t}: the compiled body
    ({!Compile}) mutates the identical record, so state, checkpoints and
    counters are shared across backends.  The step fields are
    intra-step scratch and are never saved. *)

type body = int -> unit
(** Runs the packet starting at a pc on the executor it was built for.
    Before each instruction it calls {!stop} if [last_count] has reached
    [limit], and otherwise writes [-1] into the instruction's address
    slot [last_addrs.(last_count)] (a memory op then overwrites it) and
    increments [last_count]; falling off the program it calls
    {!off_end}.  The control instruction ending the packet sets
    [last_term] and [last_next] ([Halt] sets [halted]).  May raise
    [Memory.Unaligned]. *)

exception Runaway of int

val runaway_diag : int -> Bisa_base.Diag.t
(** Structured rendering of {!Runaway} for the unified failure model. *)

val machine_trap_diag : machine_trap -> Bisa_base.Diag.t
(** Warning-severity rendering of a machine trap. *)

val create : Bisa_isa.Conv_prog.t -> t

val stop : t -> int -> unit
(** A body reached [limit] before the instruction at a pc: the packet
    cap ends the packet there in {!Kfall}; otherwise the budget is
    spent, and that instruction is charged and raises {!Runaway}. *)

val off_end : t -> int -> unit
(** A body's fall-through off the program's end: the cap split, else a
    [Wild_jump] machine trap presented as {!Khalt}. *)

val interp : t -> body
(** The interpreter's body: [Opsem] per instruction.  The reference the
    threaded code is checked against. *)

val step_into : body -> t -> bool
(** Execute one packet through [body], allocating nothing: it lands in
    the step fields, valid until the next step.  [false] once halted.
    Raises {!Runaway} past the instruction budget. *)

val step : ?body:body -> t -> packet option
(** {!step_into} with the packet copied into a record with a fresh
    [mem_addrs] (the conventional pipeline's trace-cache stream retains
    packets across steps).  [body] defaults to {!interp}.  [None] once
    halted. *)

val last_start : t -> int
val last_count : t -> int
val last_term : t -> term_kind
val last_next : t -> int
val last_addrs : t -> int array

val halted : t -> bool

val machine_trap : t -> machine_trap option
(** Set iff the machine halted on a trap rather than a [Halt]. *)

val dyn_insns : t -> int
val output : t -> Output.t
val set_budget : t -> int -> unit
(** Default budget: 2 billion dynamic instructions. *)

val set_out_cap : t -> int -> unit
(** Bound the number of retained output items (paper-scale runs would
    otherwise grow the output list without bound).  The running count and
    hash keep observing every item; see {!Output.Sink}. *)

val out_count : t -> int
val out_hash : t -> int64
val out_truncated : t -> bool

val save : t -> Bisa_base.Codec.W.t -> unit
val load : t -> Bisa_base.Codec.R.t -> unit
(** Checkpoint/restore the full architectural state.  Only meaningful
    between {!step}s; the restored executor must wrap the same program. *)

val read_mem : t -> int -> int
val read_memf : t -> int -> float
(** Inspect data memory (aligned byte address) — the differential oracle
    compares final data segments across executors. *)

val run : Bisa_isa.Conv_prog.t -> ?budget:int -> unit -> Output.t * int
(** Convenience: execute to halt; returns output and dynamic instruction
    count. *)
