(** Functional executor for the block-structured ISA.

    Executes one atomic block per step with all-or-nothing semantics: if a
    fault operation's condition evaluates true, every register write,
    store and print of the block is discarded and fetch is redirected to
    the fault's target (paper section 2).

    The executor is {e fetch-driven}: the caller (normally the timing
    simulator, acting as the branch predictor) may ask to execute any
    block in the variant group of the architecturally required successor —
    exactly the set a correct hardware implementation could reach — and
    the fault operations repair any divergence inside the group.  Calling
    {!step} without a fetch argument executes the representative, giving
    the canonical execution used for differential testing.

    {2 One step protocol, two bodies}

    {!step_into} is the only implementation of the step: halting, fetch
    legality, the shadow registers, squash, commit, the budget and
    machine traps.  What runs inside is a {!body}: one block's elements
    and terminator, either the interpreter's ({!interp}, [Opsem] per
    element) or the threaded code's ({!Compile.Block.bind}).  The body
    is chosen once, where code is bound; the step lands in the executor's
    step fields, read through the [last_*] accessors, and {!step}
    derives its record from them. *)

type step = {
  block : int;  (** the block that was executed *)
  ops_executed : int;  (** body elements evaluated (the firing fault included) *)
  mem_addrs : int array;  (** per body position: byte address or -1 *)
  squashed : bool;
  fault_pos : int option;
  next : int;  (** architectural next block *)
  dir_taken : bool option;  (** trap direction, when the terminator ran *)
}

type machine_trap =
  | Wild_jump of int  (** control transferred outside the program *)
  | Unaligned_access of int  (** byte address of a misaligned access *)
      (** Architected clean halts for behavior the static verifier cannot
          bound: register-valued control flow (returns, indirect jumps)
          landing outside the program, and runtime addresses that are not
          8-byte aligned.  The offending block's effects are discarded and
          the machine halts — never an exception.  Compiled programs never
          trap. *)

type t = {
  prog : Bisa_isa.Block_prog.t;
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
      (** registers each block can write, per class: the shadow
          save/restore touches only these *)
  wr_flt : int array array;
  scratch : int array;  (** reusable address slots, as long as the widest block *)
  mutable last_block : int;  (** the step fields, written by every step *)
  mutable last_ops : int;
  mutable last_addrs : int array;
  mutable last_fpos : int;  (** firing fault's position, -1 = none *)
  mutable last_next : int;  (** fault target or terminator successor *)
  mutable last_dir : int;  (** trap direction: -1 none / 0 not taken / 1 taken *)
  mutable out_rev : Output.item list;  (** the block's prints, newest first *)
}
(** The architectural state is concrete so {!Compile} (same library) can
    build bodies over it: both backends share one state, so checkpoints,
    counters and output are backend-agnostic by construction.  The step
    fields are intra-step scratch and are never saved.  Outside
    [lib/sim], treat the fields as read-only and go through the
    accessors below. *)

type body = int -> unit
(** Runs block [b]'s elements and terminator on the executor it was
    built for: each memory op's address into [last_addrs], prints onto
    [out_rev]; a firing fault sets [last_fpos] and [last_next] and stops
    the block; otherwise the terminator sets [last_next] and [last_dir]
    ([Halt] sets [halted]).  May raise [Memory.Unaligned]. *)

exception Runaway of int
exception Illegal_fetch of { required : int; requested : int }

val runaway_diag : int -> Bisa_base.Diag.t
val illegal_fetch_diag : required:int -> requested:int -> Bisa_base.Diag.t
(** Structured renderings of the executor exceptions for the unified
    failure model. *)

val machine_trap_diag : machine_trap -> Bisa_base.Diag.t
(** Warning-severity rendering of a machine trap (a trap is an outcome,
    not a failure). *)

val create : Bisa_isa.Block_prog.t -> t

val required : t -> int
(** The representative of the architecturally required next block. *)

val interp : t -> body
(** The interpreter's body: [Opsem] over each element.  The reference
    the threaded code is checked against. *)

val step_into : body -> fetch:int -> t -> int
(** Execute block [fetch] through [body], allocating nothing: the step
    lands in the step fields.  Returns [-1] once halted, [0] for a
    committed block, [1] for a fault squash.  Results are valid until
    the next step; [last_addrs] slots of non-memory ops may hold stale
    values, so consumers gate address reads on the op's memory kind (the
    timing engine does).  Raises {!Illegal_fetch} outside the required
    variant group and {!Runaway} past the budget. *)

val step : ?body:body -> ?fetch:int -> t -> step option
(** {!step_into} with its results copied into a record, whose
    [mem_addrs] is a fresh array holding [-1] in non-memory slots.
    [body] defaults to {!interp}, [fetch] to {!required}.  [None] once
    halted. *)

val last_block : t -> int
val last_ops : t -> int
(** [ops_executed] of the last step (body elements only). *)

val last_addrs : t -> int array
val last_dir : t -> int
(** Trap direction of the last committed step: [-1] none / [0] not
    taken / [1] taken. *)

val halted : t -> bool

val machine_trap : t -> machine_trap option
(** Set iff the machine halted on a trap rather than a [Halt]. *)

val dyn_ops : t -> int
(** All operations executed, squashed work included. *)

val retired_ops : t -> int
(** Operations in committed blocks only. *)

val retired_blocks : t -> int
val output : t -> Output.t
val set_budget : t -> int -> unit

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

val run : Bisa_isa.Block_prog.t -> ?budget:int -> unit -> Output.t * int
(** Canonical execution to halt; returns output and retired op count. *)
