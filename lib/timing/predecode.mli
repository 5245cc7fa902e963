(** Predecoded op templates — the timing engine's static instruction facts,
    derived once per program instead of once per dynamic operation.

    Every static operation of a program (a conventional instruction, an
    atomic-block body element, or a block terminator) gets one {e slot} in
    a structure-of-arrays table: its opclass and latency, its memory
    classification, and the span of its flattened def/use register indexes
    inside one shared [regs] array.  The timing pipelines then drive the
    engine with (table, slot range, per-step memory addresses) and never
    rebuild per-dynamic-op structures — the same static/dynamic split
    BasicBlocker and macro-op-fusion studies exploit in hardware.

    Tables are immutable after construction, so one table may be shared
    freely across configurations and worker domains; the experiment
    harness memoizes one per compiled program.

    Beyond the raw per-slot facts, construction pre-schedules each
    program: register def/use spans are resolved into dependency links
    ([use_def] / [def_next]), per-slot facts are packed into one [info]
    word, and memory-op prefix counts let the engine classify a whole
    fetch unit (has-memory?, all-independent?) in O(1).  All of it is
    derived state: rebuilt from the program on every load, never
    serialized, and absent from checkpoint identity. *)

type t = {
  cls : Bisa_isa.Opclass.t array;  (** per slot: functional-unit class *)
  lat : int array;  (** per slot: [Opclass.latency cls] *)
  mem_kind : int array;  (** per slot: {!mem_none} / {!mem_load} / {!mem_store} *)
  reg_off : int array;  (** per slot: first index of its span in [regs] *)
  ndefs : int array;  (** defs occupy [regs.(reg_off) ..], uses follow *)
  nuses : int array;
  regs : int array;  (** shared flat register indexes, defs then uses per slot *)
  info : int array;
      (** per slot: mem kind, latency, def/use counts and [reg_off] packed
          into one immediate word (see the [info_*] layout values) *)
  use_def : int array;
      (** parallel to [regs]; for use positions, the nearest earlier slot
          defining that register program-wide, or -1.  For a fetch unit of
          consecutive slots [lo, lo+len), [use_def.(j) >= lo] decides
          "producer in flight in this unit" exactly. *)
  def_next : int array;
      (** parallel to [regs]; for def positions, the next slot defining the
          same register, or -1.  A def whose [def_next] lands outside its
          unit is that unit's last writer of the register. *)
  mem_prefix : int array;
      (** length [slots t + 1]; count of memory slots below each index, so
          unit [lo, lo+len) touches memory iff
          [mem_prefix.(lo+len) > mem_prefix.(lo)]. *)
  chain : int array;
      (** per slot: length of the longest dependency chain ending at it *)
}

val mem_none : int
val mem_load : int
val mem_store : int

(** Layout of the packed [info] word:
    [mem lor (lat lsl info_lat_shift) lor (nd lsl info_nd_shift)
     lor (nu lsl info_nu_shift) lor (reg_off lsl info_off_shift)]. *)

val info_mem_mask : int
val info_lat_shift : int
val info_nd_shift : int
val info_nu_shift : int
val info_off_shift : int
val info_cnt_mask : int

val slots : t -> int

type stats = {
  n_slots : int;
  n_mem : int;  (** slots classified load or store *)
  n_runs : int;  (** maximal straight-line runs (ended by a Branch slot) *)
  n_short_runs : int;  (** runs of at most 8 slots *)
  longest_chain : int;  (** longest dependency chain, in slots *)
}

val stats : t -> stats
(** Whole-program static schedule facts, all O(slots) reads of the
    precomputed tables. *)

val of_conv : Bisa_verify.Verify.verified_conv_prog -> t
(** One slot per instruction; slot = instruction index.  Requires a
    verification witness: the table stores raw flat register indexes and
    the engine indexes scoreboards with them unchecked, so [reg-range] et
    al. must already hold. *)

val of_conv_trusted : Bisa_isa.Conv_prog.t -> t
(** As {!of_conv} without the witness — for explicitly-trusted callers
    (perfbench's preparation split, which times the verifier on its
    own).  The caller owns the bounds obligations. *)

type blocks = {
  tab : t;
  first : int array;
      (** length [nblocks + 1]; block [b]'s body occupies slots
          [first.(b) .. first.(b+1) - 2] in program order and its
          terminator is slot [first.(b+1) - 1]. *)
}

val of_block : Bisa_verify.Verify.verified_block_prog -> blocks

val of_block_trusted : Bisa_isa.Block_prog.t -> blocks
(** Witness-free variant; see {!of_conv_trusted}. *)

val of_list : (Bisa_isa.Opclass.t * int list * int list * int) list -> t
(** Synthetic table from [(opclass, flat defs, flat uses, mem_kind)] rows —
    for unit tests that drive the engine directly. *)
