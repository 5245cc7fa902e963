(** Set-associative cache model with LRU replacement.

    Models tags only (contents live in the simulated memory); used for both
    the instruction cache (whose size the paper sweeps in figures 6 and 7)
    and the 16KB L1 data cache. *)

type config = { size_bytes : int; assoc : int; line_bytes : int }

val kb : int -> int
(** [kb n] = n * 1024. *)

val of_kb : int -> config
(** [of_kb n] is the paper's icache geometry at [n] KB: 4-way, 32-byte
    lines.  Every icache size the CLIs, the experiments and the bench
    kernels name is built by it. *)

val config_16k : config
val config_32k : config
val config_64k : config
(** The paper's icache points: [of_kb] 16, 32 and 64. *)

type t

val create : config -> t
val access : t -> int -> bool
(** [access t addr] touches the line containing [addr]; true on hit.
    Allocates on miss. *)

val access_range : t -> int -> int -> int
(** [access_range t addr len] touches every line of \[addr, addr+len);
    returns the number of misses. *)

val evict : t -> int -> unit
(** [evict t addr] invalidates the line containing [addr] if present —
    fault-injection hook; the next access to the line misses. *)

val accesses : t -> int
val misses : t -> int
val reset_stats : t -> unit
val lines : t -> int

val set_hook : t -> (addr:int -> hit:bool -> unit) -> unit
(** Observation hook called once per line {!access} (so its call count
    matches {!accesses} exactly).  Purely observational; the default hook
    is free (skipped by a physical-equality check). *)

val save : t -> Bisa_base.Codec.W.t -> unit
val load : t -> Bisa_base.Codec.R.t -> unit
(** Checkpoint/restore tags, LRU state and counters.  Geometry must
    match; the hook is left untouched. *)
