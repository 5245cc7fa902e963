(** End-to-end compiler driver: MiniC source to both executables.

    Mirrors the paper's setup (section 5): one compiler front end and
    optimizer, two back-end targets — the conventional load/store ISA and
    the block-structured ISA — so any measured difference comes from
    block-structuring alone. *)

type compiled = {
  typed : Bisa_frontend.Typed.tprogram;  (** for the reference interpreter *)
  ir : Bisa_ir.Ir.program;
  conv : Bisa_isa.Conv_prog.t;
  block : Bisa_isa.Block_prog.t;
  enlarged : Bisa_backend.Enlarge.t list;  (** per-function enlargement stats *)
}

exception Compile_error of Bisa_base.Diag.t
(** All front-end failures (lex, parse, type, IR validation) are reported
    as a structured diagnostic with a source location when available. *)

val frontend :
  ?spans:Bisa_obs.Span.t ->
  ?library_funcs:string list ->
  string ->
  Bisa_frontend.Typed.tprogram * Bisa_ir.Ir.program
(** Parse, type check and lower.  Raises {!Compile_error} with a located
    message on bad input.  [spans], when given, collects per-phase
    wall-clock timings ([bisac -v] prints them). *)

val compile :
  ?spans:Bisa_obs.Span.t ->
  ?opt:Bisa_opt.Pipeline.level ->
  ?enlarge:Bisa_backend.Enlarge.config ->
  ?inline:bool ->
  ?ifconvert:bool ->
  ?library_funcs:string list ->
  string ->
  compiled
(** [compile src] builds both executables with full optimization and the
    paper's default enlargement configuration.  [inline] (default false —
    the paper's base compiler did not inline; it is the section-6
    proposal) runs {!Bisa_opt.Inline} first. *)

val to_machine :
  ?opt:Bisa_opt.Pipeline.level ->
  ?inline:bool ->
  ?ifconvert:bool ->
  ?library_funcs:string list ->
  string ->
  Bisa_frontend.Typed.tprogram * Bisa_ir.Ir.program * Bisa_backend.Mir.mfunc list
(** Stop after instruction selection — for flows that link more than once
    (e.g. profile-guided enlargement compiles, profiles, then re-links). *)
