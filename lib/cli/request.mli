(** The simulator's one request path, shared by [bisasim] (answered by an
    in-process {!Bisa_serve.Engine}) and the [bisad] client (answered by
    the daemon's engine): one builder for the request, one printer for
    the reply, so both print the same bytes for the same command line. *)

type sim = {
  input : string;
  isa : Bisa_proto.Proto.isa;
  functional : bool;
  exec : Bisa_sim.Compile.backend;
  cfg : Bisa_proto.Proto.sim_cfg;
  show_output : bool;
  scale : int option;
}
(** A simulation as its command line states it. *)

val input : string Cmdliner.Term.t
(** The positional [INPUT]: a MiniC source file, a built-in workload
    name, or a [.cbin]/[.bbin] image. *)

val sim : sim Cmdliner.Term.t
(** [INPUT] with [--isa], [--functional], [--exec], the {!Args.sim_cfg}
    flags, [--show-output] and [--scale]. *)

val source : component:string -> ?scale:int -> string -> Bisa_proto.Proto.prog_src
(** A [.cbin]/[.bbin] path as its image bytes, anything else as MiniC
    source ({!Driver.read_source}).  Raises {!Bisa_base.Diag.Fail} or
    [Sys_error] for an input that is neither. *)

val simulation : component:string -> sim -> Bisa_proto.Proto.request
val verification : component:string -> ?scale:int -> string -> Bisa_proto.Proto.request

val ok : Bisa_proto.Proto.response -> Bisa_proto.Proto.response
(** The reply itself, or an [Err] raised as
    {!Bisa_serve.Engine.Rejected} for {!Driver.guard} to print. *)

val print : component:string -> input:string -> Bisa_proto.Proto.response -> unit
(** Print a [Simulate], [Verify] or [Cell] reply: a run's stdout (its
    machine-trap notes on stderr), ["INPUT: verify OK"], or a cell's
    summary.  A rejecting verdict and an [Err] raise
    {!Bisa_serve.Engine.Rejected} with their diagnostics. *)
