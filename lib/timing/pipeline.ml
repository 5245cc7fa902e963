module Verify = Bisa_verify.Verify

(* What the artifact layer keeps of the per-pipeline primitives. *)
module type CORE = sig
  type prog
  type tables
  type code

  val isa : string
  val descr : string
  val verify : prog -> Bisa_base.Diag.t list
  val predecode_trusted : prog -> tables
  val compile_trusted : prog -> code
  val prog_hash : prog -> int64

  type session

  val step : session -> bool
  val ops : session -> int
  val set_out_cap : session -> int -> unit
  val finish : session -> Metrics.t * Bisa_sim.Output.t
  val save : session -> Bisa_base.Codec.W.t -> unit
  val restore : session -> Bisa_base.Codec.R.t -> unit
end

(* The primitives [Extend] derives the artifact layer from: a verifying
   [predecode], and a core's [session] over loose pieces.  [S] hides
   both, so a session comes only from an artifact. *)
module type BASE = sig
  include CORE

  val predecode : prog -> tables

  val session :
    ?probe:Bisa_obs.Probe.t ->
    Config.t ->
    tables:tables ->
    code:code option ->
    prog ->
    session
end

module type S = sig
  include CORE

  type artifact

  module Artifact : sig
    type t = artifact

    val prog : t -> prog
    val code : t -> code option
    val hash : t -> int64
  end

  val prepare : ?exec:Bisa_sim.Compile.backend -> prog -> artifact
  val prepare_trusted : ?exec:Bisa_sim.Compile.backend -> prog -> artifact
  val bundle : ?code:code -> tables:tables -> prog -> artifact

  val session_artifact : ?probe:Bisa_obs.Probe.t -> Config.t -> artifact -> session

  val run_artifact :
    ?probe:Bisa_obs.Probe.t ->
    ?out_cap:int ->
    Config.t ->
    artifact ->
    Metrics.t * Bisa_sim.Output.t
end

(* Derive the artifact layer from the primitives.  The record is the
   whole design: once a program is inside an artifact, its verification
   status, tables, optional code handle and content hash travel as one
   value, so no consumer threads tables and code handles (or recomputes
   the hash) again. *)
module Extend (B : BASE) :
  S
    with type prog = B.prog
     and type tables = B.tables
     and type code = B.code
     and type session = B.session = struct
  include B

  type artifact = {
    a_prog : B.prog;
    a_tables : B.tables;
    a_code : B.code option;
    a_hash : int64;
  }

  module Artifact = struct
    type t = artifact

    let prog a = a.a_prog
    let code a = a.a_code
    let hash a = a.a_hash
  end

  let bundle ?code ~tables prog =
    { a_prog = prog; a_tables = tables; a_code = code; a_hash = B.prog_hash prog }

  (* [predecode] verifies, so the compile below may (and must, to avoid
     running the verifier twice) be the trusted one.  The code is a
     handle: each session builds the threaded code it executes. *)
  let code_for exec prog =
    match exec with
    | Bisa_sim.Compile.Interp -> None
    | Bisa_sim.Compile.Compiled -> Some (B.compile_trusted prog)

  let prepare ?(exec = Bisa_sim.Compile.Compiled) prog =
    let tables = B.predecode prog in
    bundle ?code:(code_for exec prog) ~tables prog

  let prepare_trusted ?(exec = Bisa_sim.Compile.Compiled) prog =
    let tables = B.predecode_trusted prog in
    bundle ?code:(code_for exec prog) ~tables prog

  let session_artifact ?probe cfg a =
    B.session ?probe cfg ~tables:a.a_tables ~code:a.a_code a.a_prog

  let run_artifact ?probe ?out_cap cfg a =
    let s = session_artifact ?probe cfg a in
    Option.iter (B.set_out_cap s) out_cap;
    B.finish s
end

module Conv = Extend (struct
  type prog = Bisa_isa.Conv_prog.t
  type tables = Predecode.t
  type code = Bisa_sim.Compile.Conv.code

  let isa = "conv"
  let descr = "conventional"
  let verify = Verify.conv_diags
  let predecode prog = Predecode.of_conv (Verify.conv_exn prog)
  let predecode_trusted = Predecode.of_conv_trusted
  let compile_trusted = Bisa_sim.Compile.Conv.compile_trusted
  let prog_hash prog = Bisa_base.Codec.fnv1a64 (Bisa_isa.Encode.conv_to_bytes prog)

  include Conv_pipeline
end)

module Block = Extend (struct
  type prog = Bisa_isa.Block_prog.t
  type tables = Predecode.blocks
  type code = Bisa_sim.Compile.Block.code

  let isa = "block"
  let descr = "block-structured"
  let verify = Verify.block_diags
  let predecode prog = Predecode.of_block (Verify.block_exn prog)
  let predecode_trusted = Predecode.of_block_trusted
  let compile_trusted = Bisa_sim.Compile.Block.compile_trusted
  let prog_hash prog = Bisa_base.Codec.fnv1a64 (Bisa_isa.Encode.block_to_bytes prog)

  include Block_pipeline
end)
