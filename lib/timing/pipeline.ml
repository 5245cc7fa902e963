module Verify = Bisa_verify.Verify

(* The per-pipeline primitives: everything except the artifact layer,
   which [Extend] derives uniformly for both cores. *)
module type BASE = sig
  type prog
  type tables
  type code

  val isa : string
  val descr : string
  val verify : prog -> Bisa_base.Diag.t list
  val predecode : prog -> tables
  val predecode_trusted : prog -> tables
  val compile : prog -> code
  val compile_trusted : prog -> code
  val prog_hash : prog -> int64

  val run :
    ?tables:tables ->
    ?code:code ->
    ?probe:Bisa_obs.Probe.t ->
    Config.t ->
    prog ->
    Metrics.t

  val run_full :
    ?tables:tables ->
    ?code:code ->
    ?probe:Bisa_obs.Probe.t ->
    Config.t ->
    prog ->
    Metrics.t * Bisa_sim.Output.t

  type session

  val session :
    ?tables:tables -> ?code:code -> ?probe:Bisa_obs.Probe.t -> Config.t -> prog -> session
  val step : session -> bool
  val ops : session -> int
  val set_out_cap : session -> int -> unit
  val finish : session -> Metrics.t * Bisa_sim.Output.t
  val save : session -> Bisa_base.Codec.W.t -> unit
  val restore : session -> Bisa_base.Codec.R.t -> unit
end

module type S = sig
  include BASE

  type artifact

  module Artifact : sig
    type t = artifact

    val prog : t -> prog
    val tables : t -> tables
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
   status, tables, optional threaded code and content hash travel as one
   value, so no consumer threads ?tables/?code pairs (or recomputes the
   hash) again. *)
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
    let tables a = a.a_tables
    let code a = a.a_code
    let hash a = a.a_hash
  end

  let bundle ?code ~tables prog =
    { a_prog = prog; a_tables = tables; a_code = code; a_hash = B.prog_hash prog }

  (* [predecode] verifies, so the compile below may (and must, to avoid
     running the verifier twice) be the trusted one. *)
  let prepare ?(exec = Bisa_sim.Compile.Interp) prog =
    let tables = B.predecode prog in
    let code =
      match exec with
      | Bisa_sim.Compile.Interp -> None
      | Bisa_sim.Compile.Compiled -> Some (B.compile_trusted prog)
    in
    bundle ?code ~tables prog

  let prepare_trusted ?(exec = Bisa_sim.Compile.Interp) prog =
    let tables = B.predecode_trusted prog in
    let code =
      match exec with
      | Bisa_sim.Compile.Interp -> None
      | Bisa_sim.Compile.Compiled -> Some (B.compile_trusted prog)
    in
    bundle ?code ~tables prog

  let session_artifact ?probe cfg a =
    B.session ~tables:a.a_tables ?code:a.a_code ?probe cfg a.a_prog

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
  let compile prog = Bisa_sim.Compile.Conv.compile (Verify.conv_exn prog)
  let compile_trusted = Bisa_sim.Compile.Conv.compile_trusted
  let prog_hash prog = Bisa_base.Codec.fnv1a64 (Bisa_isa.Encode.conv_to_bytes prog)
  let run = Conv_pipeline.run
  let run_full = Conv_pipeline.run_full

  type session = Conv_pipeline.session

  let session = Conv_pipeline.session
  let step = Conv_pipeline.step
  let ops = Conv_pipeline.ops
  let set_out_cap = Conv_pipeline.set_out_cap
  let finish = Conv_pipeline.finish
  let save = Conv_pipeline.save
  let restore = Conv_pipeline.restore
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
  let compile prog = Bisa_sim.Compile.Block.compile (Verify.block_exn prog)
  let compile_trusted = Bisa_sim.Compile.Block.compile_trusted
  let prog_hash prog = Bisa_base.Codec.fnv1a64 (Bisa_isa.Encode.block_to_bytes prog)
  let run = Block_pipeline.run
  let run_full = Block_pipeline.run_full

  type session = Block_pipeline.session

  let session = Block_pipeline.session
  let step = Block_pipeline.step
  let ops = Block_pipeline.ops
  let set_out_cap = Block_pipeline.set_out_cap
  let finish = Block_pipeline.finish
  let save = Block_pipeline.save
  let restore = Block_pipeline.restore
end)
