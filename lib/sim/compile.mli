(** Threaded-code bodies for the functional executors.

    The interpreted bodies ({!Block_exec.interp}, {!Conv_exec.interp})
    dispatch on instruction structure and build four register-file
    partial applications per operation — that dispatch and allocation is
    essentially the whole cost of functional simulation.  This module
    removes it: each verified block (and each conventional instruction)
    is closed into a chain of specialized OCaml closures with opcodes,
    operand {e indices}, literals and fault slots baked in.

    {2 One protocol, two bodies}

    This module holds no step protocol.  {!Block.bind} / {!Conv.bind}
    return a {!Block_exec.body} / {!Conv_exec.body} — one block's
    elements and terminator, one packet's instructions — which
    {!Block_exec.step_into} / {!Conv_exec.step_into} drive exactly as
    they drive the interpreter's body: halting, fetch legality, shadow
    registers, squash, commit, the budget and machine traps have one
    implementation per ISA.  The chains mutate the executor's own
    registers, memory, step fields and output, so checkpoints taken
    under either body restore under the other and the differential
    oracle ({!Bisa_check}) compares the two bodies step by step.  What
    that comparison can no longer see is a fault in the shared protocol
    itself: [test_sim] pins its absolute numbers.

    {2 Chain lifetime}

    A [code] is an O(1) handle on the program, not the chains.  The
    chains live exactly as long as the body or run that executes them:
    {!Block.bind} / {!Conv.bind} build the chains of their own body, and
    {!Block.run} / {!Conv.run} build theirs.  Building costs about a
    millisecond at most per program on the workloads, far less than the
    run it serves, so any cache of handles (artifacts, the experiment
    harness, the daemon) holds a few words per program rather than its
    closures.

    {2 Witness-gated compilation}

    {!Block.compile} / {!Conv.compile} accept only the [private] witness
    types of {!Bisa_verify.Verify}: an unverified program cannot be
    compiled without going through the verifier or the explicitly-named
    [_trusted] escape hatch (mirroring {!Bisa_timing.Predecode}).  The
    trusted path stays exactly equivalent even on class-malformed
    programs: any operand whose register class contradicts the
    operation's semantics compiles to a fallback closure that reproduces
    the interpreter's register-file exception verbatim. *)

type backend = Interp | Compiled

val backend_to_string : backend -> string
val backends : (string * backend) list
(** CLI enumeration for [--exec]. *)

module Block : sig
  type code
  (** Handle on a program the threaded-code executor may run: O(1) to
      take, holding only the program.  Shareable across bodies and
      worker domains. *)

  val compile : Bisa_verify.Verify.verified_block_prog -> code
  val compile_trusted : Bisa_isa.Block_prog.t -> code
  val prog : code -> Bisa_isa.Block_prog.t

  val bind : code -> Block_exec.t -> Block_exec.body
  (** The program's closure chains as a body for this executor; they are
      freed with the body.  Raises [Invalid_argument] unless the executor
      wraps the program the code was taken from. *)

  val run : ?budget:int -> code -> Output.t * int
  (** Canonical execution to halt on a fresh state, through a body of
      its own; returns output and retired op count (mirrors
      {!Block_exec.run}). *)
end

module Conv : sig
  type code
  (** Handle on a program, as {!Block.code}. *)

  val compile : Bisa_verify.Verify.verified_conv_prog -> code
  val compile_trusted : Bisa_isa.Conv_prog.t -> code
  val prog : code -> Bisa_isa.Conv_prog.t

  val bind : code -> Conv_exec.t -> Conv_exec.body
  (** The program's packet threads as a body for this executor; they are
      freed with the body.  Raises [Invalid_argument] unless the executor
      wraps the program the code was taken from. *)

  val run : ?budget:int -> code -> Output.t * int
  (** Mirrors {!Conv_exec.run}: returns output and dynamic instruction
      count.  Builds its own packet-free run-to-halt chain, with its own
      prepaid-fuel budget protocol (it has no packet boundaries). *)
end
