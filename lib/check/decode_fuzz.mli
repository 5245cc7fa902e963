(** Mutation fuzzing of the decoders bisa trusts with outside bytes.

    {!campaign} is the one driver of every mutation fuzzer: this
    module's image decoders and verified-loading trichotomy, and
    {!Proto_fuzz}'s wire codec.  {!run} mutates a valid encoded image
    (bit flips, byte rewrites, truncation, junk extension) and asserts
    the decoder's total-function contract: every mutant either decodes
    to a program or is rejected with {!Bisa_isa.Encode.Malformed} whose
    diagnostic is {!located} in the image with component ["encode"].
    Anything else (stack overflow, OOM-sized allocations, other
    exceptions) is a finding. *)

type format = Conv | Block

type report = {
  mutants : int;
  decoded : int;  (** mutants that still decoded to some value *)
  rejected : int;  (** mutants rejected with a {!located} diagnostic *)
}

val mutate : Bisa_base.Rng.t -> string -> string
(** One random bit flip, byte rewrite, truncation or junk extension. *)

val campaign :
  ?pool:Bisa_base.Pool.t ->
  seed:int ->
  count:int ->
  (Bisa_base.Rng.t -> ('a, string) result) ->
  ('a list, string) result
(** [campaign ~seed ~count check] checks mutants [0 … count-1], mutant
    [i] by [check (Rng.derive seed i)], over {!Bisa_base.Pool.map_list}.
    It returns the outcomes in index order, or [Error "mutant i (seed
    s): …"] for the lowest failing index.  Each mutant depends only on
    [(seed, i)], so the result is the same at every worker count. *)

val tally :
  ?pool:Bisa_base.Pool.t ->
  seed:int ->
  count:int ->
  (Bisa_base.Rng.t -> (bool, string) result) ->
  (report, string) result
(** A {!campaign} whose outcomes say whether each mutant decoded,
    counted into a {!report}. *)

val located : component:string -> string -> Bisa_base.Diag.t -> (bool, string) result
(** [located ~component input d] is a mutant's outcome when decoding
    [input] was rejected with [d]: [Ok false] (rejected, not decoded) if
    [d] has [component] and a byte offset within [input] naming a
    section, else [Error]. *)

val run :
  ?pool:Bisa_base.Pool.t -> format -> seed:int -> count:int -> string ->
  (report, string) result
(** [run fmt ~seed ~count img] checks [count] mutants of [img] as one
    {!tally}; the pristine image must decode. *)

type trichotomy_report = {
  t_mutants : int;
  t_rejected_decode : int;  (** rejected by {!Bisa_isa.Encode} ([Malformed]) *)
  t_rejected_verify : int;  (** decoded, rejected by {!Bisa_verify.Verify} *)
  t_completed : int;  (** decoded, verified, simulated to a halt *)
  t_trapped : int;  (** of completed: halted via an architected machine trap *)
  t_budgeted : int;  (** decoded, verified, stopped by the op budget *)
}

val trichotomy :
  ?pool:Bisa_base.Pool.t ->
  ?budget:int ->
  format ->
  seed:int ->
  count:int ->
  string ->
  (trichotomy_report, string) result
(** The verified-loading contract, end to end: every mutant either fails
    to decode with a located [Malformed], is rejected by the verifier with
    rule-tagged diagnostics, or — having passed both gates — simulates to
    a clean halt (machine traps included) or the op budget ([budget],
    default 200k), first functionally and then through the timing
    pipeline.  Any other behavior — [Illegal_fetch], an out-of-range
    access, any uncaught exception — is a finding reported as [Error].
    One {!campaign}, so sharding is deterministic. *)
