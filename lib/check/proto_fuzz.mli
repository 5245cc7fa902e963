(** Mutation fuzzer for the bisad wire protocol ({!Bisa_proto.Proto}).

    Mutates valid encoded request/response payloads — and framed streams
    of them, fed to the framing layer in random-sized chunks — and
    asserts the codec's total-function contract: every mutant either
    decodes to a value or raises {!Bisa_base.Diag.Fail} whose diagnostic
    has component ["proto"], a byte offset within the input, and a
    section name.  Any other exception, a non-advancing framing loop, or
    a failed pristine round-trip is a finding. *)

val run :
  ?pool:Bisa_base.Pool.t ->
  seed:int ->
  count:int ->
  unit ->
  (Decode_fuzz.report, string) result
(** [run ~seed ~count ()] first round-trips the pristine corpus, then
    checks [count] mutants as one {!Decode_fuzz.tally}, whose
    rejections must be {!Decode_fuzz.located} with component
    ["proto"]. *)
