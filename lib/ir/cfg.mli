(** Control-flow-graph utilities over {!Ir.func}. *)

val digraph : Ir.func -> Bisa_base.Digraph.t
(** Graph view of the function's blocks (call continuations are edges). *)

val remove_unreachable : Ir.func -> unit
(** Delete unreachable blocks and renumber labels. *)

val validate : Ir.func -> (unit, string) result
(** Structural invariants: labels in range, entry exists, every vreg used
    has a kind, call continuations well formed. *)
