(** Recursive-descent parser for MiniC. *)

exception Error of string * Ast.pos

val parse : string -> Ast.program
(** Parse a whole compilation unit.  Raises {!Error} (or {!Lexer.Error}) on
    malformed input. *)
