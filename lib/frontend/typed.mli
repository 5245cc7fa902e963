(** Typed abstract syntax, the output of {!Typecheck} and the input of both
    the reference interpreter and IR lowering.

    Local variables are resolved to dense per-function slots (parameters
    occupy the first slots), which makes shadowing explicit and keeps the
    interpreter and lowering simple.  [for]/[while]/[do-while] share one
    loop form with an explicit [step] so that [continue] can jump to the
    step, matching C semantics. *)

type builtin = Bprint_int | Bprint_float | Bitof | Bftoi

type texpr = { te : texpr_kind; ty : Ast.ty }

and texpr_kind =
  | TInt of int
  | TFlt of float
  | TLocal of int
  | TGlobal of string
  | TIndex of string * texpr
  | TUnary of Ast.unop * texpr
  | TBinary of Ast.binop * texpr * texpr
  | TCall of string * texpr list
  | TBuiltin of builtin * texpr list

type tstmt =
  | TsAssign_local of int * texpr
  | TsAssign_global of string * texpr
  | TsAssign_index of string * texpr * texpr
  | TsExpr of texpr
  | TsIf of texpr * tstmt list * tstmt list
  | TsLoop of {
      cond_first : bool;  (** false for do-while *)
      cond : texpr option;  (** None = infinite (for(;;)) *)
      body : tstmt list;
      step : tstmt list;  (** [continue] lands here *)
    }
  | TsSwitch of texpr * (int * tstmt list) list * tstmt list
  | TsReturn of texpr option
  | TsBreak
  | TsContinue

type tfunc = {
  tf_name : string;
  tf_ty : Ast.ty;
  tf_params : int list;  (** parameter slots, in order *)
  tf_slots : Ast.ty array;  (** type of every local slot *)
  tf_body : tstmt list;
}

type tprogram = { tglobals : Ast.global_decl list; tfuncs : tfunc list }

val find_func : tprogram -> string -> tfunc
