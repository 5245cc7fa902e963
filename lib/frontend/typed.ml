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
      cond_first : bool;
      cond : texpr option;
      body : tstmt list;
      step : tstmt list;
    }
  | TsSwitch of texpr * (int * tstmt list) list * tstmt list
  | TsReturn of texpr option
  | TsBreak
  | TsContinue

type tfunc = {
  tf_name : string;
  tf_ty : Ast.ty;
  tf_params : int list;
  tf_slots : Ast.ty array;
  tf_body : tstmt list;
}

type tprogram = { tglobals : Ast.global_decl list; tfuncs : tfunc list }

let find_func p name =
  match List.find_opt (fun f -> f.tf_name = name) p.tfuncs with
  | Some f -> f
  | None -> invalid_arg ("Typed.find_func: unknown function " ^ name)
