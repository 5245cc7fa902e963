type vreg = int
type kind = Kint | Kflt
type operand = V of vreg | Cint of int | Cflt of float
type binop = Add | Sub | Mul | Div | Rem | And | Or | Xor | Sll | Srl | Sra
type fbinop = Fadd | Fsub | Fmul | Fdiv

type op =
  | Bin of binop * vreg * operand * operand
  | Fbin of fbinop * vreg * operand * operand
  | Cmpset of Bisa_isa.Cmp.t * vreg * operand * operand
  | Fcmpset of Bisa_isa.Cmp.t * vreg * operand * operand
  | Mov of vreg * operand
  | Itof of vreg * operand
  | Ftoi of vreg * operand
  | Select of Bisa_isa.Cmp.t * vreg * operand * operand * operand * operand
  | Gaddr of vreg * string
  | Load of vreg * operand * int
  | Loadf of vreg * operand * int
  | Store of operand * operand * int
  | Storef of operand * operand * int
  | Print of operand
  | Printflt of operand

type label = int

type terminator =
  | Br of Bisa_isa.Cmp.t * operand * operand * label * label
  | Jmp of label
  | Call of { dst : vreg option; callee : string; args : operand list; cont : label }
  | Ret of operand option
  | Switch of operand * label array * label
  | Halt

type block = { mutable ops : op list; mutable term : terminator }

type func = {
  name : string;
  params : vreg list;
  ret_kind : kind option;
  mutable vreg_kinds : kind array;
  mutable blocks : block array;
  entry : label;
  is_library : bool;
}

type global = { gname : string; words : int; gkind : kind; ginit : float }
type program = { globals : global list; funcs : func list }

let operand_uses = function V v -> [ v ] | Cint _ | Cflt _ -> []

let op_def = function
  | Bin (_, d, _, _)
  | Fbin (_, d, _, _)
  | Cmpset (_, d, _, _)
  | Fcmpset (_, d, _, _)
  | Mov (d, _)
  | Itof (d, _)
  | Ftoi (d, _)
  | Select (_, d, _, _, _, _)
  | Gaddr (d, _)
  | Load (d, _, _)
  | Loadf (d, _, _) ->
    d
  | Store _ | Storef _ | Print _ | Printflt _ -> -1

let op_defs = function Store _ | Storef _ | Print _ | Printflt _ -> [] | op -> [ op_def op ]

let op_uses = function
  | Bin (_, _, a, b) | Fbin (_, _, a, b) | Cmpset (_, _, a, b) | Fcmpset (_, _, a, b) ->
    operand_uses a @ operand_uses b
  | Mov (_, a) | Itof (_, a) | Ftoi (_, a) -> operand_uses a
  | Select (_, _, a, b, t, f) ->
    operand_uses a @ operand_uses b @ operand_uses t @ operand_uses f
  | Gaddr _ -> []
  | Load (_, base, _) | Loadf (_, base, _) -> operand_uses base
  | Store (v, base, _) | Storef (v, base, _) -> operand_uses v @ operand_uses base
  | Print a | Printflt a -> operand_uses a

let term_uses = function
  | Br (_, a, b, _, _) -> operand_uses a @ operand_uses b
  | Call { args; _ } -> List.concat_map operand_uses args
  | Ret (Some a) -> operand_uses a
  | Switch (a, _, _) -> operand_uses a
  | Jmp _ | Ret None | Halt -> []

let iter_operand f = function V v -> f v | Cint _ | Cflt _ -> ()

let iter_op_uses f = function
  | Bin (_, _, a, b) | Fbin (_, _, a, b) | Cmpset (_, _, a, b) | Fcmpset (_, _, a, b)
  | Store (a, b, _) | Storef (a, b, _) ->
    iter_operand f a;
    iter_operand f b
  | Mov (_, a) | Itof (_, a) | Ftoi (_, a) | Load (_, a, _) | Loadf (_, a, _) | Print a
  | Printflt a ->
    iter_operand f a
  | Select (_, _, a, b, t, fl) ->
    iter_operand f a;
    iter_operand f b;
    iter_operand f t;
    iter_operand f fl
  | Gaddr _ -> ()

let iter_term_uses f = function
  | Br (_, a, b, _, _) ->
    iter_operand f a;
    iter_operand f b
  | Call { args; _ } -> List.iter (iter_operand f) args
  | Ret (Some a) | Switch (a, _, _) -> iter_operand f a
  | Jmp _ | Ret None | Halt -> ()

let term_defs = function Call { dst = Some d; _ } -> [ d ] | _ -> []

let successors = function
  | Br (_, _, _, t, f) -> [ t; f ]
  | Jmp l -> [ l ]
  | Call { cont; _ } -> [ cont ]
  | Switch (_, cases, default) -> Array.to_list cases @ [ default ]
  | Ret _ | Halt -> []

let map_term_labels f = function
  | Br (c, a, b, t, fl) -> Br (c, a, b, f t, f fl)
  | Jmp l -> Jmp (f l)
  | Call c -> Call { c with cont = f c.cont }
  | Switch (a, cases, default) -> Switch (a, Array.map f cases, f default)
  | (Ret _ | Halt) as t -> t

let find_func prog name =
  match List.find_opt (fun f -> f.name = name) prog.funcs with
  | Some f -> f
  | None -> invalid_arg ("Ir.find_func: unknown function " ^ name)

let func_op_count f =
  Array.fold_left (fun acc b -> acc + List.length b.ops + 1) 0 f.blocks

(* Pretty printing ------------------------------------------------------- *)

let pp_operand fmt = function
  | V v -> Format.fprintf fmt "v%d" v
  | Cint i -> Format.fprintf fmt "%d" i
  | Cflt f -> Format.fprintf fmt "%g" f

let binop_name = function
  | Add -> "add"
  | Sub -> "sub"
  | Mul -> "mul"
  | Div -> "div"
  | Rem -> "rem"
  | And -> "and"
  | Or -> "or"
  | Xor -> "xor"
  | Sll -> "sll"
  | Srl -> "srl"
  | Sra -> "sra"

let fbinop_name = function Fadd -> "fadd" | Fsub -> "fsub" | Fmul -> "fmul" | Fdiv -> "fdiv"

let pp_op fmt op =
  let o = pp_operand in
  match op with
  | Bin (b, d, x, y) -> Format.fprintf fmt "v%d := %s %a, %a" d (binop_name b) o x o y
  | Fbin (b, d, x, y) -> Format.fprintf fmt "v%d := %s %a, %a" d (fbinop_name b) o x o y
  | Cmpset (c, d, x, y) ->
    Format.fprintf fmt "v%d := cmp.%s %a, %a" d (Bisa_isa.Cmp.to_string c) o x o y
  | Fcmpset (c, d, x, y) ->
    Format.fprintf fmt "v%d := fcmp.%s %a, %a" d (Bisa_isa.Cmp.to_string c) o x o y
  | Mov (d, x) -> Format.fprintf fmt "v%d := %a" d o x
  | Itof (d, x) -> Format.fprintf fmt "v%d := itof %a" d o x
  | Ftoi (d, x) -> Format.fprintf fmt "v%d := ftoi %a" d o x
  | Select (c, d, a, b, t, f) ->
    Format.fprintf fmt "v%d := sel.%s (%a?%a) %a %a" d (Bisa_isa.Cmp.to_string c) o a
      o b o t o f
  | Gaddr (d, g) -> Format.fprintf fmt "v%d := &%s" d g
  | Load (d, b, off) -> Format.fprintf fmt "v%d := load %a+%d" d o b off
  | Loadf (d, b, off) -> Format.fprintf fmt "v%d := loadf %a+%d" d o b off
  | Store (v, b, off) -> Format.fprintf fmt "store %a -> %a+%d" o v o b off
  | Storef (v, b, off) -> Format.fprintf fmt "storef %a -> %a+%d" o v o b off
  | Print x -> Format.fprintf fmt "print %a" o x
  | Printflt x -> Format.fprintf fmt "printflt %a" o x

let pp_term fmt t =
  let o = pp_operand in
  match t with
  | Br (c, a, b, tl, fl) ->
    Format.fprintf fmt "br.%s %a, %a ? L%d : L%d" (Bisa_isa.Cmp.to_string c) o a o b tl fl
  | Jmp l -> Format.fprintf fmt "jmp L%d" l
  | Call { dst; callee; args; cont } ->
    (match dst with
    | Some d -> Format.fprintf fmt "v%d := " d
    | None -> ());
    Format.fprintf fmt "call %s(" callee;
    List.iteri
      (fun i a ->
        if i > 0 then Format.fprintf fmt ", ";
        o fmt a)
      args;
    Format.fprintf fmt ") -> L%d" cont
  | Ret None -> Format.fprintf fmt "ret"
  | Ret (Some a) -> Format.fprintf fmt "ret %a" o a
  | Switch (a, cases, d) ->
    Format.fprintf fmt "switch %a [" o a;
    Array.iteri
      (fun i l ->
        if i > 0 then Format.fprintf fmt " ";
        Format.fprintf fmt "L%d" l)
      cases;
    Format.fprintf fmt "] default L%d" d
  | Halt -> Format.fprintf fmt "halt"

let pp_func fmt f =
  Format.fprintf fmt "func %s(%s)%s:@." f.name
    (String.concat ", " (List.map (fun v -> "v" ^ string_of_int v) f.params))
    (if f.is_library then " [library]" else "");
  Array.iteri
    (fun i b ->
      Format.fprintf fmt "L%d:@." i;
      List.iter (fun op -> Format.fprintf fmt "  %a@." pp_op op) b.ops;
      Format.fprintf fmt "  %a@." pp_term b.term)
    f.blocks

let pp_program fmt p =
  List.iter
    (fun g -> Format.fprintf fmt "global %s[%d]@." g.gname g.words)
    p.globals;
  List.iter (fun f -> Format.fprintf fmt "@.%a" pp_func f) p.funcs
