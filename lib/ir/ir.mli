(** The compiler's intermediate representation.

    A program is a set of globals plus functions; a function is a
    control-flow graph of basic blocks over an unlimited set of typed
    virtual registers.  Both code generators (conventional and
    block-structured) consume exactly this IR, which is the paper's setup
    for a fair comparison: "to generate the conventional ISA executables,
    we used a variant of the block-structured ISA compiler ... this
    eliminated any unfair compiler advantages" (section 5). *)

type vreg = int

type kind = Kint | Kflt

type operand = V of vreg | Cint of int | Cflt of float

type binop = Add | Sub | Mul | Div | Rem | And | Or | Xor | Sll | Srl | Sra
type fbinop = Fadd | Fsub | Fmul | Fdiv

(** Straight-line operations (basic-block bodies). *)
type op =
  | Bin of binop * vreg * operand * operand
  | Fbin of fbinop * vreg * operand * operand
  | Cmpset of Bisa_isa.Cmp.t * vreg * operand * operand
      (** integer compare to 0/1 *)
  | Fcmpset of Bisa_isa.Cmp.t * vreg * operand * operand
  | Mov of vreg * operand
  | Itof of vreg * operand
  | Ftoi of vreg * operand
  | Select of Bisa_isa.Cmp.t * vreg * operand * operand * operand * operand
      (** [Select (c, d, a, b, t, f)]: d := (a c b) ? t : f — produced by
          if-conversion (predicated execution, paper section 6); [a]/[b]
          are integers, [t]/[f] match [d]'s kind *)
  | Gaddr of vreg * string  (** vreg := byte address of a global *)
  | Load of vreg * operand * int  (** vreg := mem\[base + byte offset\] (int) *)
  | Loadf of vreg * operand * int
  | Store of operand * operand * int  (** mem\[base + off\] := value (int) *)
  | Storef of operand * operand * int
  | Print of operand
  | Printflt of operand

type label = int

type terminator =
  | Br of Bisa_isa.Cmp.t * operand * operand * label * label
      (** [Br (c, a, b, t, f)]: if [a c b] goto [t] else goto [f] *)
  | Jmp of label
  | Call of { dst : vreg option; callee : string; args : operand list; cont : label }
  | Ret of operand option
  | Switch of operand * label array * label
      (** jump-table dispatch: in-range index selects a case, otherwise the
          default label; lowered to an indirect jump (enlargement rule 3
          stops at these) *)
  | Halt

type block = { mutable ops : op list; mutable term : terminator }

type func = {
  name : string;
  params : vreg list;
  ret_kind : kind option;
  mutable vreg_kinds : kind array;  (** kind of every vreg, indexed by vreg *)
  mutable blocks : block array;
  entry : label;
  is_library : bool;
      (** library functions are never block-enlarged (termination rule 5) *)
}

type global = {
  gname : string;
  words : int;
  gkind : kind;
  ginit : float;  (** scalar initial value (0 for arrays); the linker emits
                      initialization stores in the startup stub *)
}

type program = { globals : global list; funcs : func list }

val op_defs : op -> vreg list
val op_uses : op -> vreg list
val term_uses : terminator -> vreg list
val term_defs : terminator -> vreg list

val op_def : op -> vreg
(** The vreg an op defines, or [-1]: every op defines at most one. *)

val iter_operand : (vreg -> unit) -> operand -> unit
(** Applies to the vreg of a [V] operand; constants have none. *)

val iter_op_uses : (vreg -> unit) -> op -> unit
(** [op_uses] in the same order, without building a list. *)

val iter_term_uses : (vreg -> unit) -> terminator -> unit
(** [term_uses] in the same order, without building a list. *)

val successors : terminator -> label list
val map_term_labels : (label -> label) -> terminator -> terminator
val find_func : program -> string -> func
val func_op_count : func -> int

val pp_op : Format.formatter -> op -> unit
val pp_term : Format.formatter -> terminator -> unit
val pp_func : Format.formatter -> func -> unit
val pp_program : Format.formatter -> program -> unit
