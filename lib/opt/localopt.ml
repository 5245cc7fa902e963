open Bisa_ir

let map_op_operands f (op : Ir.op) : Ir.op =
  match op with
  | Bin (b, d, x, y) -> Bin (b, d, f x, f y)
  | Fbin (b, d, x, y) -> Fbin (b, d, f x, f y)
  | Cmpset (c, d, x, y) -> Cmpset (c, d, f x, f y)
  | Fcmpset (c, d, x, y) -> Fcmpset (c, d, f x, f y)
  | Mov (d, x) -> Mov (d, f x)
  | Itof (d, x) -> Itof (d, f x)
  | Ftoi (d, x) -> Ftoi (d, f x)
  | Select (c, d, a, b, t, fl) -> Select (c, d, f a, f b, f t, f fl)
  | Gaddr _ as g -> g
  | Load (d, b, off) -> Load (d, f b, off)
  | Loadf (d, b, off) -> Loadf (d, f b, off)
  | Store (v, b, off) -> Store (f v, f b, off)
  | Storef (v, b, off) -> Storef (f v, f b, off)
  | Print x -> Print (f x)
  | Printflt x -> Printflt (f x)

let map_term_operands f (t : Ir.terminator) : Ir.terminator =
  match t with
  | Br (c, x, y, lt, lf) -> Br (c, f x, f y, lt, lf)
  | Call c -> Call { c with args = List.map f c.args }
  | Ret (Some x) -> Ret (Some (f x))
  | Switch (x, cases, d) -> Switch (f x, cases, d)
  | (Jmp _ | Ret None | Halt) as t -> t

(* --- Copy / constant propagation --------------------------------------- *)

(* Block-local bindings, vreg -> the operand it currently equals, in one
   vreg-indexed array per function: [bound.(v)] is v's binding or
   [unbound].  Defining v kills v's binding and every binding whose value
   reads v; [readers.(v)] lists those bindings, and possibly some killed
   since, which the kill re-checks.  [touched] lists the slots to reset
   when the block ends. *)
let unbound = Ir.V (-1)

let copyprop (f : Ir.func) =
  let nv = Array.length f.vreg_kinds in
  let bound = Array.make nv unbound and readers = Array.make nv [] in
  let touched = ref [] in
  let kill v =
    bound.(v) <- unbound;
    List.iter
      (fun d -> match bound.(d) with Ir.V w when w = v -> bound.(d) <- unbound | _ -> ())
      readers.(v);
    readers.(v) <- []
  in
  let bind d src =
    bound.(d) <- src;
    touched := d :: !touched;
    match src with
    | Ir.V w ->
      readers.(w) <- d :: readers.(w);
      touched := w :: !touched
    | Ir.Cint _ | Ir.Cflt _ -> ()
  in
  (* A change is a substitution made, not a rewritten operand that
     compares unequal: [Cflt nan <> Cflt nan]. *)
  let changed = ref false in
  let rewrite o =
    match o with
    | Ir.V v when bound.(v) != unbound ->
      changed := true;
      bound.(v)
    | _ -> o
  in
  Array.iter
    (fun (b : Ir.block) ->
      b.ops <-
        List.map
          (fun op ->
            let op = map_op_operands rewrite op in
            let d = Ir.op_def op in
            if d >= 0 then kill d;
            (match op with
            | Mov (d, Ir.V s) when s = d -> ()
            | Mov (d, src) -> bind d src
            | _ -> ());
            op)
          b.ops;
      b.term <- map_term_operands rewrite b.term;
      List.iter
        (fun v ->
          bound.(v) <- unbound;
          readers.(v) <- [])
        !touched;
      touched := [])
    f.blocks;
  !changed

(* --- Local common subexpression elimination ----------------------------- *)

(* The table compares keys with [compare], under which 0.0 equals -0.0
   and every NaN equals every other, so a float key also carries its
   operands' bits. *)
type key =
  | Kbin of Ir.binop * Ir.operand * Ir.operand
  | Kfbin of Ir.fbinop * Ir.operand * Ir.operand * int64 * int64
  | Kcmp of Bisa_isa.Cmp.t * Ir.operand * Ir.operand
  | Kfcmp of Bisa_isa.Cmp.t * Ir.operand * Ir.operand * int64 * int64
  | Kitof of Ir.operand
  | Kftoi of Ir.operand * int64
  | Kgaddr of string
  | Kload of Ir.operand * int
  | Kloadf of Ir.operand * int

let fbits = function Ir.Cflt f -> Int64.bits_of_float f | Ir.V _ | Ir.Cint _ -> 0L

let key_of_op (op : Ir.op) : (key * Ir.vreg) option =
  match op with
  | Bin (b, d, x, y) -> Some (Kbin (b, x, y), d)
  | Fbin (b, d, x, y) -> Some (Kfbin (b, x, y, fbits x, fbits y), d)
  | Cmpset (c, d, x, y) -> Some (Kcmp (c, x, y), d)
  | Fcmpset (c, d, x, y) -> Some (Kfcmp (c, x, y, fbits x, fbits y), d)
  | Itof (d, x) -> Some (Kitof x, d)
  | Ftoi (d, x) -> Some (Kftoi (x, fbits x), d)
  | Gaddr (d, g) -> Some (Kgaddr g, d)
  | Load (d, b, off) -> Some (Kload (b, off), d)
  | Loadf (d, b, off) -> Some (Kloadf (b, off), d)
  | Mov _ | Select _ | Store _ | Storef _ | Print _ | Printflt _ -> None

let key_is_load = function Kload _ | Kloadf _ -> true | _ -> false

let iter_key_vregs f = function
  | Kbin (_, x, y) | Kfbin (_, x, y, _, _) | Kcmp (_, x, y) | Kfcmp (_, x, y, _, _) ->
    Ir.iter_operand f x;
    Ir.iter_operand f y
  | Kitof x | Kftoi (x, _) | Kload (x, _) | Kloadf (x, _) -> Ir.iter_operand f x
  | Kgaddr _ -> ()

let is_vreg v = function Ir.V w -> w = v | Ir.Cint _ | Ir.Cflt _ -> false

let key_reads_vreg v = function
  | Kbin (_, x, y) | Kfbin (_, x, y, _, _) | Kcmp (_, x, y) | Kfcmp (_, x, y, _, _) ->
    is_vreg v x || is_vreg v y
  | Kitof x | Kftoi (x, _) | Kload (x, _) | Kloadf (x, _) -> is_vreg v x
  | Kgaddr _ -> false

(* Block-local available expressions, key -> holder vreg, in one table
   per function.  Defining v kills every key held by v or reading v:
   [by_vreg.(v)] lists those keys, and possibly some killed or re-held
   since, which the kill re-checks.  A store kills the keys in [loads].
   [touched] lists the [by_vreg] slots to reset when the block ends. *)
let cse (f : Ir.func) =
  let changed = ref false in
  let avail : (key, Ir.vreg) Hashtbl.t = Hashtbl.create 16 in
  let by_vreg = Array.make (Array.length f.vreg_kinds) [] in
  let loads = ref [] and touched = ref [] in
  let note k v =
    by_vreg.(v) <- k :: by_vreg.(v);
    touched := v :: !touched
  in
  let add k d =
    Hashtbl.replace avail k d;
    note k d;
    iter_key_vregs (note k) k;
    if key_is_load k then loads := k :: !loads
  in
  let kill_vreg v =
    List.iter
      (fun k ->
        match Hashtbl.find_opt avail k with
        | Some holder when holder = v || key_reads_vreg v k -> Hashtbl.remove avail k
        | _ -> ())
      by_vreg.(v);
    by_vreg.(v) <- []
  in
  let kill_loads () =
    List.iter (Hashtbl.remove avail) !loads;
    loads := []
  in
  Array.iter
    (fun (b : Ir.block) ->
      b.ops <-
        List.map
          (fun op ->
            match key_of_op op with
            | Some (k, d) -> begin
              (* A key that reads the op's own destination (e.g. a load
                 whose base register it overwrites) must not be
                 registered: its ingredients are gone. *)
              let self_reading = key_reads_vreg d k in
              match Hashtbl.find_opt avail k with
              | Some prev when prev <> d ->
                changed := true;
                kill_vreg d;
                if not self_reading then add k d;
                (* Replace the recomputation by a move from the holder.
                   The holder still holds the value: kill rules remove
                   keys whose holder was redefined. *)
                Ir.Mov (d, Ir.V prev)
              | _ ->
                kill_vreg d;
                if not self_reading then add k d;
                op
            end
            | None ->
              (match op with
              | Store _ | Storef _ -> kill_loads ()
              | _ ->
                let d = Ir.op_def op in
                if d >= 0 then kill_vreg d);
              op)
          b.ops;
      Hashtbl.clear avail;
      List.iter (fun v -> by_vreg.(v) <- []) !touched;
      touched := [];
      loads := [])
    f.blocks;
  !changed
