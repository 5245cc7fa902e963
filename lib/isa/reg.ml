type t = Int of int | Flt of int

let count = 32

let check i =
  if i < 0 || i >= count then invalid_arg "Reg: index out of range";
  i

let int i = Int (check i)
let flt i = Flt (check i)
let zero = int 0
let sp = int 1
let rv = int 2
let at = int 3
let ra = int 31
let frv = flt 2

let range f lo hi = List.init (hi - lo + 1) (fun k -> f (lo + k))
let int_args = range int 4 11
let flt_args = range flt 4 11

let is_int = function Int _ -> true | Flt _ -> false
let index = function Int i | Flt i -> i
let flat_index = function Int i -> i | Flt i -> count + i
let flat_count = 2 * count
let of_flat_index i = if i < count then Int (check i) else Flt (check (i - count))

let to_string = function
  | Int i -> "r" ^ string_of_int i
  | Flt i -> "f" ^ string_of_int i

let pp fmt r = Format.pp_print_string fmt (to_string r)
let equal a b = match (a, b) with Int i, Int j | Flt i, Flt j -> i = j | _ -> false
let compare = Stdlib.compare
