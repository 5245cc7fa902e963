module Reg = Bisa_isa.Reg

type t = { ints : int array; flts : float array }

let create () = { ints = Array.make Reg.count 0; flts = Array.make Reg.count 0.0 }

let get_i t r =
  match r with
  | Reg.Int i -> t.ints.(i)
  | Reg.Flt _ -> invalid_arg "Regfile.get_i: float register"

let set_i t r v =
  match r with
  | Reg.Int 0 -> ()
  | Reg.Int i -> t.ints.(i) <- v
  | Reg.Flt _ -> invalid_arg "Regfile.set_i: float register"

let get_f t r =
  match r with
  | Reg.Flt i -> t.flts.(i)
  | Reg.Int _ -> invalid_arg "Regfile.get_f: int register"

let set_f t r v =
  match r with
  | Reg.Flt i -> t.flts.(i) <- v
  | Reg.Int _ -> invalid_arg "Regfile.set_f: int register"

let copy t = { ints = Array.copy t.ints; flts = Array.copy t.flts }

let save t w =
  Bisa_base.Codec.W.section w "regfile";
  Bisa_base.Codec.W.int_array w t.ints;
  Bisa_base.Codec.W.float_array w t.flts

let load t r =
  Bisa_base.Codec.R.section r "regfile";
  let ints = Bisa_base.Codec.R.int_array r in
  let flts = Bisa_base.Codec.R.float_array r in
  if Array.length ints <> Reg.count || Array.length flts <> Reg.count then
    invalid_arg "Regfile.load: register count mismatch";
  Array.blit ints 0 t.ints 0 Reg.count;
  Array.blit flts 0 t.flts 0 Reg.count
