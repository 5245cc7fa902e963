type t = { slots : int array; mutable top : int; mutable count : int }

let create ~depth =
  assert (depth > 0);
  { slots = Array.make depth 0; top = 0; count = 0 }

let push t v =
  t.slots.(t.top) <- v;
  t.top <- (t.top + 1) mod Array.length t.slots;
  if t.count < Array.length t.slots then t.count <- t.count + 1

(* -1 = empty.  Return targets are block ids or instruction indices
   (>= 0), so the sentinel is unambiguous, and a return allocates no
   option on the predictors' per-unit paths. *)
let pop_id t =
  if t.count = 0 then -1
  else begin
    t.top <- (t.top + Array.length t.slots - 1) mod Array.length t.slots;
    t.count <- t.count - 1;
    t.slots.(t.top)
  end

let depth t = Array.length t.slots
let occupancy t = t.count

let save t w =
  Bisa_base.Codec.W.section w "ras";
  Bisa_base.Codec.W.int_array w t.slots;
  Bisa_base.Codec.W.int w t.top;
  Bisa_base.Codec.W.int w t.count

let load t r =
  Bisa_base.Codec.R.section r "ras";
  let slots = Bisa_base.Codec.R.int_array r in
  if Array.length slots <> Array.length t.slots then
    invalid_arg "Ras.load: depth mismatch";
  Array.blit slots 0 t.slots 0 (Array.length slots);
  t.top <- Bisa_base.Codec.R.int r;
  t.count <- Bisa_base.Codec.R.int r
