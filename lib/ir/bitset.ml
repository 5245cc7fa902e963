(* Bit [i] lives in word [i / width] at bit [i mod width].  Bits at [n]
   and above are always clear, so whole words compare and count. *)
type t = { words : int array; n : int }

let width = Sys.int_size

let create n = { words = Array.make ((n + width - 1) / width) 0; n }

let mem t i =
  assert (i >= 0 && i < t.n);
  t.words.(i / width) land (1 lsl (i mod width)) <> 0

let add t i =
  assert (i >= 0 && i < t.n);
  let w = i / width in
  t.words.(w) <- t.words.(w) lor (1 lsl (i mod width))

let remove t i =
  assert (i >= 0 && i < t.n);
  let w = i / width in
  t.words.(w) <- t.words.(w) land lnot (1 lsl (i mod width))

let union_into ~dst src =
  assert (dst.n = src.n);
  let changed = ref false in
  for w = 0 to Array.length dst.words - 1 do
    let old = dst.words.(w) in
    let nw = old lor src.words.(w) in
    if nw <> old then begin
      dst.words.(w) <- nw;
      changed := true
    end
  done;
  !changed

let transfer ~dst ~gen ~kill src =
  assert (dst.n = src.n && gen.n = src.n && kill.n = src.n);
  let changed = ref false in
  for w = 0 to Array.length dst.words - 1 do
    let nw = gen.words.(w) lor (src.words.(w) land lnot kill.words.(w)) in
    if nw <> dst.words.(w) then begin
      dst.words.(w) <- nw;
      changed := true
    end
  done;
  !changed

let copy t = { words = Array.copy t.words; n = t.n }

let equal a b = a.n = b.n && a.words = b.words

let iter t f =
  Array.iteri
    (fun w bits ->
      let bits = ref bits and i = ref (w * width) in
      while !bits <> 0 do
        if !bits land 1 <> 0 then f !i;
        bits := !bits lsr 1;
        incr i
      done)
    t.words

let cardinal t =
  let c = ref 0 in
  iter t (fun _ -> incr c);
  !c

let elements t =
  let acc = ref [] in
  iter t (fun i -> acc := i :: !acc);
  List.rev !acc
