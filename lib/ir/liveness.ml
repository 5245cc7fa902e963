type t = { live_in : Bitset.t array; live_out : Bitset.t array }

(* Per-block use/def: [use] holds vregs read before any write in the block
   (terminator uses count, in block order after the ops). *)
let block_use_def nv (b : Ir.block) =
  let use = Bitset.create nv and def = Bitset.create nv in
  let visit_use v = if not (Bitset.mem def v) then Bitset.add use v in
  List.iter
    (fun op ->
      Ir.iter_op_uses visit_use op;
      let d = Ir.op_def op in
      if d >= 0 then Bitset.add def d)
    b.ops;
  Ir.iter_term_uses visit_use b.term;
  List.iter (fun v -> Bitset.add def v) (Ir.term_defs b.term);
  (use, def)

let analyze (f : Ir.func) =
  let n = Array.length f.blocks in
  let nv = Array.length f.vreg_kinds in
  let use = Array.make n (Bitset.create 0) and def = Array.make n (Bitset.create 0) in
  for i = 0 to n - 1 do
    let u, d = block_use_def nv f.blocks.(i) in
    use.(i) <- u;
    def.(i) <- d
  done;
  let live_in = Array.init n (fun _ -> Bitset.create nv) in
  let live_out = Array.init n (fun _ -> Bitset.create nv) in
  let succs = Array.map (fun (b : Ir.block) -> Ir.successors b.term) f.blocks in
  let changed = ref true in
  while !changed do
    changed := false;
    for i = n - 1 downto 0 do
      List.iter
        (fun s ->
          if Bitset.union_into ~dst:live_out.(i) live_in.(s) then changed := true)
        succs.(i);
      (* in = use ∪ (out \ def) *)
      if Bitset.transfer ~dst:live_in.(i) ~gen:use.(i) ~kill:def.(i) live_out.(i) then
        changed := true
    done
  done;
  { live_in; live_out }
