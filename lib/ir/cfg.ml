module Digraph = Bisa_base.Digraph

let digraph (f : Ir.func) =
  Digraph.create ~nodes:(Array.length f.blocks)
    ~succ:(fun i -> Ir.successors f.blocks.(i).term)
    ~entry:f.entry

let remove_unreachable (f : Ir.func) =
  let g = digraph f in
  let reach = Digraph.reachable g in
  let n = Array.length f.blocks in
  let remap = Array.make n (-1) in
  let next = ref 0 in
  for i = 0 to n - 1 do
    if reach.(i) then begin
      remap.(i) <- !next;
      incr next
    end
  done;
  if !next <> n then begin
    let blocks = Array.make !next f.blocks.(f.entry) in
    for i = 0 to n - 1 do
      if reach.(i) then begin
        let b = f.blocks.(i) in
        b.term <- Ir.map_term_labels (fun l -> remap.(l)) b.term;
        blocks.(remap.(i)) <- b
      end
    done;
    f.blocks <- blocks
  end

let validate (f : Ir.func) =
  let n = Array.length f.blocks in
  let nv = Array.length f.vreg_kinds in
  let err = ref None in
  let fail msg = if !err = None then err := Some msg in
  if f.entry < 0 || f.entry >= n then fail "entry label out of range";
  let check_vreg v =
    if v < 0 || v >= nv then fail (Printf.sprintf "vreg v%d has no kind" v)
  in
  Array.iteri
    (fun i (b : Ir.block) ->
      List.iter
        (fun l ->
          if l < 0 || l >= n then
            fail (Printf.sprintf "block L%d: successor L%d out of range" i l))
        (Ir.successors b.term);
      List.iter
        (fun op ->
          List.iter check_vreg (Ir.op_defs op);
          List.iter check_vreg (Ir.op_uses op))
        b.ops;
      List.iter check_vreg (Ir.term_uses b.term);
      List.iter check_vreg (Ir.term_defs b.term))
    f.blocks;
  match !err with None -> Ok () | Some m -> Error (f.name ^ ": " ^ m)
