open Bisa_ir

let has_side_effect (op : Ir.op) =
  match op with
  | Store _ | Storef _ | Print _ | Printflt _ -> true
  | Bin _ | Fbin _ | Cmpset _ | Fcmpset _ | Mov _ | Itof _ | Ftoi _ | Select _
  | Gaddr _ | Load _ | Loadf _ ->
    false

let run (f : Ir.func) =
  let live = Liveness.analyze f in
  let changed = ref false in
  Array.iteri
    (fun i (b : Ir.block) ->
      (* Walk backwards carrying the live set: [sweep] handles the rest
         of the list before its head, and returns the list itself when
         none of it is dead. *)
      let live_now = Bitset.copy live.live_out.(i) in
      let add v = Bitset.add live_now v in
      Ir.iter_term_uses add b.term;
      let rec sweep = function
        | [] -> []
        | op :: rest as ops ->
          let rest' = sweep rest in
          let d = Ir.op_def op in
          if has_side_effect op || d < 0 || Bitset.mem live_now d then begin
            if d >= 0 then Bitset.remove live_now d;
            Ir.iter_op_uses add op;
            if rest' == rest then ops else op :: rest'
          end
          else begin
            changed := true;
            rest'
          end
      in
      b.ops <- sweep b.ops)
    f.blocks;
  !changed
