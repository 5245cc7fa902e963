open Bisa_ir

(* Forward edges that point at an empty block ending in an unconditional
   jump.  Follows chains, guarding against cycles. *)
let thread_jumps (f : Ir.func) =
  let n = Array.length f.blocks in
  let target = Array.make n (-1) in
  let resolve l =
    let rec follow l seen =
      if List.mem l seen then l
      else begin
        let b = f.blocks.(l) in
        match (b.ops, b.term) with
        | [], Ir.Jmp l' -> follow l' (l :: seen)
        | _ -> l
      end
    in
    if target.(l) >= 0 then target.(l)
    else begin
      let t = follow l [] in
      target.(l) <- t;
      t
    end
  in
  (* A change is a label redirected, not a terminator that compares
     unequal: [Ret (Some (Cflt nan))] differs from itself. *)
  let changed = ref false in
  let redirect l =
    let t = resolve l in
    if t <> l then changed := true;
    t
  in
  Array.iter (fun (b : Ir.block) -> b.term <- Ir.map_term_labels redirect b.term) f.blocks;
  !changed

(* Merge B into A when A ends in Jmp B and B's only predecessor is A. *)
let merge_chains (f : Ir.func) =
  let n = Array.length f.blocks in
  let pred_count = Array.make n 0 in
  Array.iter
    (fun (b : Ir.block) ->
      List.iter (fun s -> pred_count.(s) <- pred_count.(s) + 1) (Ir.successors b.term))
    f.blocks;
  pred_count.(f.entry) <- pred_count.(f.entry) + 1;
  let changed = ref false in
  Array.iteri
    (fun i (b : Ir.block) ->
      let rec absorb () =
        match b.term with
        | Ir.Jmp l when l <> i && pred_count.(l) = 1 ->
          let victim = f.blocks.(l) in
          b.ops <- b.ops @ victim.ops;
          b.term <- victim.term;
          (* The victim becomes unreachable; empty it so repeated merging
             does not duplicate its body. *)
          victim.ops <- [];
          victim.term <- Ir.Jmp l;
          changed := true;
          absorb ()
        | _ -> ()
      in
      absorb ())
    f.blocks;
  !changed

let run (f : Ir.func) =
  let c1 = thread_jumps f in
  let c2 = merge_chains f in
  if c1 || c2 then Cfg.remove_unreachable f;
  c1 || c2
