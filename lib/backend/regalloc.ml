module Ir = Bisa_ir.Ir
module Liveness = Bisa_ir.Liveness
module Bitset = Bisa_ir.Bitset
module Reg = Bisa_isa.Reg

type result = {
  loc : Frame.loc array;
  spill_count : int;
  used_callee_saved : Reg.t list;
}

type interval = {
  vreg : int;
  start : int;
  stop : int;
  kind : Ir.kind;
  crosses_call : bool;
}

let build_intervals (f : Ir.func) =
  let nv = Array.length f.vreg_kinds in
  let istart = Array.make nv max_int and istop = Array.make nv (-1) in
  let extend v p =
    if p < istart.(v) then istart.(v) <- p;
    if p > istop.(v) then istop.(v) <- p
  in
  let live = Liveness.analyze f in
  let calls = ref [] in
  let pos = ref 0 in
  let block_start = Array.make (Array.length f.blocks) 0 in
  Array.iteri
    (fun i (b : Ir.block) ->
      block_start.(i) <- !pos;
      let bs = !pos in
      Bitset.iter live.live_in.(i) (fun v -> extend v bs);
      List.iter
        (fun op ->
          let p = !pos in
          List.iter (fun v -> extend v p) (Ir.op_uses op);
          List.iter (fun v -> extend v p) (Ir.op_defs op);
          incr pos)
        b.ops;
      let p = !pos in
      List.iter (fun v -> extend v p) (Ir.term_uses b.term);
      List.iter (fun v -> extend v p) (Ir.term_defs b.term);
      (match b.term with Ir.Call _ -> calls := p :: !calls | _ -> ());
      incr pos;
      (* Live-out values extend one past the terminator: a value that is
         live across a call terminator (e.g. a loop counter flowing around
         the back edge) must be distinguishable from one merely consumed
         by the call's argument setup — both would otherwise end exactly
         at the call position and [crosses] would miss the former, handing
         it a caller-saved register that the next iteration's argument
         moves clobber. *)
      let be = !pos in
      Bitset.iter live.live_out.(i) (fun v -> extend v be))
    f.blocks;
  (* Parameters receive their values from entry-block moves synthesized
     after allocation; anchor them at the entry block start. *)
  List.iter (fun v -> extend v block_start.(f.entry)) f.params;
  (* Call positions, ascending (blocks are numbered in order).  [v]
     crosses a call iff the first call at or after its start comes
     before its stop. *)
  let calls = Array.of_list (List.rev !calls) in
  let crosses v =
    let lo = ref 0 and hi = ref (Array.length calls) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if calls.(mid) < istart.(v) then lo := mid + 1 else hi := mid
    done;
    !lo < Array.length calls && calls.(!lo) < istop.(v)
  in
  let ivs = ref [] in
  for v = nv - 1 downto 0 do
    if istop.(v) >= 0 then
      ivs :=
        {
          vreg = v;
          start = istart.(v);
          stop = istop.(v);
          kind = f.vreg_kinds.(v);
          crosses_call = crosses v;
        }
        :: !ivs
  done;
  List.sort
    (fun a b -> if a.start <> b.start then Int.compare a.start b.start else Int.compare a.vreg b.vreg)
    !ivs

(* Each kind's allocatable registers in preference order, and every
   register's position in its kind's order, by flat index. *)
let int_order = Array.of_list Frame.int_allocatable
let flt_order = Array.of_list Frame.flt_allocatable

let slot =
  let slot = Array.make Reg.flat_count (-1) in
  Array.iteri (fun k r -> slot.(Reg.flat_index r) <- k) int_order;
  Array.iteri (fun k r -> slot.(Reg.flat_index r) <- k) flt_order;
  slot

let allocate (f : Ir.func) =
  let nv = Array.length f.vreg_kinds in
  let loc = Array.make nv (Frame.Lspill 0) in
  let spill_count = ref 0 in
  let fresh_slot () =
    let s = !spill_count in
    incr spill_count;
    s
  in
  let used_callee_saved = ref [] in
  let noted = Array.make Reg.flat_count false in
  let note_reg r =
    if Frame.is_callee_saved r && not noted.(Reg.flat_index r) then begin
      noted.(Reg.flat_index r) <- true;
      used_callee_saved := r :: !used_callee_saved
    end
  in
  (* Free flags per kind, over that kind's preference order: the first
     free register is the one the allocator prefers. *)
  let ints = (int_order, Array.make (Array.length int_order) true) in
  let flts = (flt_order, Array.make (Array.length flt_order) true) in
  let pool_of = function Ir.Kint -> ints | Ir.Kflt -> flts in
  (* Active intervals carrying a register, sorted by stop ascending. *)
  let active = ref [] in
  let release iv =
    match loc.(iv.vreg) with
    | Frame.Lreg r ->
      let _, free = pool_of iv.kind in
      free.(slot.(Reg.flat_index r)) <- true
    | Frame.Lspill _ -> ()
  in
  let rec expire p =
    match !active with
    | iv :: rest when iv.stop < p ->
      release iv;
      active := rest;
      expire p
    | _ -> ()
  in
  (* Keeps [active] sorted; [iv] goes ahead of equal stops, which decides
     the spill victim among ties below. *)
  let insert_active iv =
    let rec ins = function
      | a :: rest when a.stop < iv.stop -> a :: ins rest
      | l -> iv :: l
    in
    active := ins !active
  in
  let take_reg iv =
    let order, free = pool_of iv.kind in
    let rec first k =
      if k = Array.length order then None
      else if free.(k) && ((not iv.crosses_call) || Frame.is_callee_saved order.(k)) then begin
        free.(k) <- false;
        note_reg order.(k);
        Some order.(k)
      end
      else first (k + 1)
    in
    first 0
  in
  let assign iv =
    match take_reg iv with
    | Some r ->
      loc.(iv.vreg) <- Frame.Lreg r;
      insert_active iv
    | None ->
      (* Spill: victim is the furthest-ending active interval of the same
         kind whose register this interval could use, or the current one. *)
      let usable (a : interval) =
        a.kind = iv.kind
        &&
        match loc.(a.vreg) with
        | Frame.Lreg r -> (not iv.crosses_call) || Frame.is_callee_saved r
        | Frame.Lspill _ -> false
      in
      let victims = List.filter usable !active in
      let furthest =
        List.fold_left
          (fun best a ->
            match best with
            | None -> Some a
            | Some b -> if a.stop > b.stop then Some a else best)
          None victims
      in
      (match furthest with
      | Some victim when victim.stop > iv.stop -> begin
        match loc.(victim.vreg) with
        | Frame.Lreg r ->
          loc.(victim.vreg) <- Frame.Lspill (fresh_slot ());
          active := List.filter (fun a -> a.vreg <> victim.vreg) !active;
          loc.(iv.vreg) <- Frame.Lreg r;
          insert_active iv
        | Frame.Lspill _ -> assert false
      end
      | _ -> loc.(iv.vreg) <- Frame.Lspill (fresh_slot ()))
  in
  List.iter
    (fun iv ->
      expire iv.start;
      assign iv)
    (build_intervals f);
  { loc; spill_count = !spill_count; used_callee_saved = !used_callee_saved }
