module Block_prog = Bisa_isa.Block_prog
module Ablock = Bisa_isa.Ablock

type config = {
  hist_bits : int;
  pht_bits : int;
  btb_sets : int;
  btb_ways : int;
  ras_depth : int;
  naive_history : bool;
}

let default_config =
  {
    hist_bits = 14;
    pht_bits = 14;
    btb_sets = 512;
    btb_ways = 4;
    ras_depth = 32;
    naive_history = false;
  }

(* A widened BTB entry: one successor slot per 3-bit path code. *)
type entry = { slots : int array (* -1 = empty *) }

(* PHT entries hold a small tree of 2-bit counters, one per decision-tree
   node: node 0 predicts the trap direction, nodes 1-2 the second decision
   (one per first-decision outcome), nodes 3-6 the third.  This is the
   natural reading of the paper's "additional counters to predict the fault
   operations": each deeper decision gets its own state, so training on the
   taken-direction side never corrupts the other side's counters. *)
let counters_per_entry = 7

type t = {
  cfg : config;
  prog : Block_prog.t;
  pht : Bytes.t;
  mutable hist : int;
  btb : entry Btb.t;
  rbtb : entry Btb.t;
      (** region-entry variant slots, keyed by the target region's
          representative — shared by every call site / return into it *)
  ibtb : int Btb.t;  (** indirect-jump last-target *)
  ras : Ras.t;
  mutable n_lookup : int;
}

let create cfg prog =
  {
    cfg;
    prog;
    pht = Bytes.make (counters_per_entry * (1 lsl cfg.pht_bits)) '\001';
    hist = 0;
    btb = Btb.create ~sets:cfg.btb_sets ~ways:cfg.btb_ways;
    rbtb = Btb.create ~sets:cfg.btb_sets ~ways:cfg.btb_ways;
    ibtb = Btb.create ~sets:cfg.btb_sets ~ways:cfg.btb_ways;
    ras = Ras.create ~depth:cfg.ras_depth;
    n_lookup = 0;
  }

let pht_index t b = (b * 0x9E3779B1 lxor t.hist) land ((1 lsl t.cfg.pht_bits) - 1)

(* Smallest [b] with [1 lsl b >= k]. *)
let bits_for k =
  let b = ref 0 in
  while 1 lsl !b < k do
    incr b
  done;
  !b

let counter t i k = Char.code (Bytes.get t.pht ((counters_per_entry * i) + k))

let train t i k up =
  let c = counter t i k in
  let c' = if up then Int.min 3 (c + 1) else Int.max 0 (c - 1) in
  Bytes.set t.pht ((counters_per_entry * i) + k) (Char.unsafe_chr c')

(* Variant-index prediction within one direction's list, walking the
   counter tree below the direction node. *)
let predict_sub t i ~dir ~n =
  if n <= 1 then 0
  else begin
    let b1 = if counter t i (1 + dir) >= 2 then 1 else 0 in
    if n <= 2 then b1
    else begin
      let b2 = if counter t i (3 + (dir * 2) + b1) >= 2 then 1 else 0 in
      Int.min (n - 1) (b1 lor (b2 lsl 1))
    end
  end

let train_sub t i ~dir ~n ~sub =
  if n > 1 then begin
    let b1 = sub land 1 in
    train t i (1 + dir) (b1 = 1);
    if n > 2 then train t i (3 + (dir * 2) + b1) (sub land 2 = 2)
  end

(* Index of [v] in [arr], or -1.  A flat loop: this sits on the per-block
   training path, where a capturing local recursion would cost a closure
   allocation per call under classic ocamlopt, and [v : int] makes [<>]
   an integer compare instead of a call to the polymorphic one. *)
let index_in (arr : int array) (v : int) =
  let n = Array.length arr in
  let i = ref 0 in
  while !i < n && Array.unsafe_get arr !i <> v do
    incr i
  done;
  if !i < n then !i else -1

(* Successor path code packed as [dir lor (sub lsl 1)], or -1 when
   [actual] is in neither successor set (only possible around halt). *)
let encode t b actual =
  let dir1, dir0 = t.prog.succ_struct.(b) in
  let i1 = index_in dir1 actual in
  if i1 >= 0 then 1 lor ((i1 land 3) lsl 1)
  else begin
    let i0 = index_in dir0 actual in
    if i0 >= 0 then (i0 land 3) lsl 1 else -1
  end

let code_of dir sub = (dir land 1) lor (sub lsl 1)

(* How many history bits a prediction of [b]'s successor consumes: the
   trap carries it explicitly; other terminators derive it from their
   successor-set size. *)
let shift_bits t b =
  if t.cfg.naive_history then 3
  else begin
    match t.prog.blocks.(b).Ablock.term with
    | Ablock.Trap { succ_log2; _ } -> succ_log2
    | Ablock.Goto _ ->
      let dir1, _ = t.prog.succ_struct.(b) in
      let n = Array.length dir1 in
      if n <= 1 then 0 else Int.min 3 (bits_for n)
    | Ablock.Call _ | Ablock.Return | Ablock.Ijump _ | Ablock.Halt -> 0
  end

(* BTB slot if filled, otherwise the best static fallback for the
   direction. *)
let slot_or t b ~dir ~sub ~fallback =
  match Btb.find t.btb b with
  | Some e ->
    let s = e.slots.(code_of dir sub) in
    if s >= 0 then s
    else begin
      let s0 = e.slots.(code_of dir 0) in
      if s0 >= 0 then s0 else fallback
    end
  | None -> fallback

(* Int-returning core (-1 = no basis): the timing pipelines store the
   prediction in a scalar field, so the hot path never allocates an
   option per committed block. *)
let variant_id_for_direction t b ~dir =
  let dir1, dir0 = t.prog.succ_struct.(b) in
  let arr = if dir = 1 then dir1 else dir0 in
  let n = Array.length arr in
  if n = 0 then -1
  else begin
    let i = pht_index t b in
    let sub = predict_sub t i ~dir ~n in
    slot_or t b ~dir ~sub ~fallback:arr.(0)
  end

let variant_for_direction t b ~dir =
  let v = variant_id_for_direction t b ~dir in
  if v < 0 then None else Some v

(* Variant selection when the target {e region} is known but reached
   indirectly (call entry, RAS-predicted return).  State is keyed by the
   region's representative, not the jumping block: one return instruction
   serves many call sites, and per-region state keeps the variant counters
   and BTB slots coherent. *)
let region_pht_index t rep =
  (rep * 0x85EBCA6B lxor t.hist) land ((1 lsl t.cfg.pht_bits) - 1)

let variant_in_group t ~rep =
  let group = t.prog.variant_group.(rep) in
  let n = Array.length group in
  if n <= 1 then rep
  else begin
    let i = region_pht_index t rep in
    let sub = predict_sub t i ~dir:1 ~n in
    let fallback = group.(Int.min sub (n - 1)) in
    let candidate =
      match Btb.find t.rbtb rep with
      | Some e ->
        let s = e.slots.(code_of 1 sub) in
        if s >= 0 then s else fallback
      | None -> fallback
    in
    if index_in group candidate >= 0 then candidate else fallback
  end

let predict_id t b =
  t.n_lookup <- t.n_lookup + 1;
  match t.prog.blocks.(b).Ablock.term with
  | Ablock.Trap _ ->
    let i = pht_index t b in
    let dir = if counter t i 0 >= 2 then 1 else 0 in
    variant_id_for_direction t b ~dir
  | Ablock.Goto _ -> variant_id_for_direction t b ~dir:1
  | Ablock.Call { callee; ret_to } ->
    Ras.push t.ras ret_to;
    variant_in_group t ~rep:callee
  | Ablock.Return ->
    let rep = Ras.pop_id t.ras in
    if rep < 0 then -1 else variant_in_group t ~rep
  | Ablock.Ijump _ -> begin
    match Btb.find t.ibtb b with Some v -> v | None -> -1
  end
  | Ablock.Halt -> -1

let predict t b =
  let v = predict_id t b in
  if v < 0 then None else Some v

let predict_given_direction t b ~taken =
  variant_for_direction t b ~dir:(if taken then 1 else 0)

let update t ~block ~actual =
  match t.prog.blocks.(block).Ablock.term with
  | Ablock.Trap _ | Ablock.Goto _ ->
    let code = encode t block actual in
    if code >= 0 then begin
      let dir = code land 1 and sub = code lsr 1 in
      let dir1, dir0 = t.prog.succ_struct.(block) in
      let n = Array.length (if dir = 1 then dir1 else dir0) in
      let i = pht_index t block in
      (match t.prog.blocks.(block).Ablock.term with
      | Ablock.Trap _ -> train t i 0 (dir = 1)
      | _ -> ());
      train_sub t i ~dir ~n ~sub;
      let e = Btb.find_or_insert t.btb block (fun () -> { slots = Array.make 8 (-1) }) in
      e.slots.(code_of dir sub) <- actual;
      let bits = shift_bits t block in
      if bits > 0 then begin
        (* Shift in the informative outcome bits: for a trap the direction
           bit plus as many variant bits as fit; for a goto (no direction
           decision) the variant bits themselves. *)
        let code =
          match t.prog.blocks.(block).Ablock.term with
          | Ablock.Trap _ -> code_of dir sub
          | _ -> sub
        in
        t.hist <-
          ((t.hist lsl bits) lor (code land ((1 lsl bits) - 1)))
          land ((1 lsl t.cfg.hist_bits) - 1)
      end
    end
    (* code < 0: the committed successor is not in the static successor
       sets; only possible around halt — nothing to learn. *)
  | Ablock.Ijump _ -> Btb.insert t.ibtb block actual
  | Ablock.Call _ | Ablock.Return ->
    (* Learn which variant of the target region was entered; state is
       per-region (the group's representative). *)
    let group = t.prog.variant_group.(actual) in
    let n = Array.length group in
    if n > 1 then begin
      let rep = group.(0) in
      let sub = index_in group actual in
      if sub >= 0 then begin
        let sub = sub land 3 in
        let i = region_pht_index t rep in
        train_sub t i ~dir:1 ~n ~sub;
        let e =
          Btb.find_or_insert t.rbtb rep (fun () -> { slots = Array.make 8 (-1) })
        in
        e.slots.(code_of 1 sub) <- actual;
        (* The entered variant encodes real branch outcomes; they belong in
           the history register like any other decision (modification 3:
           shift the minimum number of bits that identifies it). *)
        if not t.cfg.naive_history then begin
          let nbits = Int.min 2 (bits_for n) in
          if nbits > 0 then
            t.hist <-
              ((t.hist lsl nbits) lor (sub land ((1 lsl nbits) - 1)))
              land ((1 lsl t.cfg.hist_bits) - 1)
        end
      end
    end
  | Ablock.Halt -> ()

(* Fault-injection hook: smash every successor slot of [block]'s widened
   BTB entry.  Slot contents are speculation hints — the pipeline's fetch
   guard re-checks them against the executor's required group — so a
   corrupt slot degrades to a misprediction, never a wrong execution. *)
let corrupt_btb t ~block ~value =
  let e = Btb.find_or_insert t.btb block (fun () -> { slots = Array.make 8 (-1) }) in
  Array.fill e.slots 0 (Array.length e.slots) value

let set_btb_hook t h =
  Btb.set_hook t.btb h;
  Btb.set_hook t.rbtb h;
  Btb.set_hook t.ibtb h

let lookups t = t.n_lookup

(* Checkpointing.  Widened entries serialize as their slot arrays; the
   program itself is bound by the snapshot header, not re-serialized. *)
let entry_save w e = Bisa_base.Codec.W.int_array w e.slots
let entry_load r = { slots = Bisa_base.Codec.R.int_array r }

let save t w =
  Bisa_base.Codec.W.section w "block_pred";
  Bisa_base.Codec.W.bytes w t.pht;
  Bisa_base.Codec.W.int w t.hist;
  Btb.save entry_save t.btb w;
  Btb.save entry_save t.rbtb w;
  Btb.save Bisa_base.Codec.W.int t.ibtb w;
  Ras.save t.ras w;
  Bisa_base.Codec.W.int w t.n_lookup

let load t r =
  Bisa_base.Codec.R.section r "block_pred";
  let pht = Bisa_base.Codec.R.bytes r in
  if Bytes.length pht <> Bytes.length t.pht then
    invalid_arg "Block_pred.load: PHT size mismatch";
  Bytes.blit pht 0 t.pht 0 (Bytes.length pht);
  t.hist <- Bisa_base.Codec.R.int r;
  Btb.load entry_load t.btb r;
  Btb.load entry_load t.rbtb r;
  Btb.load Bisa_base.Codec.R.int t.ibtb r;
  Ras.load t.ras r;
  t.n_lookup <- Bisa_base.Codec.R.int r
