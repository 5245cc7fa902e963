type config = {
  hist_bits : int;
  pht_bits : int;
  btb_sets : int;
  btb_ways : int;
  ras_depth : int;
}

let default_config =
  { hist_bits = 14; pht_bits = 14; btb_sets = 512; btb_ways = 4; ras_depth = 32 }

type t = {
  cfg : config;
  pht : Bytes.t;  (** 2-bit counters *)
  mutable hist : int;
  btb : int Btb.t;  (** pc -> last target *)
  ras : Ras.t;
  mutable n_pred : int;
  mutable n_miss : int;
}

type verdict = Correct | Wrong_direction | Wrong_target | Ras_miss

let create cfg =
  {
    cfg;
    pht = Bytes.make (1 lsl cfg.pht_bits) '\001';
    (* weakly not-taken *)
    hist = 0;
    btb = Btb.create ~sets:cfg.btb_sets ~ways:cfg.btb_ways;
    ras = Ras.create ~depth:cfg.ras_depth;
    n_pred = 0;
    n_miss = 0;
  }

let pht_index t pc =
  (pc * 0x9E3779B1 lxor t.hist) land ((1 lsl t.cfg.pht_bits) - 1)

let counter t i = Char.code (Bytes.get t.pht i)

let train t i taken =
  let c = counter t i in
  let c' = if taken then Int.min 3 (c + 1) else Int.max 0 (c - 1) in
  Bytes.set t.pht i (Char.unsafe_chr c')

let note t ok =
  t.n_pred <- t.n_pred + 1;
  if not ok then t.n_miss <- t.n_miss + 1

let on_branch t ~pc ~taken ~target =
  let i = pht_index t pc in
  let pred_taken = counter t i >= 2 in
  let verdict =
    if pred_taken <> taken then Wrong_direction
    else if taken then begin
      match Btb.find t.btb pc with
      | Some tgt when tgt = target -> Correct
      | _ -> Wrong_target
    end
    else Correct
  in
  train t i taken;
  if taken then Btb.insert t.btb pc target;
  t.hist <- ((t.hist lsl 1) lor if taken then 1 else 0) land ((1 lsl t.cfg.hist_bits) - 1);
  note t (verdict = Correct);
  verdict

let on_jump t ~pc ~target =
  ignore pc;
  ignore target;
  note t true;
  Correct

let on_call t ~pc ~target ~return_to =
  ignore pc;
  ignore target;
  Ras.push t.ras return_to;
  note t true;
  Correct

let on_return t ~pc ~target =
  ignore pc;
  let v = Ras.pop_id t.ras in
  let verdict = if v >= 0 && v = target then Correct else Ras_miss in
  note t (verdict = Correct);
  verdict

let on_indirect t ~pc ~target =
  let verdict =
    match Btb.find t.btb pc with
    | Some tgt when tgt = target -> Correct
    | _ -> Wrong_target
  in
  Btb.insert t.btb pc target;
  note t (verdict = Correct);
  verdict

(* Fault-injection hook: plant a bogus target.  BTB contents are only ever
   compared against the architectural target, never fetched from, so a
   corrupt entry costs at most a Wrong_target redirect. *)
let inject_btb t ~pc ~target = Btb.insert t.btb pc target
let set_btb_hook t h = Btb.set_hook t.btb h

let mispredicts t = t.n_miss
let predictions t = t.n_pred

let save t w =
  Bisa_base.Codec.W.section w "conv_pred";
  Bisa_base.Codec.W.bytes w t.pht;
  Bisa_base.Codec.W.int w t.hist;
  Btb.save Bisa_base.Codec.W.int t.btb w;
  Ras.save t.ras w;
  Bisa_base.Codec.W.int w t.n_pred;
  Bisa_base.Codec.W.int w t.n_miss

let load t r =
  Bisa_base.Codec.R.section r "conv_pred";
  let pht = Bisa_base.Codec.R.bytes r in
  if Bytes.length pht <> Bytes.length t.pht then
    invalid_arg "Conv_pred.load: PHT size mismatch";
  Bytes.blit pht 0 t.pht 0 (Bytes.length pht);
  t.hist <- Bisa_base.Codec.R.int r;
  Btb.load Bisa_base.Codec.R.int t.btb r;
  Ras.load t.ras r;
  t.n_pred <- Bisa_base.Codec.R.int r;
  t.n_miss <- Bisa_base.Codec.R.int r
