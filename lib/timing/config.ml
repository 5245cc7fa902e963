type predictor = Perfect | Real

type t = {
  issue_width : int;
  window_blocks : int;
  window_ops : int;
  fu_count : int;
  decode_depth : int;
  redirect_penalty : int;
  icache : Bisa_uarch.Cache.config option;
  dcache : Bisa_uarch.Cache.config option;
  trace_cache : Bisa_uarch.Trace_cache.config option;
  l2_latency : int;
  predictor : predictor;
  conv_pred : Bisa_uarch.Conv_pred.config;
  block_pred : Bisa_uarch.Block_pred.config;
  op_budget : int;
  inject : Bisa_uarch.Inject.t option;
}

let default =
  {
    issue_width = 16;
    window_blocks = 32;
    window_ops = 512;
    fu_count = 16;
    decode_depth = 3;
    redirect_penalty = 5;
    icache = Some Bisa_uarch.Cache.config_64k;
    dcache = Some Bisa_uarch.Cache.config_16k;
    trace_cache = None;
    l2_latency = 6;
    predictor = Real;
    conv_pred = Bisa_uarch.Conv_pred.default_config;
    block_pred = Bisa_uarch.Block_pred.default_config;
    op_budget = 2_000_000_000;
    inject = None;
  }

let with_icache icache t = { t with icache }
let with_predictor predictor t = { t with predictor }
let with_inject inject t = { t with inject }

(* Canonical rendering for snapshot binding.  Every timing-relevant field
   is spelled out; a snapshot taken under one configuration refuses to
   restore under another.  The injector is opaque (its state is part of
   the snapshot payload, not the configuration identity), so only its
   presence is rendered.  The text (["v1;iw=16;wb=32;...;inj=false"],
   ints in decimal, bools as [true]/[false]) is fed to the hash piece by
   piece and never built, so the daemon can fingerprint every request's
   configuration without formatting a string. *)
let fingerprint (t : t) =
  let module F = Bisa_base.Codec.Fnv in
  let h = F.create () in
  let num sep v =
    F.string h sep;
    F.int h v
  in
  let cache name = function
    | None ->
      F.string h name;
      F.string h "none"
    | Some (c : Bisa_uarch.Cache.config) ->
      num name c.size_bytes;
      num "/" c.assoc;
      num "/" c.line_bytes
  in
  num "v1;iw=" t.issue_width;
  num ";wb=" t.window_blocks;
  num ";wo=" t.window_ops;
  num ";fu=" t.fu_count;
  num ";dd=" t.decode_depth;
  num ";rp=" t.redirect_penalty;
  num ";l2=" t.l2_latency;
  num ";ob=" t.op_budget;
  cache ";ic=" t.icache;
  cache ";dc=" t.dcache;
  (match t.trace_cache with
  | None -> F.string h ";tc=none"
  | Some (c : Bisa_uarch.Trace_cache.config) ->
    num ";tc=" c.sets;
    num "/" c.ways;
    num "/" c.max_blocks;
    num "/" c.max_ops);
  F.string h (match t.predictor with Perfect -> ";pred=perfect" | Real -> ";pred=real");
  let cp = t.conv_pred in
  num ";cp=" cp.hist_bits;
  num "/" cp.pht_bits;
  num "/" cp.btb_sets;
  num "/" cp.btb_ways;
  num "/" cp.ras_depth;
  let bp = t.block_pred in
  num ";bp=" bp.hist_bits;
  num "/" bp.pht_bits;
  num "/" bp.btb_sets;
  num "/" bp.btb_ways;
  num "/" bp.ras_depth;
  F.string h "/";
  F.string h (string_of_bool bp.naive_history);
  F.string h ";inj=";
  F.string h (string_of_bool (Option.is_some t.inject));
  F.value h
