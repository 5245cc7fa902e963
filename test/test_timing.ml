(* Timing-model tests: the dataflow engine's latency/contention/window
   behavior, and end-to-end pipeline sanity bounds. *)

module Engine = Bisa_timing.Engine
module Predecode = Bisa_timing.Predecode
module Config = Bisa_timing.Config
module Opclass = Bisa_isa.Opclass
module Compile = Bisa_sim.Compile
module Conv = Bisa_timing.Pipeline.Conv
module Block = Bisa_timing.Pipeline.Block

(* Interpreted timing runs through the front door. *)
let run_conv cfg prog = fst (Conv.run_artifact cfg (Conv.prepare ~exec:Compile.Interp prog))
let run_block cfg prog = fst (Block.run_artifact cfg (Block.prepare ~exec:Compile.Interp prog))

let tiny_config =
  {
    Config.default with
    icache = None;
    dcache = None;
    decode_depth = 0;
    redirect_penalty = 2;
  }

(* Engine units are described as synthetic predecode tables: static
   (opclass, defs, uses, mem-kind) templates plus a per-op dynamic address
   array, exactly how the pipelines drive the engine. *)
type memspec = Mnone | Mload of int | Mstore of int

let op ?(defs = [||]) ?(uses = [||]) ?(mem = Mnone) cls = (cls, defs, uses, mem)

let run_ops e ~dispatch ~commit ops =
  let tab =
    Predecode.of_list
      (List.map
         (fun (cls, defs, uses, mem) ->
           let kind =
             match mem with
             | Mnone -> Predecode.mem_none
             | Mload _ -> Predecode.mem_load
             | Mstore _ -> Predecode.mem_store
           in
           (cls, Array.to_list defs, Array.to_list uses, kind))
         ops)
  in
  let mem_addrs =
    Array.of_list
      (List.map
         (fun (_, _, _, mem) ->
           match mem with Mnone -> -1 | Mload a | Mstore a -> a)
         ops)
  in
  Engine.run_unit e ~dispatch ~commit tab ~lo:0 ~len:(List.length ops) ~term:(-1)
    ~mem_addrs ~mem_off:0;
  (Engine.unit_resolve e, Engine.unit_retire e)

let test_engine_dependency_chain () =
  let e = Engine.create tiny_config in
  (* Three dependent integer ops: each completes one cycle after the
     previous (latency 1). *)
  let ops =
    [
      op Opclass.Integer ~defs:[| 1 |];
      op Opclass.Integer ~defs:[| 2 |] ~uses:[| 1 |];
      op Opclass.Integer ~defs:[| 3 |] ~uses:[| 2 |];
    ]
  in
  let resolve, _ = run_ops e ~dispatch:0 ~commit:true ops in
  Alcotest.(check int) "chain of 3 x 1-cycle" 4 resolve

let test_engine_div_latency () =
  let e = Engine.create tiny_config in
  let ops =
    [ op Opclass.Div ~defs:[| 1 |]; op Opclass.Integer ~defs:[| 2 |] ~uses:[| 1 |] ]
  in
  let resolve, _ = run_ops e ~dispatch:0 ~commit:true ops in
  (* div issues at 1, completes at 9; dependent add completes at 10. *)
  Alcotest.(check int) "div then add" 10 resolve

let test_engine_fu_contention () =
  let cfg = { tiny_config with fu_count = 2 } in
  let e = Engine.create cfg in
  (* Four independent ops on two FUs: two issue at cycle 1, two at 2. *)
  let ops = List.init 4 (fun i -> op Opclass.Integer ~defs:[| i + 1 |]) in
  let _, retire = run_ops e ~dispatch:0 ~commit:true ops in
  Alcotest.(check int) "second wave finishes at 3" 3 retire

let test_engine_commit_discard () =
  let e = Engine.create tiny_config in
  let slow = [ op Opclass.Div ~defs:[| 1 |] ] in
  ignore (run_ops e ~dispatch:0 ~commit:false slow);
  (* The discarded div must not delay a later consumer of register 1. *)
  let consumer = [ op Opclass.Integer ~defs:[| 2 |] ~uses:[| 1 |] ] in
  let resolve, _ = run_ops e ~dispatch:0 ~commit:true consumer in
  Alcotest.(check int) "no stale dependency" 2 resolve

let test_engine_store_load_ordering () =
  let e = Engine.create tiny_config in
  let st = [ op Opclass.Div ~defs:[| 1 |]; op Opclass.Store ~uses:[| 1 |] ~mem:(Mstore 64) ] in
  ignore (run_ops e ~dispatch:0 ~commit:true st);
  (* A later load from the same address waits for the store's data. *)
  let ld = [ op Opclass.Load ~defs:[| 2 |] ~mem:(Mload 64) ] in
  let resolve, _ = run_ops e ~dispatch:0 ~commit:true ld in
  Alcotest.(check bool) "load waits for store" true (resolve >= 11);
  (* A load from a different address does not. *)
  let ld2 = [ op Opclass.Load ~defs:[| 3 |] ~mem:(Mload 128) ] in
  let resolve2, _ = run_ops e ~dispatch:0 ~commit:true ld2 in
  Alcotest.(check bool) "independent load fast" true (resolve2 <= 3)

let test_engine_window_backpressure () =
  let cfg = { tiny_config with window_blocks = 2; window_ops = 1000 } in
  let e = Engine.create cfg in
  (* Two long-latency single-op blocks fill the 2-block window. *)
  for _ = 1 to 2 do
    ignore (run_ops e ~dispatch:(Engine.admit e ~want:0 ~op_count:1)
              ~commit:true [ op Opclass.Div ~defs:[| 9 |] ])
  done;
  (* The third block cannot dispatch until the oldest retires (cycle 9). *)
  let d = Engine.admit e ~want:0 ~op_count:1 in
  Alcotest.(check bool) "waited for retirement" true (d >= 9)

let test_engine_monotonic_retire () =
  let e = Engine.create tiny_config in
  let _, retire1 = run_ops e ~dispatch:0 ~commit:true [ op Opclass.Div ~defs:[| 1 |] ] in
  let _, retire2 = run_ops e ~dispatch:0 ~commit:true [ op Opclass.Integer ~defs:[| 2 |] ] in
  (* In-order retirement: the fast block cannot retire before the slow one. *)
  Alcotest.(check bool) "in-order" true (retire2 >= retire1)

(* --- Pipelines ---------------------------------------------------------------- *)

let sample =
  {|
int main() {
  int i;
  int acc = 0;
  for (i = 0; i < 500; i = i + 1) {
    acc = acc + (i & 7) * 3;
    if (i % 5 == 0) { acc = acc - 2; }
  }
  print_int(acc);
  return 0;
}
|}

let test_pipeline_sanity_bounds () =
  let c = Bisa_compiler.Compiler.compile sample in
  let cfg = Config.default in
  let mc = run_conv cfg c.conv in
  let mb = run_block cfg c.block in
  (* Cycles bounded below by fetch bandwidth and above by total latency. *)
  Alcotest.(check bool) "conv lower bound" true
    (mc.cycles >= mc.retired_ops / cfg.issue_width);
  Alcotest.(check bool) "conv upper bound" true (mc.cycles < mc.retired_ops * 12);
  Alcotest.(check bool) "block lower bound" true
    (mb.cycles >= mb.retired_blocks);
  Alcotest.(check bool) "retired ops counted" true (mb.retired_ops > 0);
  Alcotest.(check bool) "ipc sane" true
    (Bisa_timing.Metrics.ipc mc > 0.1 && Bisa_timing.Metrics.ipc mc < 16.0)

let test_perfect_pred_not_slower () =
  let c = Bisa_compiler.Compiler.compile sample in
  List.iter
    (fun icache ->
      let real = { Config.default with icache } in
      let perfect = { real with predictor = Config.Perfect } in
      let r = run_conv real c.conv in
      let p = run_conv perfect c.conv in
      Alcotest.(check bool) "conv: perfect <= real" true (p.cycles <= r.cycles);
      let rb = run_block real c.block in
      let pb = run_block perfect c.block in
      Alcotest.(check bool) "block: perfect <= real" true (pb.cycles <= rb.cycles))
    [ None; Config.default.icache ]

let test_bigger_icache_not_slower () =
  let c = Bisa_workloads.Workloads.compile ~scale:1 (Bisa_workloads.Workloads.find "go") in
  let at kb =
    let cfg =
      {
        Config.default with
        icache = Some { Bisa_uarch.Cache.size_bytes = kb * 1024; assoc = 4; line_bytes = 32 };
      }
    in
    (run_block cfg c.block).cycles
  in
  let c2 = at 2 and c8 = at 8 and c64 = at 64 in
  Alcotest.(check bool) "8KB <= 2KB" true (c8 <= c2);
  Alcotest.(check bool) "64KB <= 8KB" true (c64 <= c8)

let test_metrics_mean_block_size () =
  let c = Bisa_compiler.Compiler.compile sample in
  let mc = run_conv Config.default c.conv in
  let mb = run_block Config.default c.block in
  let szc = Bisa_timing.Metrics.mean_block_size mc in
  let szb = Bisa_timing.Metrics.mean_block_size mb in
  Alcotest.(check bool) "conv blocks small" true (szc > 2.0 && szc < 16.0);
  Alcotest.(check bool) "enlargement grew blocks" true (szb > szc)

(* --- One-loop equivalence and allocation discipline -------------------------- *)

(* Each pipeline has one step loop for both executors, with or without a
   probe, a trace cache or an injector.  A live probe (any non-null
   record) must not change a single metric — only observe — and the
   compiled executor's in-place drain must agree with the interpreter's
   step records.  All four runs of each configuration (interp or
   compiled, null or live probe) must save identical metrics.  The
   injector is stateful, so every run gets a fresh one. *)
let test_probe_equivalence () =
  let c = Bisa_compiler.Compiler.compile sample in
  let mbytes m =
    let w = Bisa_base.Codec.W.create () in
    Bisa_timing.Metrics.save m w;
    Bisa_base.Codec.W.contents w
  in
  let check name (cfg : unit -> Config.t) legs =
    let runs =
      List.concat_map
        (fun (backend, run) ->
          let fired = ref 0 in
          let probe =
            {
              Bisa_obs.Probe.null with
              unit_start = (fun ~cycle:_ ~addr:_ ~ops:_ -> incr fired);
            }
          in
          let null = run ~probe:Bisa_obs.Probe.null (cfg ()) in
          let live = run ~probe (cfg ()) in
          Alcotest.(check bool)
            (Printf.sprintf "%s %s: probe observed units" name backend)
            true (!fired > 0);
          [ (backend ^ "/null", mbytes null); (backend ^ "/live", mbytes live) ])
        legs
    in
    let reference = snd (List.hd runs) in
    List.iter
      (fun (label, bytes) ->
        Alcotest.(check string)
          (Printf.sprintf "%s: %s metrics == interp/null" name label)
          reference bytes)
      runs
  in
  let default = ("default", fun () -> Config.default) in
  let inject =
    ( "inject",
      fun () -> Config.with_inject (Some (Bisa_uarch.Inject.chaos ~seed:7)) Config.default )
  in
  let tc =
    ( "tc",
      fun () ->
        { Config.default with trace_cache = Some Bisa_uarch.Trace_cache.default_config } )
  in
  (* One artifact per backend, shared by every configuration. *)
  let legs (type p) (module P : Bisa_timing.Pipeline.S with type prog = p) (prog : p) =
    List.map
      (fun (backend, exec) ->
        let art = P.prepare ~exec prog in
        (backend, fun ~probe cfg -> fst (P.run_artifact ~probe cfg art)))
      [ ("interp", Compile.Interp); ("compiled", Compile.Compiled) ]
  in
  let conv = legs (module Conv) c.conv in
  List.iter (fun (cname, cfg) -> check ("conv " ^ cname) cfg conv) [ default; tc; inject ];
  let block = legs (module Block) c.block in
  List.iter (fun (cname, cfg) -> check ("block " ^ cname) cfg block) [ default; inject ]

(* A longer-running workload so the steady-state window is thousands of
   steps deep, far past predictor/cache warmup and table growth. *)
let alloc_sample =
  {|
int main() {
  int i;
  int acc = 0;
  for (i = 0; i < 4000; i = i + 1) {
    acc = acc + (i & 7) * 3 - (acc >> 4);
    if (i % 5 == 0) { acc = acc - 2; }
    if (i % 11 == 0) { acc = acc ^ i; }
  }
  print_int(acc);
  return 0;
}
|}

(* The untraced step loop must not allocate per step once warm beyond
   what it measures today: 0.454 words per conv step and 4.091 per block
   step (BTB fills and output consing).  Each bound is about twice that:
   one more option per conv step, or four more words per block step,
   fails here. *)
let test_steady_state_allocation () =
  let c = Bisa_compiler.Compiler.compile alloc_sample in
  let words_per_step name session step bound =
    (* Warm: predictor tables, caches, store map, scratch growth. *)
    let warm = ref 0 in
    while !warm < 2000 && step session do incr warm done;
    Alcotest.(check bool) (name ^ ": still running after warmup") true
      (!warm = 2000);
    let before = Gc.minor_words () in
    let n = ref 0 in
    while !n < 4000 && step session do incr n done;
    let used = Gc.minor_words () -. before in
    let per_step = used /. float_of_int (max 1 !n) in
    Alcotest.(check bool)
      (Printf.sprintf "%s: %.2f words/step <= %.1f" name per_step bound)
      true
      (per_step <= bound)
  in
  let cfg = Config.default in
  let conv = Conv.session_artifact cfg (Conv.prepare c.conv) in
  words_per_step "conv step" conv Conv.step 1.0;
  let block = Block.session_artifact cfg (Block.prepare c.block) in
  words_per_step "block step" block Block.step 8.0

(* The Printf rendering [Config.fingerprint] hashed until it streamed
   the same text into the hash, kept as the reference model: checkpoint
   and campaign headers and the daemon's cache keys all carry this
   value. *)
let fingerprint_model (t : Config.t) =
  let b = Buffer.create 256 in
  let add fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  let cache name = function
    | None -> add "%s=none;" name
    | Some (c : Bisa_uarch.Cache.config) ->
      add "%s=%d/%d/%d;" name c.size_bytes c.assoc c.line_bytes
  in
  add "v1;iw=%d;wb=%d;wo=%d;fu=%d;dd=%d;rp=%d;l2=%d;ob=%d;" t.issue_width
    t.window_blocks t.window_ops t.fu_count t.decode_depth t.redirect_penalty
    t.l2_latency t.op_budget;
  cache "ic" t.icache;
  cache "dc" t.dcache;
  (match t.trace_cache with
  | None -> add "tc=none;"
  | Some (c : Bisa_uarch.Trace_cache.config) ->
    add "tc=%d/%d/%d/%d;" c.sets c.ways c.max_blocks c.max_ops);
  add "pred=%s;" (match t.predictor with Perfect -> "perfect" | Real -> "real");
  let cp = t.conv_pred in
  add "cp=%d/%d/%d/%d/%d;" cp.hist_bits cp.pht_bits cp.btb_sets cp.btb_ways
    cp.ras_depth;
  let bp = t.block_pred in
  add "bp=%d/%d/%d/%d/%d/%b;" bp.hist_bits bp.pht_bits bp.btb_sets bp.btb_ways
    bp.ras_depth bp.naive_history;
  add "inj=%b" (t.inject <> None);
  Bisa_base.Codec.fnv1a64 (Buffer.contents b)

let test_fingerprint_model () =
  let hex = Printf.sprintf "%016Lx" in
  Alcotest.(check string) "default" "1a56af8aa052c8a9" (hex (Config.fingerprint Config.default));
  Alcotest.(check string) "bisad's default request" "c443bfb970df5c2a"
    (hex (Config.fingerprint (Bisa_proto.Proto.to_config Bisa_proto.Proto.default_sim_cfg)));
  let rng = Bisa_base.Rng.create 11 in
  (* small values, whole-range values and their negatives *)
  let num () =
    match Bisa_base.Rng.int rng 4 with
    | 0 -> Bisa_base.Rng.int rng 100
    | 1 -> -Bisa_base.Rng.int rng 100
    | 2 -> Int64.to_int (Bisa_base.Rng.next rng)
    | _ -> Int64.to_int (Bisa_base.Rng.next rng) asr Bisa_base.Rng.int rng 63
  in
  let flip () = Bisa_base.Rng.int rng 2 = 0 in
  let cache () =
    if flip () then None
    else Some { Bisa_uarch.Cache.size_bytes = num (); assoc = num (); line_bytes = num () }
  in
  for i = 1 to 2_000 do
    let t =
      {
        Config.issue_width = num ();
        window_blocks = num ();
        window_ops = num ();
        fu_count = num ();
        decode_depth = num ();
        redirect_penalty = num ();
        icache = cache ();
        dcache = cache ();
        trace_cache =
          (if flip () then None
           else
             Some
               { Bisa_uarch.Trace_cache.sets = num (); ways = num (); max_blocks = num (); max_ops = num () });
        l2_latency = num ();
        predictor = (if flip () then Config.Perfect else Config.Real);
        conv_pred =
          { hist_bits = num (); pht_bits = num (); btb_sets = num (); btb_ways = num (); ras_depth = num () };
        block_pred =
          {
            hist_bits = num ();
            pht_bits = num ();
            btb_sets = num ();
            btb_ways = num ();
            ras_depth = num ();
            naive_history = flip ();
          };
        op_budget = (if i = 1 then min_int else if i = 2 then max_int else num ());
        inject = (if flip () then None else Some (Bisa_uarch.Inject.chaos ~seed:i));
      }
    in
    Alcotest.(check int64) (Printf.sprintf "random configuration %d" i) (fingerprint_model t)
      (Config.fingerprint t)
  done

let suite =
  [
    Alcotest.test_case "engine chain" `Quick test_engine_dependency_chain;
    Alcotest.test_case "engine div latency" `Quick test_engine_div_latency;
    Alcotest.test_case "engine fu contention" `Quick test_engine_fu_contention;
    Alcotest.test_case "engine discard" `Quick test_engine_commit_discard;
    Alcotest.test_case "engine store/load" `Quick test_engine_store_load_ordering;
    Alcotest.test_case "engine window" `Quick test_engine_window_backpressure;
    Alcotest.test_case "engine in-order retire" `Quick test_engine_monotonic_retire;
    Alcotest.test_case "pipeline bounds" `Quick test_pipeline_sanity_bounds;
    Alcotest.test_case "perfect pred" `Quick test_perfect_pred_not_slower;
    Alcotest.test_case "icache monotone" `Quick test_bigger_icache_not_slower;
    Alcotest.test_case "block sizes" `Quick test_metrics_mean_block_size;
    Alcotest.test_case "probe equivalence" `Quick test_probe_equivalence;
    Alcotest.test_case "steady-state allocation" `Quick
      test_steady_state_allocation;
    Alcotest.test_case "config fingerprint matches reference model" `Quick
      test_fingerprint_model;
  ]
