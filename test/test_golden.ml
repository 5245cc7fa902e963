(* Golden equivalence suite for the predecoded timing path.

   The fingerprints below were recorded from the pre-predecode engine
   (per-unit opref arrays + hashtable scratch) on the same workloads and
   configurations.  The refactored hot path must reproduce every counter
   and every block-size histogram bucket exactly — the predecode tables
   are a representation change, not a model change.

   A second test locks in the allocation budget of the simulation loop:
   the timing engine itself is allocation-free, so the bytes-per-op that
   remain come from the functional executor feeding it. *)

module Config = Bisa_timing.Config
module Metrics = Bisa_timing.Metrics
module Workloads = Bisa_workloads.Workloads
module Compile = Bisa_sim.Compile
module Conv = Bisa_timing.Pipeline.Conv
module Block = Bisa_timing.Pipeline.Block

(* The 512-iteration micro kernel (the bench harness uses a 2048-entry
   variant; the goldens were recorded at 512 to keep the suite fast). *)
let micro_source =
  {|
int inputs[512];
int histogram[64];
int main() {
  int i; int pass; int acc = 0; int seed = 11;
  for (i = 0; i < 512; i = i + 1) {
    seed = (seed * 1103515245 + 12345) & 1073741823;
    inputs[i] = (seed >> 8) & 63;
  }
  for (pass = 0; pass < 3; pass = pass + 1) {
    for (i = 0; i < 512; i = i + 1) {
      int v = inputs[i];
      histogram[v] = histogram[v] + 1;
      if (i % 4 == 0) { acc = acc + v * 3 - (v >> 1); }
    }
  }
  print_int(acc);
  return 0;
}
|}

(* Every counter of Metrics.t plus the nonzero histogram buckets, in a
   stable textual form.  Exact string equality = exact metrics equality. *)
let fingerprint (m : Metrics.t) =
  let b = Buffer.create 256 in
  Printf.bprintf b
    "cy=%d ro=%d rb=%d fu=%d sqb=%d sqo=%d mp=%d fsr=%d ica=%d icm=%d dca=%d dcm=%d tch=%d tcs=%d h="
    m.cycles m.retired_ops m.retired_blocks m.fetch_units m.squashed_blocks
    m.squashed_ops m.mispredicts m.fault_squash_redirects m.icache_accesses
    m.icache_misses m.dcache_accesses m.dcache_misses m.tc_hits m.tc_served_ops;
  Bisa_base.Stats.Histogram.iter m.block_sizes (fun bucket count ->
      if count <> 0 then Printf.bprintf b "%d:%d," bucket count);
  Buffer.contents b

(* Recorded from the seed (pre-predecode) engine; do not regenerate from
   the current code when they disagree — a mismatch is a model change. *)
let goldens =
  [
    ( "micro/conv/real/notc",
      "cy=8161 ro=38697 rb=6033 fu=6033 sqb=0 sqo=0 mp=9 fsr=0 ica=10003 icm=8 dca=3072 dcm=144 tch=0 tcs=0 h=1:1,2:2058,3:1541,5:1,6:384,13:1536,15:512," );
    ( "micro/conv/real/tc",
      "cy=7393 ro=38697 rb=6033 fu=6033 sqb=0 sqo=0 mp=9 fsr=0 ica=9235 icm=8 dca=3072 dcm=144 tch=384 tcs=1919 h=1:1,2:2058,3:1541,5:1,6:384,13:1536,15:512," );
    ( "micro/block/real",
      "cy=6284 ro=38827 rb=4105 fu=4110 sqb=5 sqo=10 mp=9 fsr=5 ica=8605 icm=17 dca=3072 dcm=144 tch=0 tcs=0 h=1:1,2:1,3:1663,5:4,6:3,8:385,14:3,15:2045," );
    ( "micro/conv/perfect/notc",
      "cy=8080 ro=38697 rb=6033 fu=6033 sqb=0 sqo=0 mp=0 fsr=0 ica=10003 icm=8 dca=3072 dcm=144 tch=0 tcs=0 h=1:1,2:2058,3:1541,5:1,6:384,13:1536,15:512," );
    ( "micro/conv/perfect/tc",
      "cy=7312 ro=38697 rb=6033 fu=6033 sqb=0 sqo=0 mp=0 fsr=0 ica=9231 icm=8 dca=3072 dcm=144 tch=386 tcs=1929 h=1:1,2:2058,3:1541,5:1,6:384,13:1536,15:512," );
    ( "micro/block/perfect",
      "cy=6181 ro=38827 rb=4105 fu=4105 sqb=0 sqo=0 mp=0 fsr=0 ica=8593 icm=17 dca=3072 dcm=144 tch=0 tcs=0 h=1:1,2:1,3:1663,5:4,6:3,8:385,14:3,15:2045," );
    ( "compress/conv/real/notc",
      "cy=281046 ro=584137 rb=99446 fu=99446 sqb=0 sqo=0 mp=4607 fsr=0 ica=156945 icm=46 dca=54315 dcm=4592 tch=0 tcs=0 h=1:14947,2:13514,3:14269,4:2669,5:2433,6:377,7:16758,8:13868,9:399,10:4097,11:8055,12:2,13:1981,14:4096,15:1981," );
    ( "compress/conv/real/tc",
      "cy=274303 ro=584137 rb=99446 fu=99446 sqb=0 sqo=0 mp=4607 fsr=0 ica=105214 icm=46 dca=54315 dcm=4592 tch=23023 tcs=133212 h=1:14947,2:13514,3:14269,4:2669,5:2433,6:377,7:16758,8:13868,9:399,10:4097,11:8055,12:2,13:1981,14:4096,15:1981," );
    ( "compress/block/real",
      "cy=274484 ro=573604 rb=55660 fu=58312 sqb=2652 sqo=16982 mp=4599 fsr=2652 ica=125763 icm=89 dca=56294 dcm=4592 tch=0 tcs=0 h=1:2,2:3,3:4,4:1981,5:3960,6:83,7:2173,8:1982,9:14265,10:7339,11:7816,12:3202,13:2434,14:2,15:10174,16:240," );
    ( "compress/conv/perfect/notc",
      "cy=184150 ro=584137 rb=99446 fu=99446 sqb=0 sqo=0 mp=0 fsr=0 ica=156945 icm=46 dca=54315 dcm=4592 tch=0 tcs=0 h=1:14947,2:13514,3:14269,4:2669,5:2433,6:377,7:16758,8:13868,9:399,10:4097,11:8055,12:2,13:1981,14:4096,15:1981," );
    ( "compress/conv/perfect/tc",
      "cy=184117 ro=584137 rb=99446 fu=99446 sqb=0 sqo=0 mp=0 fsr=0 ica=106354 icm=46 dca=54315 dcm=4592 tch=19017 tcs=128938 h=1:14947,2:13514,3:14269,4:2669,5:2433,6:377,7:16758,8:13868,9:399,10:4097,11:8055,12:2,13:1981,14:4096,15:1981," );
    ( "compress/block/perfect",
      "cy=183748 ro=573604 rb=55660 fu=55660 sqb=0 sqo=0 mp=0 fsr=0 ica=118351 icm=85 dca=54315 dcm=4592 tch=0 tcs=0 h=1:2,2:3,3:4,4:1981,5:3960,6:83,7:2173,8:1982,9:14265,10:7339,11:7816,12:3202,13:2434,14:2,15:10174,16:240," );
    ( "li/conv/real/notc",
      "cy=105994 ro=240038 rb=40329 fu=40329 sqb=0 sqo=0 mp=3387 fsr=0 ica=62820 icm=77 dca=32662 dcm=2399 tch=0 tcs=0 h=1:7300,2:1809,3:4249,4:3306,5:5314,6:4933,7:4981,8:575,9:778,10:1114,12:803,13:1527,15:2507,16:95,20:1038," );
    ( "li/conv/real/tc",
      "cy=95496 ro=240038 rb=40329 fu=40329 sqb=0 sqo=0 mp=3387 fsr=0 ica=40558 icm=77 dca=32662 dcm=2399 tch=9368 tcs=71167 h=1:7300,2:1809,3:4249,4:3306,5:5314,6:4933,7:4981,8:575,9:778,10:1114,12:803,13:1527,15:2507,16:95,20:1038," );
    ( "li/block/real",
      "cy=101552 ro=237920 rb=23187 fu=26031 sqb=2844 sqo=20813 mp=3488 fsr=2844 ica=59185 icm=123 dca=35320 dcm=2399 tch=0 tcs=0 h=1:2,2:3,3:148,4:2294,5:363,6:4568,7:2147,8:491,9:1397,10:1112,11:46,12:1392,13:1070,14:714,15:3737,16:3703," );
    ( "li/conv/perfect/notc",
      "cy=50408 ro=240038 rb=40329 fu=40329 sqb=0 sqo=0 mp=0 fsr=0 ica=62820 icm=77 dca=32662 dcm=2399 tch=0 tcs=0 h=1:7300,2:1809,3:4249,4:3306,5:5314,6:4933,7:4981,8:575,9:778,10:1114,12:803,13:1527,15:2507,16:95,20:1038," );
    ( "li/conv/perfect/tc",
      "cy=43633 ro=240038 rb=40329 fu=40329 sqb=0 sqo=0 mp=0 fsr=0 ica=39810 icm=77 dca=32662 dcm=2399 tch=8545 tcs=72736 h=1:7300,2:1809,3:4249,4:3306,5:5314,6:4933,7:4981,8:575,9:778,10:1114,12:803,13:1527,15:2507,16:95,20:1038," );
    ( "li/block/perfect",
      "cy=41611 ro=237920 rb=23187 fu=23187 sqb=0 sqo=0 mp=0 fsr=0 ica=52392 icm=112 dca=32662 dcm=2399 tch=0 tcs=0 h=1:2,2:3,3:148,4:2294,5:363,6:4568,7:2147,8:491,9:1397,10:1112,11:46,12:1392,13:1070,14:714,15:3737,16:3703," );
  ]

let programs () =
  [
    ("micro", Bisa_compiler.Compiler.compile micro_source);
    ("compress", Workloads.compile ~scale:1 (Workloads.find "compress"));
    ("li", Workloads.compile ~scale:1 (Workloads.find "li"));
  ]

(* The recorded grid: conv = (real|perfect) x (no trace cache | default
   trace cache), block = (real|perfect); default icache/dcache throughout.
   [exec] picks the functional executor underneath both pipelines, and
   both backends are asserted against the SAME goldens: the backend must
   be invisible in every counter and histogram bucket.  Each program is
   prepared once and its artifacts are shared by all its grid points —
   and, in the sharded variant, by all worker domains — while every run
   builds the closure chains it executes. *)
let grid ~exec pool =
  let points =
    List.concat_map
      (fun (name, (c : Bisa_compiler.Compiler.compiled)) ->
        let conv_art = Conv.prepare ~exec c.conv and block_art = Block.prepare ~exec c.block in
        let conv predictor trace_cache () =
          fst (Conv.run_artifact { Config.default with predictor; trace_cache } conv_art)
        in
        let block predictor () =
          fst (Block.run_artifact { Config.default with predictor } block_art)
        in
        let tc = Some Bisa_uarch.Trace_cache.default_config in
        [
          (name ^ "/conv/real/notc", conv Config.Real None);
          (name ^ "/conv/real/tc", conv Config.Real tc);
          (name ^ "/block/real", block Config.Real);
          (name ^ "/conv/perfect/notc", conv Config.Perfect None);
          (name ^ "/conv/perfect/tc", conv Config.Perfect tc);
          (name ^ "/block/perfect", block Config.Perfect);
        ])
      (programs ())
  in
  Bisa_base.Pool.map_list pool (fun (key, run) -> (key, fingerprint (run ()))) points

let check_against_goldens got =
  Alcotest.(check int) "grid size" (List.length goldens) (List.length got);
  List.iter
    (fun (key, expect) ->
      match List.assoc_opt key got with
      | None -> Alcotest.failf "missing grid point %s" key
      | Some fp -> Alcotest.(check string) key expect fp)
    goldens

let test_golden_metrics () =
  check_against_goldens (grid ~exec:Compile.Interp Bisa_base.Pool.sequential)

let test_golden_metrics_compiled () =
  check_against_goldens (grid ~exec:Compile.Compiled Bisa_base.Pool.sequential)

let test_golden_metrics_compiled_sharded () =
  Bisa_base.Pool.run ~workers:4 @@ fun pool ->
  check_against_goldens (grid ~exec:Compile.Compiled pool)

(* Bytes allocated per simulated op.  The timing engine's hot path is
   allocation-free; what remains is the functional executor's trace
   production (packet records, address lists), measured at ~320 bytes/op.
   The bound has headroom for GC accounting jitter, not for a regression
   back to per-op timing allocations (which cost >1KB/op). *)
let alloc_bound = 400.0

let per_op run =
  ignore (run ());
  (* warm: caches, pages, table growth *)
  let before = Gc.allocated_bytes () in
  let m : Metrics.t = run () in
  let after = Gc.allocated_bytes () in
  (after -. before) /. float_of_int m.retired_ops

let test_allocation_budget () =
  let c = Bisa_compiler.Compiler.compile micro_source in
  let conv_art = Conv.prepare ~exec:Compile.Interp c.conv in
  let block_art = Block.prepare ~exec:Compile.Interp c.block in
  let conv ?probe () = fst (Conv.run_artifact ?probe Config.default conv_art) in
  let block ?probe () = fst (Block.run_artifact ?probe Config.default block_art) in
  let pc = per_op conv and pb = per_op block in
  if pc > alloc_bound then
    Alcotest.failf "conv pipeline allocates %.1f bytes/op (bound %.0f)" pc alloc_bound;
  if pb > alloc_bound then
    Alcotest.failf "block pipeline allocates %.1f bytes/op (bound %.0f)" pb alloc_bound;
  (* The observability layer's contract: passing the null probe explicitly
     is indistinguishable from not tracing at all.  The runs must fit the
     same budget (the executor's bytes/op jitters ~25 bytes run to run, so
     a paired delta would flake; the zero-allocation property of the probe
     itself is asserted exactly below). *)
  let null_probe = Bisa_obs.Probe.null in
  let pc' = per_op (conv ~probe:null_probe) and pb' = per_op (block ~probe:null_probe) in
  if pc' > alloc_bound then
    Alcotest.failf "conv + null probe allocates %.1f bytes/op (bound %.0f)" pc' alloc_bound;
  if pb' > alloc_bound then
    Alcotest.failf "block + null probe allocates %.1f bytes/op (bound %.0f)" pb' alloc_bound

(* The compiled backend's reason to exist: the interpreter's per-op
   dispatch partial-applications (the bulk of the ~320 bytes/op above)
   collapse to the per-step trace records the timing model consumes
   (packet/step record + mem-address array — amortized over a whole
   fetch unit).  Measured ~110 (conv) / ~180 (block) bytes/op through
   the full timing pipeline; the bounds leave GC-jitter headroom yet
   sit far under the interpreter's, so a regression back to dispatch
   allocation trips immediately. *)
let compiled_alloc_bound_conv = 150.0
let compiled_alloc_bound_block = 240.0

let test_compiled_allocation_budget () =
  let c = Bisa_compiler.Compiler.compile micro_source in
  let conv_art = Conv.prepare c.conv and block_art = Block.prepare c.block in
  let pc = per_op (fun () -> fst (Conv.run_artifact Config.default conv_art))
  and pb = per_op (fun () -> fst (Block.run_artifact Config.default block_art)) in
  if pc > compiled_alloc_bound_conv then
    Alcotest.failf "compiled conv pipeline allocates %.1f bytes/op (bound %.0f)"
      pc compiled_alloc_bound_conv;
  if pb > compiled_alloc_bound_block then
    Alcotest.failf "compiled block pipeline allocates %.1f bytes/op (bound %.0f)"
      pb compiled_alloc_bound_block

(* Invoking the null probe's hooks allocates nothing: all arguments are
   immediates, so a million invocations of the full event set must not
   move the allocation counter beyond the counter read's own boxed-float
   result (one boxed argument or closure would cost >= 16MB here). *)
let test_null_probe_zero_alloc () =
  let p = Bisa_obs.Probe.null in
  let fire i =
    p.unit_start ~cycle:i ~addr:i ~ops:4;
    p.predict ~pc:i ~correct:(i land 1 = 0);
    p.icache_access ~addr:i ~hit:true;
    p.dcache_access ~addr:i ~hit:false;
    p.btb_lookup ~key:i ~hit:true;
    p.tc_lookup ~start:i ~hit:false;
    p.tc_serve ~ops:3;
    p.occupancy ~cycle:i ~ops:7;
    p.redirect ~cycle:i ~until:(i + 2) ~cause:Bisa_obs.Probe.Mispredict;
    p.squash ~cycle:i ~block:i ~ops:5;
    p.unit_retire ~dispatch:i ~resolve:(i + 1) ~retire:(i + 2) ~ops:4 ~committed:true
  in
  fire 0;
  (* warm *)
  let before = Gc.allocated_bytes () in
  for i = 1 to 1_000_000 do
    fire i
  done;
  let after = Gc.allocated_bytes () in
  if after -. before > 64.0 then
    Alcotest.failf "null probe allocated %.0f bytes over 1M event sets" (after -. before)

let suite =
  [
    Alcotest.test_case "metrics byte-identical to pre-predecode goldens" `Slow
      test_golden_metrics;
    Alcotest.test_case "compiled exec reproduces the goldens byte-for-byte" `Slow
      test_golden_metrics_compiled;
    Alcotest.test_case "compiled goldens identical when sharded over 4 domains" `Slow
      test_golden_metrics_compiled_sharded;
    Alcotest.test_case "simulation allocation budget" `Quick test_allocation_budget;
    Alcotest.test_case "compiled-exec allocation budget" `Quick
      test_compiled_allocation_budget;
    Alcotest.test_case "null probe is allocation-free" `Quick test_null_probe_zero_alloc;
  ]
