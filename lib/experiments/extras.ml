module Table = Bisa_base.Table
module Config = Bisa_timing.Config
module Workloads = Bisa_workloads.Workloads
module Cache = Bisa_uarch.Cache
module Pool = Bisa_base.Pool
module Conv = Bisa_timing.Pipeline.Conv
module Block = Bisa_timing.Pipeline.Block

(* These studies compile their own variants outside the Harness, so each
   prepares its programs under the backend the caller selected. *)
let run_conv ~exec cfg prog = fst (Conv.run_artifact cfg (Conv.prepare ~exec prog))
let run_block ~exec cfg prog = fst (Block.run_artifact cfg (Block.prepare ~exec prog))

let scientific ?(exec = Bisa_sim.Compile.Compiled) ?(pool = Pool.sequential) () =
  let w = Workloads.scientific in
  let c = Workloads.compile w in
  let cfg = Config.with_icache (Some Cache.config_16k) Config.default in
  let mc, mb =
    match
      Pool.map_list pool
        (fun f -> f ())
        [
          (fun () -> run_conv ~exec cfg c.conv);
          (fun () -> run_block ~exec cfg c.block);
        ]
    with
    | [ mc; mb ] -> (mc, mb)
    | _ -> assert false
  in
  let imp = 100.0 *. float_of_int (mc.cycles - mb.cycles) /. float_of_int mc.cycles in
  let t =
    Table.create ~title:"Future work: scientific (FP) code"
      ~headers:
        [
          ("Core", Table.Left);
          ("Cycles", Table.Right);
          ("IPC", Table.Right);
          ("Mean block", Table.Right);
          ("Mispredicts", Table.Right);
        ]
  in
  Table.add_row t
    [
      "conventional";
      Table.cell_int mc.cycles;
      Table.cell_float (Bisa_timing.Metrics.ipc mc);
      Table.cell_float (Bisa_timing.Metrics.mean_block_size mc);
      Table.cell_int mc.mispredicts;
    ];
  Table.add_row t
    [
      "block-structured";
      Table.cell_int mb.cycles;
      Table.cell_float (Bisa_timing.Metrics.ipc mb);
      Table.cell_float (Bisa_timing.Metrics.mean_block_size mb);
      Table.cell_int mb.mispredicts;
    ];
  {
    Figures.id = "future_scientific";
    title = "Scientific-code future-work claim";
    rendered = Table.to_string t;
    summary =
      Printf.sprintf
        "Block-structured improvement on the FP surrogate: %.1f%%. Half the \
         paper's section-6 conjecture holds exactly — FP branches are so \
         predictable that fault squashes nearly vanish (mispredicts above). \
         The other half does not transfer: FP basic blocks are already large, \
         so one-basic-block-per-cycle fetch satisfies the achievable FP IPC \
         and enlargement has less to add than on SPECint. (The paper never \
         ran this experiment; this is what its proposal measures.)"
        imp;
  }

let trace_cache_rivalry ?(exec = Bisa_sim.Compile.Compiled)
    ?(workloads = [ "m88ksim"; "perl"; "li"; "compress" ]) ?(pool = Pool.sequential) () =
  let base = Config.with_icache (Some Cache.config_16k) Config.default in
  let with_tc =
    { base with trace_cache = Some Bisa_uarch.Trace_cache.default_config }
  in
  let t =
    Table.create
      ~title:"Rivalry: run-time (trace cache) vs compile-time (enlargement) block merging"
      ~headers:
        [
          ("Benchmark", Table.Left);
          ("Conv cycles", Table.Right);
          ("Conv+TC cycles", Table.Right);
          ("BSA cycles", Table.Right);
          ("TC hits", Table.Right);
          ("TC extra ops", Table.Right);
        ]
  in
  let rows =
    Pool.map_list pool
      (fun name ->
        let w = Workloads.find name in
        let c = Workloads.compile w in
        let conv = Conv.prepare ~exec c.conv in
        let mc = fst (Conv.run_artifact base conv) in
        let mt = fst (Conv.run_artifact with_tc conv) in
        let mb = run_block ~exec base c.block in
        (name, mc, mt, mb))
      workloads
  in
  let improvements =
    List.map
      (fun (name, (mc : Bisa_timing.Metrics.t), (mt : Bisa_timing.Metrics.t),
           (mb : Bisa_timing.Metrics.t)) ->
        Table.add_row t
          [
            name;
            Table.cell_int mc.cycles;
            Table.cell_int mt.cycles;
            Table.cell_int mb.cycles;
            Table.cell_int mt.tc_hits;
            Table.cell_int mt.tc_served_ops;
          ];
        ( name,
          100.0 *. float_of_int (mc.cycles - mt.cycles) /. float_of_int mc.cycles,
          100.0 *. float_of_int (mc.cycles - mb.cycles) /. float_of_int mc.cycles ))
      rows
  in
  let n = float_of_int (List.length improvements) in
  let mean_tc = List.fold_left (fun a (_, tci, _) -> a +. tci) 0.0 improvements /. n in
  let mean_bsa = List.fold_left (fun a (_, _, b) -> a +. b) 0.0 improvements /. n in
  {
    Figures.id = "trace_cache";
    title = "Trace cache vs block enlargement";
    rendered = Table.to_string t;
    summary =
      Printf.sprintf
        "Mean improvement over the plain conventional core: trace cache %.1f%%, \
         block enlargement %.1f%%. Both merge basic blocks into one fetch unit; \
         the trace cache does it at run time into a small dedicated cache, \
         enlargement at compile time into the whole icache (paper section 3); \
         the paper's section-6 remark that the two could compose remains open \
         here too."
        mean_tc mean_bsa;
  }

let predication_study ?(exec = Bisa_sim.Compile.Compiled)
    ?(workloads = [ "go"; "gcc"; "compress" ]) ?(pool = Pool.sequential) () =
  let cfg = Config.with_icache (Some Cache.config_16k) Config.default in
  let t =
    Table.create
      ~title:"Section 6: predicated execution (if-conversion to selects)"
      ~headers:
        [
          ("Benchmark", Table.Left);
          ("Build", Table.Left);
          ("BSA cycles", Table.Right);
          ("Mispredicts", Table.Right);
          ("Fault squashes", Table.Right);
          ("Mean block", Table.Right);
        ]
  in
  (* Grid: every (workload, build) compiles and simulates independently. *)
  let grid =
    List.concat_map
      (fun name -> [ (name, "branches (paper)", false); (name, "if-converted", true) ])
      workloads
  in
  let runs =
    Pool.map_list pool
      (fun (name, label, ifconvert) ->
        let w = Workloads.find name in
        let src = Workloads.source w in
        let c =
          Bisa_compiler.Compiler.compile ~ifconvert ~library_funcs:w.library_funcs src
        in
        (name, label, run_block ~exec cfg c.block))
      grid
  in
  let deltas =
    List.map
      (function
        | [
            (name, bl, (base : Bisa_timing.Metrics.t));
            (_, pl, (pred : Bisa_timing.Metrics.t));
          ] ->
          let row label (m : Bisa_timing.Metrics.t) =
            Table.add_row t
              [
                name;
                label;
                Table.cell_int m.cycles;
                Table.cell_int m.mispredicts;
                Table.cell_int m.fault_squash_redirects;
                Table.cell_float (Bisa_timing.Metrics.mean_block_size m);
              ]
          in
          row bl base;
          row pl pred;
          Table.add_rule t;
          (base.cycles, pred.cycles, base.mispredicts, pred.mispredicts)
        | _ -> assert false)
      (Figures.chunks 2 runs)
  in
  let n = float_of_int (List.length deltas) in
  let mean f = List.fold_left (fun a d -> a +. f d) 0.0 deltas /. n in
  {
    Figures.id = "predication";
    title = "Predicated execution (paper section 6)";
    rendered = Table.to_string t;
    summary =
      Printf.sprintf
        "If-conversion removes %.0f%% of the block core's mispredict events and \
         changes cycles by %.1f%% on the branchy surrogates — the paper's \
         conjecture that eliminating hard-to-predict short branches helps the \
         block-structured core most, at the cost of issuing both arms."
        (mean (fun (_, _, mb, mp) ->
             100.0 *. float_of_int (mb - mp) /. float_of_int (max 1 mb)))
        (mean (fun (cb, cp, _, _) ->
             100.0 *. float_of_int (cb - cp) /. float_of_int cb));
  }

let inlining_study ?(exec = Bisa_sim.Compile.Compiled) ?(workloads = [ "li"; "gcc"; "vortex" ])
    ?(pool = Pool.sequential) () =
  let cfg = Config.with_icache (Some Cache.config_16k) Config.default in
  let t =
    Table.create ~title:"Section 6: inlining lifts the call/return merge barrier"
      ~headers:
        [
          ("Benchmark", Table.Left);
          ("Build", Table.Left);
          ("BSA cycles", Table.Right);
          ("Mean block", Table.Right);
          ("Code bytes", Table.Right);
        ]
  in
  let grid =
    List.concat_map
      (fun name -> [ (name, "no inlining (paper)", false); (name, "inlined", true) ])
      workloads
  in
  let runs =
    Pool.map_list pool
      (fun (name, label, inline) ->
        let w = Workloads.find name in
        let src = Workloads.source w in
        let c =
          Bisa_compiler.Compiler.compile ~inline ~library_funcs:w.library_funcs src
        in
        let m = run_block ~exec cfg c.block in
        (name, label, m, c.block.code_bytes))
      grid
  in
  let deltas =
    List.map
      (fun (name, label, (m : Bisa_timing.Metrics.t), code_bytes) ->
        Table.add_row t
          [
            name;
            label;
            Table.cell_int m.cycles;
            Table.cell_float (Bisa_timing.Metrics.mean_block_size m);
            Table.cell_int code_bytes;
          ];
        if label = "inlined" then Table.add_rule t;
        (name, label, m.cycles, Bisa_timing.Metrics.mean_block_size m))
      runs
    |> Figures.chunks 2
    |> List.map (function
         | [ (_, _, base_cycles, base_size); (_, _, in_cycles, in_size) ] ->
           (base_cycles, in_cycles, base_size, in_size)
         | _ -> assert false)
  in
  let n = float_of_int (List.length deltas) in
  let mean f = List.fold_left (fun a d -> a +. f d) 0.0 deltas /. n in
  {
    Figures.id = "inlining";
    title = "Inlining (paper section 6)";
    rendered = Table.to_string t;
    summary =
      Printf.sprintf
        "Inlining grows the mean retired block from %.1f to %.1f ops and changes \
         block-core cycles by %.1f%% on the call-heavy surrogates — the paper's \
         conjecture that removing call/return boundaries lets enlargement merge \
         further."
        (mean (fun (_, _, b, _) -> b))
        (mean (fun (_, _, _, i) -> i))
        (mean (fun (b, i, _, _) ->
             100.0 *. float_of_int (b - i) /. float_of_int b));
  }

let prediction_parity h =
  let cfg = Harness.base_config h in
  let t =
    Table.create ~title:"Prediction parity (paper section 5 claim)"
      ~headers:
        [
          ("Benchmark", Table.Left);
          ("Conv mispredicts/kop", Table.Right);
          ("BSA mispredicts/kop", Table.Right);
          ("BSA fault squashes", Table.Right);
        ]
  in
  let rows =
    Pool.map_list (Harness.pool h)
      (fun (w : Workloads.t) -> (w.name, Harness.run_conv h w cfg, Harness.run_block h w cfg))
      (Harness.benchmarks h)
  in
  List.iter
    (fun (name, (mc : Bisa_timing.Metrics.t), (mb : Bisa_timing.Metrics.t)) ->
      Table.add_row t
        [
          name;
          Table.cell_float (Bisa_timing.Metrics.mispredict_rate_per_kop mc);
          Table.cell_float (Bisa_timing.Metrics.mispredict_rate_per_kop mb);
          Table.cell_int mb.fault_squash_redirects;
        ])
    rows;
  {
    Figures.id = "prediction_parity";
    title = "Branch-misprediction parity";
    rendered = Table.to_string t;
    summary =
      "The paper reports both executables suffer about the same number of \
       mispredictions, with the block-structured ones costing more each \
       (whole-block squash); the per-kop rates above quantify that for the \
       surrogates.";
  }
