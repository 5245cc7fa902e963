module Table = Bisa_base.Table
module Config = Bisa_timing.Config
module Enlarge = Bisa_backend.Enlarge
module Workloads = Bisa_workloads.Workloads
module Cache = Bisa_uarch.Cache
module Pool = Bisa_base.Pool

type row = { label : string; values : (string * float) list }
type study = { id : string; title : string; rows : row list; rendered : string }

let default_subset = [ "m88ksim"; "perl"; "li" ]

let scaled_16k = { Cache.size_bytes = Cache.kb 16; assoc = 4; line_bytes = 32 }
let base_config = Config.with_icache (Some scaled_16k) Config.default

(* One block-core timing run of a freshly compiled variant, prepared
   under the caller's backend. *)
let run_block ~exec cfg prog =
  let module P = Bisa_timing.Pipeline.Block in
  fst (P.run_artifact cfg (P.prepare ~exec prog))

let enlargement_variants =
  [
    ("default", Enlarge.default_config);
    ("no-enlarge", { Enlarge.default_config with enabled = false });
    ("1-fault", { Enlarge.default_config with max_faults = 1 });
    ("8-op-limit", { Enlarge.default_config with max_ops = 8 });
    ("merge-backedges", { Enlarge.default_config with merge_across_back_edges = true });
    ("enlarge-libs", { Enlarge.default_config with enlarge_libraries = true });
  ]

let enlargement_rules ?(exec = Bisa_sim.Compile.Compiled) ?(workloads = default_subset)
    ?(pool = Pool.sequential) () =
  let t =
    Table.create ~title:"Ablation: enlargement termination rules"
      ~headers:
        [
          ("Benchmark", Table.Left);
          ("Config", Table.Left);
          ("Cycles", Table.Right);
          ("Mean block", Table.Right);
          ("Code bytes", Table.Right);
          ("Fault squashes", Table.Right);
        ]
  in
  (* Grid: every (workload, enlargement variant) compiles and simulates
     independently. *)
  let grid =
    List.concat_map
      (fun name -> List.map (fun variant -> (name, variant)) enlargement_variants)
      workloads
  in
  let runs =
    Pool.map_list pool
      (fun (name, (label, cfg)) ->
        let w = Workloads.find name in
        let c = Workloads.compile ~enlarge:cfg w in
        let m = run_block ~exec base_config c.block in
        (name, label, m, c.block.code_bytes))
      grid
  in
  let rows =
    List.concat_map
      (fun group ->
        let rows =
          List.map
            (fun (name, label, (m : Bisa_timing.Metrics.t), code_bytes) ->
              Table.add_row t
                [
                  name;
                  label;
                  Table.cell_int m.cycles;
                  Table.cell_float (Bisa_timing.Metrics.mean_block_size m);
                  Table.cell_int code_bytes;
                  Table.cell_int m.fault_squash_redirects;
                ];
              {
                label = name ^ "/" ^ label;
                values =
                  [
                    ("cycles", float_of_int m.cycles);
                    ("block_size", Bisa_timing.Metrics.mean_block_size m);
                    ("code_bytes", float_of_int code_bytes);
                  ];
              })
            group
        in
        Table.add_rule t;
        rows)
      (Figures.chunks (List.length enlargement_variants) runs)
  in
  {
    id = "ablation_rules";
    title = "Enlargement termination-rule ablation";
    rows;
    rendered = Table.to_string t;
  }

let history_policy ?(exec = Bisa_sim.Compile.Compiled) ?(workloads = default_subset)
    ?(pool = Pool.sequential) () =
  let t =
    Table.create ~title:"Ablation: history-update policy (predictor modification 3)"
      ~headers:
        [
          ("Benchmark", Table.Left);
          ("Policy", Table.Left);
          ("Cycles", Table.Right);
          ("Mispredicts", Table.Right);
        ]
  in
  let policies = [ ("variable (paper)", false); ("naive 3-bit", true) ] in
  let grid =
    List.concat_map (fun name -> List.map (fun p -> (name, p)) policies) workloads
  in
  let runs =
    Pool.map_list pool
      (fun (name, (label, naive)) ->
        let w = Workloads.find name in
        let c = Workloads.compile w in
        let cfg =
          {
            base_config with
            Config.block_pred = { base_config.Config.block_pred with naive_history = naive };
          }
        in
        (name, label, run_block ~exec cfg c.block))
      grid
  in
  let rows =
    List.map
      (fun (name, label, (m : Bisa_timing.Metrics.t)) ->
        Table.add_row t
          [ name; label; Table.cell_int m.cycles; Table.cell_int m.mispredicts ];
        {
          label = name ^ "/" ^ label;
          values =
            [
              ("cycles", float_of_int m.cycles);
              ("mispredicts", float_of_int m.mispredicts);
            ];
        })
      runs
  in
  {
    id = "ablation_history";
    title = "History-length ablation";
    rows;
    rendered = Table.to_string t;
  }

let all ?exec ?pool () = [ enlargement_rules ?exec ?pool (); history_policy ?exec ?pool () ]
