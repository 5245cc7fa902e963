module Enlarge = Bisa_backend.Enlarge
module Block_prog = Bisa_isa.Block_prog
module Block_exec = Bisa_sim.Block_exec
module Workloads = Bisa_workloads.Workloads
module Table = Bisa_base.Table
module Cache = Bisa_uarch.Cache
module Config = Bisa_timing.Config

type profile = (string * int, int * int) Hashtbl.t

(* Reconstruct which function and protoblock a global block id belongs to:
   the linker laid functions out in list order. *)
let attribution (enlarged : Enlarge.t list) =
  let spans =
    List.fold_left
      (fun (off, acc) (e : Enlarge.t) ->
        (off + Array.length e.blocks, (off, e) :: acc))
      (0, []) enlarged
    |> snd |> List.rev
  in
  fun block ->
    let rec find = function
      | [] -> invalid_arg "Profile_guided: block id out of range"
      | (off, (e : Enlarge.t)) :: rest ->
        if block >= off && block < off + Array.length e.blocks then
          (e.name, e.start_proto.(block - off))
        else find rest
    in
    find spans

let collect (prog : Block_prog.t) (enlarged : Enlarge.t list) ?(budget = 50_000_000) () =
  let attribute = attribution enlarged in
  let profile : profile = Hashtbl.create 256 in
  let exec = Block_exec.create prog in
  Block_exec.set_budget exec budget;
  let rec go () =
    match Block_exec.step exec with
    | None -> ()
    | Some step ->
      (match step.dir_taken with
      | Some taken ->
        let key = attribute step.block in
        let t, n = Option.value (Hashtbl.find_opt profile key) ~default:(0, 0) in
        Hashtbl.replace profile key ((if taken then t + 1 else t), n + 1)
      | None -> ());
      go ()
  in
  go ();
  profile

let bias_of (profile : profile) fname proto =
  match Hashtbl.find_opt profile (fname, proto) with
  | Some (t, n) when n >= 16 -> Some (float_of_int t /. float_of_int n)
  | _ -> None

let compile ?scale (w : Workloads.t) =
  let src = Workloads.source ?scale w in
  let typed, ir, mfuncs =
    Bisa_compiler.Compiler.to_machine ~library_funcs:w.library_funcs src
  in
  (* Profiling build: no enlargement, so trap outcomes map 1:1 to
     protoblocks. *)
  let flat, flat_enlarged =
    Bisa_backend.Linker.link_block
      ~config:{ Enlarge.default_config with enabled = false }
      ir.globals mfuncs
  in
  let profile = collect flat flat_enlarged () in
  let conv = Bisa_backend.Linker.link_conventional ir.globals mfuncs in
  let block, enlarged =
    Bisa_backend.Linker.link_block ~bias:(bias_of profile) ir.globals mfuncs
  in
  { Bisa_compiler.Compiler.typed; ir; conv; block; enlarged }

let study ?(exec = Bisa_sim.Compile.Compiled) ?(workloads = [ "gcc"; "go" ])
    ?(pool = Bisa_base.Pool.sequential) () =
  let t =
    Table.create ~title:"Section 6: profile-guided enlargement (unbiased traps kept)"
      ~headers:
        [
          ("Benchmark", Table.Left);
          ("Build", Table.Left);
          ("Code bytes", Table.Right);
          ("Cycles @4KB", Table.Right);
          ("Icache misses @4KB", Table.Right);
          ("Fault squashes", Table.Right);
          ("Mean block", Table.Right);
        ]
  in
  let cache4 = { Cache.size_bytes = Cache.kb 4; assoc = 4; line_bytes = 32 } in
  let cfg = Config.with_icache (Some cache4) Config.default in
  (* Grid: every (workload, build flavour) is an independent item — the
     profile-guided build does its own profiling run inside the task. *)
  let grid =
    List.concat_map
      (fun name -> [ (name, "default"); (name, "profile-guided") ])
      workloads
  in
  let runs =
    Bisa_base.Pool.map_list pool
      (fun (name, label) ->
        let w = Workloads.find name in
        let c = if label = "default" then Workloads.compile w else compile w in
        let art = Bisa_timing.Pipeline.Block.prepare ~exec c.Bisa_compiler.Compiler.block in
        (name, label, c.Bisa_compiler.Compiler.block.code_bytes,
         fst (Bisa_timing.Pipeline.Block.run_artifact cfg art)))
      grid
  in
  let rows =
    List.concat_map
      (fun group ->
        let rows =
          List.map
            (fun (name, label, code_bytes, (m : Bisa_timing.Metrics.t)) ->
              Table.add_row t
                [
                  name;
                  label;
                  Table.cell_int code_bytes;
                  Table.cell_int m.cycles;
                  Table.cell_int m.icache_misses;
                  Table.cell_int m.fault_squash_redirects;
                  Table.cell_float (Bisa_timing.Metrics.mean_block_size m);
                ];
              {
                Ablations.label = name ^ "/" ^ label;
                values =
                  [
                    ("code_bytes", float_of_int code_bytes);
                    ("cycles", float_of_int m.cycles);
                    ("icache_misses", float_of_int m.icache_misses);
                  ];
              })
            group
        in
        Table.add_rule t;
        rows)
      (Figures.chunks 2 runs)
  in
  {
    Ablations.id = "profile_guided";
    title = "Profile-guided enlargement (paper section 6)";
    rows;
    rendered = Table.to_string t;
  }
