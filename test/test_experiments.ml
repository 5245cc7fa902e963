(* Experiment-harness tests: static reports, run caching, and the paper's
   headline directions on one fast benchmark. *)

module Figures = Bisa_experiments.Figures
module Harness = Bisa_experiments.Harness

let test_table1_is_paper () =
  let r = Figures.table1 () in
  Alcotest.(check string) "id" "table1" r.id;
  List.iter
    (fun fragment ->
      Alcotest.(check bool) fragment true
        (Astring_free.contains_substring r.rendered fragment))
    [ "Integer"; "FP/INT Div"; "Bit Field"; "Memory loads"; "8"; "Control instructions" ]

let test_expected_values () =
  Alcotest.(check (float 1e-9)) "fig3 mean" 12.3
    Bisa_experiments.Expected.fig3_mean_improvement_pct;
  Alcotest.(check int) "table2 rows" 8 (List.length Bisa_experiments.Expected.table2);
  Alcotest.(check (float 1e-9)) "fig5 conv" 5.2
    Bisa_experiments.Expected.fig5_conv_mean_block

let test_harness_caching () =
  let h = Harness.create ~scale:1 () in
  let w = Bisa_workloads.Workloads.find "m88ksim" in
  let cfg = Harness.base_config h in
  let t0 = Unix.gettimeofday () in
  let m1 = Harness.run_conv h w cfg in
  let t1 = Unix.gettimeofday () in
  let m2 = Harness.run_conv h w cfg in
  let t2 = Unix.gettimeofday () in
  Alcotest.(check bool) "same object" true (m1 == m2);
  Alcotest.(check bool) "cached run is instant" true (t2 -. t1 < (t1 -. t0) /. 10.0 +. 0.01)

(* The run memo is keyed on the whole configuration: a field no figure
   varies, such as [fu_count], still selects its own run. *)
let test_harness_memo_whole_config () =
  let w = Bisa_workloads.Workloads.find "compress" in
  let h = Harness.create ~scale:1 () in
  let cfg = Harness.base_config h in
  let narrow = { cfg with Bisa_timing.Config.fu_count = 1 } in
  let summary m = Bisa_timing.Metrics.summary ~name:"compress" m in
  let wide = Harness.run_conv h w cfg in
  let after_wide = Harness.run_conv h w narrow in
  let fresh = Harness.run_conv (Harness.create ~scale:1 ()) w narrow in
  Alcotest.(check string) "fu_count 1 after the default = on a fresh harness"
    (summary fresh) (summary after_wide);
  Alcotest.(check bool) "fu_count 1 is not the default's run" true
    (wide.cycles <> after_wide.cycles)

let test_headline_direction () =
  (* m88ksim is the paper's biggest winner; even at scale 1 the
     block-structured core must win it. *)
  let h = Harness.create ~scale:1 () in
  let w = Bisa_workloads.Workloads.find "m88ksim" in
  let cfg = Harness.base_config h in
  let mc = Harness.run_conv h w cfg in
  let mb = Harness.run_block h w cfg in
  Alcotest.(check bool) "block wins m88ksim" true (mb.cycles < mc.cycles);
  (* Figure 5's direction: enlarged blocks are bigger. *)
  Alcotest.(check bool) "bigger blocks" true
    (Bisa_timing.Metrics.mean_block_size mb > Bisa_timing.Metrics.mean_block_size mc)

let test_sweep_shape () =
  let h = Harness.create () in
  Alcotest.(check int) "three sweep points" 3 (List.length (Harness.sweep_caches h));
  let hp = Harness.create ~paper_caches:true () in
  let labels = List.map fst (Harness.sweep_caches hp) in
  Alcotest.(check (list string)) "paper sizes" [ "16KB"; "32KB"; "64KB" ] labels

let test_chunks () =
  Alcotest.(check (list (list int)))
    "even split"
    [ [ 1; 2 ]; [ 3; 4 ]; [ 5; 6 ] ]
    (Harness.chunks 2 [ 1; 2; 3; 4; 5; 6 ]);
  Alcotest.(check (list (list int))) "empty list" [] (Harness.chunks 3 []);
  let raises what f =
    Alcotest.(check bool) what true
      (match f () with
      | (_ : int list list) -> false
      | exception Invalid_argument _ -> true)
  in
  raises "zero group size" (fun () -> Harness.chunks 0 [ 1; 2 ]);
  raises "negative group size" (fun () -> Harness.chunks (-3) [ 1; 2 ]);
  raises "ragged grid" (fun () -> Harness.chunks 2 [ 1; 2; 3 ])

(* The compiled backend is the default wherever one is chosen, and the
   report sections it feeds render the same bytes under the interpreter.
   No other tier-1 check runs these sections interpreted. *)
let test_compiled_default_and_parity () =
  let cli_default =
    let open Cmdliner in
    match
      Cmd.eval_value ~env:(fun _ -> None) ~argv:[| "test" |]
        (Cmd.v (Cmd.info "test") Bisa_cli.Args.exec)
    with
    | Ok (`Ok exec) -> exec
    | _ -> Alcotest.fail "cannot evaluate the --exec default"
  in
  let backend = Alcotest.testable Fmt.(of_to_string Bisa_sim.Compile.backend_to_string) ( = ) in
  Alcotest.check backend "--exec default" Bisa_sim.Compile.Compiled cli_default;
  Alcotest.check backend "harness default" Bisa_sim.Compile.Compiled
    (Harness.exec_backend (Harness.create ()));
  let c = Bisa_compiler.Compiler.compile "int main() { print_int(7); return 0; }" in
  let module Conv = Bisa_timing.Pipeline.Conv in
  let module Block = Bisa_timing.Pipeline.Block in
  Alcotest.(check bool) "conv prepare takes a code handle" true
    (Option.is_some (Conv.Artifact.code (Conv.prepare c.conv)));
  Alcotest.(check bool) "block prepare takes a code handle" true
    (Option.is_some (Block.Artifact.code (Block.prepare c.block)));
  let render ?exec () =
    let h = Harness.create ~scale:1 ?exec () in
    let figure (r : Figures.report) = r.rendered ^ r.summary in
    String.concat "\n"
      [
        figure (Figures.table2 h);
        figure (Figures.fig3 h);
        figure (Bisa_experiments.Extras.trace_cache_rivalry ?exec ~workloads:[ "compress" ] ());
        (Bisa_experiments.Ablations.history_policy ?exec ~workloads:[ "compress" ] ()).rendered;
      ]
  in
  Alcotest.(check string) "interp and default render byte-identically"
    (render ~exec:Bisa_sim.Compile.Interp ())
    (render ())

(* --- campaign resume ---------------------------------------------------- *)

module Campaign = Bisa_experiments.Campaign

(* A campaign directory path for one check (the campaign creates it),
   removed when the check ends. *)
let with_fresh_dir f =
  let d = Filename.temp_file "bisa_campaign" "" in
  Sys.remove d;
  Fun.protect ~finally:(fun () -> Bisa_base.Fs.rm_rf d) (fun () -> f d)

(* A tiny real grid through the harness (which routes every timing run
   through the campaign when one is attached). *)
let grid_report ~pool campaign =
  let h = Harness.create ~scale:1 ~pool ?campaign () in
  let w = Bisa_workloads.Workloads.find "li" in
  let cfg = Harness.base_config h in
  let runs =
    Bisa_base.Pool.map_list pool
      (fun f -> f ())
      [
        (fun () -> Harness.run_conv h w cfg);
        (fun () -> Harness.run_block h w cfg);
        (fun () ->
          Harness.run_conv h w
            (Bisa_timing.Config.with_predictor Bisa_timing.Config.Perfect cfg));
      ]
  in
  String.concat "\n"
    (List.map (fun m -> Bisa_timing.Metrics.summary ~name:"cell" m) runs)

let test_campaign_resume_identical () =
  (* A fresh campaign, a reopened campaign, and no campaign at all must
     agree byte-for-byte — sequentially and at four workers. *)
  Bisa_base.Pool.run ~workers:1 @@ fun seq ->
  Bisa_base.Pool.run ~workers:4 @@ fun par ->
  let golden = grid_report ~pool:seq None in
  with_fresh_dir @@ fun d ->
  let open_c () =
    Some (Campaign.open_ ~dir:d ~checkpoint_every:500 ~scale:(Some 1) ~paper_caches:false ())
  in
  Alcotest.(check string) "campaign run matches direct run" golden
    (grid_report ~pool:seq (open_c ()));
  Alcotest.(check string) "reopened campaign reuses cells" golden
    (grid_report ~pool:seq (open_c ()));
  Alcotest.(check string) "parallel resume is byte-identical" golden
    (grid_report ~pool:par (open_c ()));
  let done_cells =
    Sys.readdir (Filename.concat d "cells")
    |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".done")
  in
  Alcotest.(check int) "three distinct cells persisted" 3 (List.length done_cells)

let test_campaign_meta_mismatch () =
  with_fresh_dir @@ fun d ->
  let _ =
    Campaign.open_ ~dir:d ~scale:(Some 1) ~paper_caches:false ()
  in
  Alcotest.(check bool) "different settings are rejected" true
    (match Campaign.open_ ~dir:d ~scale:(Some 7) ~paper_caches:true () with
    | (_ : Campaign.t) -> false
    | exception Bisa_base.Diag.Fail _ -> true)

let test_campaign_timeout () =
  with_fresh_dir @@ fun d ->
  (* An impossible budget: the deadline fires on the first poll window. *)
  let camp =
    Campaign.open_ ~dir:d ~checkpoint_every:500 ~timeout_s:(-1.0) ~scale:(Some 1)
      ~paper_caches:false ()
  in
  let c = Bisa_compiler.Compiler.compile "int main() { int i; int s = 0; for (i = 0; i < 4000; i = i + 1) { s = s + i; } return s & 255; }" in
  let cfg = Bisa_timing.Config.default in
  let art = Bisa_timing.Pipeline.Conv.prepare c.conv in
  (match
     Campaign.run_cell camp (module Bisa_timing.Pipeline.Conv) ~bench:"slow" cfg art
   with
  | (_ : Bisa_timing.Metrics.t) -> Alcotest.fail "a negative budget cannot finish"
  | exception Campaign.Timed_out { key; ops } ->
    Alcotest.(check bool) "ops reported" true (ops >= 0);
    Alcotest.(check bool) "timeout marker written" true
      (Sys.file_exists (Filename.concat (Filename.concat d "cells") (key ^ ".timeout")));
    Alcotest.(check bool) "snapshot kept for retry" true
      (Sys.file_exists (Filename.concat (Filename.concat d "cells") (key ^ ".ckpt"))));
  (* Lifting the budget finishes the cell from its snapshot and clears
     the stale timeout marker. *)
  let camp2 =
    Campaign.open_ ~dir:d ~checkpoint_every:500 ~scale:(Some 1) ~paper_caches:false ()
  in
  let m = Campaign.run_cell camp2 (module Bisa_timing.Pipeline.Conv) ~bench:"slow" cfg art in
  let m_direct =
    let module P = Bisa_timing.Pipeline.Conv in
    fst (P.run_artifact cfg (P.prepare ~exec:Bisa_sim.Compile.Interp c.conv))
  in
  Alcotest.(check string) "retry result == direct run"
    (Bisa_timing.Metrics.summary ~name:"x" m_direct)
    (Bisa_timing.Metrics.summary ~name:"x" m);
  let key =
    Campaign.key ~bench:"slow" ~isa:"conv"
      ~cfg_hash:(Bisa_timing.Config.fingerprint cfg)
      ~prog_hash:(Bisa_timing.Pipeline.Conv.prog_hash c.conv)
  in
  let cell ext = Filename.concat (Filename.concat d "cells") (key ^ ext) in
  Alcotest.(check bool) "timeout marker cleared" false (Sys.file_exists (cell ".timeout"));
  Alcotest.(check bool) "snapshot deleted" false (Sys.file_exists (cell ".ckpt"));
  Alcotest.(check bool) "manifest written" true (Sys.file_exists (cell ".done"))

(* Every single-byte change to a finished cell's manifest, at every
   position, is rejected with a located diagnostic that names the file. *)
let test_campaign_cell_every_byte () =
  with_fresh_dir @@ fun d ->
  let camp = Campaign.open_ ~dir:d ~scale:(Some 1) ~paper_caches:false () in
  let c = Bisa_compiler.Compiler.compile "int main() { print_int(5); return 5; }" in
  let cfg = Bisa_timing.Config.default in
  let art = Bisa_timing.Pipeline.Conv.prepare c.conv in
  let run () = Campaign.run_cell camp (module Bisa_timing.Pipeline.Conv) ~bench:"tiny" cfg art in
  let m = run () in
  let path =
    Filename.concat (Filename.concat d "cells")
      (Campaign.key ~bench:"tiny" ~isa:"conv"
         ~cfg_hash:(Bisa_timing.Config.fingerprint cfg)
         ~prog_hash:(Bisa_timing.Pipeline.Conv.prog_hash c.conv)
      ^ ".done")
  in
  let good = Bisa_base.Fs.read_file path in
  let write s =
    (* A new file each time: rewriting one in place makes ext4 flush it. *)
    Sys.remove path;
    let oc = open_out_bin path in
    output_string oc s;
    close_out oc
  in
  String.iteri
    (fun i ch ->
      List.iter
        (fun mask ->
          let b = Bytes.of_string good in
          Bytes.set b i (Char.chr (Char.code ch lxor mask));
          write (Bytes.to_string b);
          match run () with
          | _ -> Alcotest.failf "byte %d xor 0x%02x: accepted" i mask
          | exception Bisa_base.Diag.Fail ({ loc = Bisa_base.Diag.Byte _; _ } as dg)
            when String.starts_with ~prefix:(path ^ ": ") dg.message ->
            ()
          | exception Bisa_base.Diag.Fail dg ->
            Alcotest.failf "byte %d xor 0x%02x: not located at the file: %s" i mask
              (Bisa_base.Diag.render dg))
        [ 0x01; 0x80 ])
    good;
  write good;
  Alcotest.(check string) "the intact manifest reads back"
    (Bisa_timing.Metrics.summary ~name:"x" m)
    (Bisa_timing.Metrics.summary ~name:"x" (run ()))

(* A cell whose manifest write was killed after removing the old copy
   is only [KEY.done.next]; reopening the campaign finds it there and
   reuses it without simulating or writing anything. *)
let test_campaign_next_only_cell () =
  with_fresh_dir @@ fun d ->
  let open_c () = Campaign.open_ ~dir:d ~scale:(Some 1) ~paper_caches:false () in
  let c = Bisa_compiler.Compiler.compile "int main() { print_int(5); return 5; }" in
  let cfg = Bisa_timing.Config.default in
  let art = Bisa_timing.Pipeline.Conv.prepare c.conv in
  let run camp =
    Campaign.run_cell camp (module Bisa_timing.Pipeline.Conv) ~bench:"tiny" cfg art
  in
  let m = run (open_c ()) in
  let path =
    Filename.concat (Filename.concat d "cells")
      (Campaign.key ~bench:"tiny" ~isa:"conv"
         ~cfg_hash:(Bisa_timing.Config.fingerprint cfg)
         ~prog_hash:(Bisa_timing.Pipeline.Conv.prog_hash c.conv)
      ^ ".done")
  in
  Sys.rename path (path ^ ".next");
  Alcotest.(check string) "the .next manifest is the cell's"
    (Bisa_timing.Metrics.summary ~name:"x" m)
    (Bisa_timing.Metrics.summary ~name:"x" (run (open_c ())));
  Alcotest.(check (pair bool bool)) "read, not recomputed" (false, true)
    (Sys.file_exists path, Sys.file_exists (path ^ ".next"))

let suite =
  [
    Alcotest.test_case "table1" `Quick test_table1_is_paper;
    Alcotest.test_case "expected values" `Quick test_expected_values;
    Alcotest.test_case "harness caching" `Slow test_harness_caching;
    Alcotest.test_case "harness memo keys the whole config" `Slow
      test_harness_memo_whole_config;
    Alcotest.test_case "headline direction" `Slow test_headline_direction;
    Alcotest.test_case "sweep shape" `Quick test_sweep_shape;
    Alcotest.test_case "chunks" `Quick test_chunks;
    Alcotest.test_case "compiled default, interp parity" `Slow test_compiled_default_and_parity;
    Alcotest.test_case "campaign resume identical" `Slow test_campaign_resume_identical;
    Alcotest.test_case "campaign meta mismatch" `Quick test_campaign_meta_mismatch;
    Alcotest.test_case "campaign timeout" `Quick test_campaign_timeout;
    Alcotest.test_case "every campaign cell byte is checked" `Quick
      test_campaign_cell_every_byte;
    Alcotest.test_case "a .next-only campaign cell is found" `Quick
      test_campaign_next_only_cell;
  ]
