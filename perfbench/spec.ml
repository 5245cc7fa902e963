type better = Lower | Higher

type metric = { name : string; unit_ : string; better : better }

let workloads = [ "report"; "sim_long"; "toolchain"; "serve" ]

let m name unit_ better = { name; unit_; better }

let end_to_end =
  [
    m "wall_s" "s" Lower;
    m "setup_s" "s" Lower;
    m "peak_rss_mb" "MB" Lower;
    m "op_p50_ms" "ms" Lower;
    m "op_tail_ms" "ms" Lower;
  ]

let per_layer =
  [
    m "trace.overhead_s" "s" Lower;
    m "trace.spans" "count" Lower;
    m "layer.compiler_pct" "%" Lower;
    m "layer.prepare_pct" "%" Lower;
    m "layer.exec_pct" "%" Lower;
    m "layer.timing_pct" "%" Lower;
    m "layer.experiments_pct" "%" Lower;
    m "layer.extras_pct" "%" Lower;
    m "layer.wire_pct" "%" Lower;
    m "layer.proto_pct" "%" Lower;
    m "layer.check_pct" "%" Lower;
    m "layer.bench_pct" "%" Lower;
    m "compiler.parse_typecheck_pct" "%" Lower;
    m "compiler.lower_pct" "%" Lower;
    m "compiler.opt_isel_pct" "%" Lower;
    m "compiler.link_conv_pct" "%" Lower;
    m "compiler.link_block_pct" "%" Lower;
    m "compiler.kb_per_s" "KB/s" Higher;
    m "prepare.verify_pct" "%" Lower;
    m "prepare.predecode_pct" "%" Lower;
    m "prepare.threaded_pct" "%" Lower;
    m "prepare.hash_pct" "%" Lower;
    m "prepare.progs_per_s" "1/s" Higher;
    m "exec.mops_per_s" "Mops/s" Higher;
    m "timing.conv_mops_per_s" "Mops/s" Higher;
    m "timing.block_mops_per_s" "Mops/s" Higher;
    m "timing.conv_words_per_op" "words/op" Lower;
    m "timing.block_words_per_op" "words/op" Lower;
    m "uarch.cycles" "count" Lower;
    m "uarch.retired_ops" "count" Lower;
    m "uarch.icache_misses" "count" Lower;
    m "uarch.mispredicts" "count" Lower;
    m "uarch.fault_squash_redirects" "count" Lower;
    m "uarch.squashed_ops" "count" Lower;
    m "uarch.dcache_misses" "count" Lower;
    m "uarch.ipc" "ops/cycle" Higher;
    m "sim.paper_gap_pts" "pts" Lower;
    m "harness.compile_cells" "count" Lower;
    m "harness.predecode_cells" "count" Lower;
    m "harness.compile_exec_cells" "count" Lower;
    m "harness.artifact_cells" "count" Lower;
    m "harness.run_cells" "count" Lower;
    m "pool.busy_pct" "%" Higher;
    m "proto.encode_per_s" "1/s" Higher;
    m "proto.decode_per_s" "1/s" Higher;
    m "serve.engine_hits_per_s" "1/s" Higher;
    m "serve.cold_rps" "1/s" Higher;
    m "serve.warm_rps" "1/s" Higher;
    m "serve.restart_rps" "1/s" Higher;
    m "serve.sim_hits" "count" Higher;
    m "serve.sim_misses" "count" Lower;
    m "serve.hit_pct" "%" Higher;
    m "serve.spooled" "count" Higher;
    m "serve.spool_skipped" "count" Lower;
    m "serve.inflight_peak" "count" Lower;
  ]

let find name = List.find (fun x -> x.name = name) (end_to_end @ per_layer)

let line x v = Printf.sprintf "%s %.6g %s" x.name v x.unit_

(* Integral values print as integers; everything else with all 17
   significant digits, so no two distinct measurements print alike. *)
let number v =
  if not (Float.is_finite v) then invalid_arg "Spec.result_json: non-finite value"
  else if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let result_json ~correct ~attempted ~failed values =
  let metrics =
    List.map
      (fun (x, v) -> Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" x.name (number v) x.unit_)
      values
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed (String.concat ", " metrics)
