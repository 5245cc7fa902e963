(* The simulator micro-benchmarks.  The paper's tables and figures, with
   the ablations, are [experiments --ablations]; with no mode flag this
   prints a one-line usage that says so.

   [--bechamel] runs Bechamel micro-benchmarks: one Test.make per
   table/figure, each timing the simulation kernel that regenerates that
   experiment on a reduced workload, so simulator-performance regressions
   are visible.

   [--smoke] is the CI variant of [--bechamel]: four kernels (both
   fig3 pipelines plus the interpreted and threaded-code functional
   executors), a small measurement quota, a few seconds end to end.
   It exits nonzero unless the compiled executor is at least 5x faster
   than the interpreter, so a threaded-code regression fails @runtest.

   [--json FILE] additionally writes the micro-benchmark estimates as
   machine-readable JSON (per-kernel ns/run plus simulated-ops
   throughput); see BENCH_sim.json for a checked-in baseline.  [--stream]
   composes: [--bechamel --stream --json FILE] writes one file holding
   both the kernel estimates and the stream row.

   [--compare BASELINE.json] re-reads a previous [--json] file and prints
   the per-kernel delta against the current run; any kernel more than 15%
   slower than its baseline makes the process exit nonzero.  The
   @bench-compare alias runs the smoke kernels against the checked-in
   BENCH_sim.json this way, on demand only: a wall-clock verdict on a
   shared host is too noisy for @runtest.

   [--stream] runs the suspendable-session path on a paper-scale op
   count with bounded output retention and reports throughput and peak
   RSS; see BENCH_sim.json's "stream" entry for the checked-in baseline. *)

module Pool = Bisa_base.Pool

let micro_source =
  {|
int inputs[2048];
int histogram[64];
int main() {
  int i; int pass; int acc = 0; int seed = 11;
  for (i = 0; i < 2048; i = i + 1) {
    seed = (seed * 1103515245 + 12345) & 1073741823;
    inputs[i] = (seed >> 8) & 63;
  }
  for (pass = 0; pass < 3; pass = pass + 1) {
    for (i = 0; i < 2048; i = i + 1) {
      int v = inputs[i];
      histogram[v] = histogram[v] + 1;
      if (i % 4 == 0) { acc = acc + v * 3 - (v >> 1); }
    }
  }
  print_int(acc);
  return 0;
}
|}

(* A plain [lazy] here is not domain-safe: concurrent forcing raises
   Lazy.Undefined (or races) on OCaml 5.  [Pool.Once] computes once and
   blocks concurrent forcers. *)
let micro = Pool.Once.make (fun () -> Bisa_compiler.Compiler.compile micro_source)
let force_micro () = Pool.Once.force micro

(* Prepared artifacts (tables + code handle + hash) for the micro
   workload, built (through the verifier) once outside any timed region —
   the kernels below measure simulation only (each run still builds the
   closure chains it executes), matching how the experiment harness
   memoizes the same bundle per program. *)
let micro_conv_art =
  Pool.Once.make (fun () ->
      Bisa_timing.Pipeline.Conv.prepare ~exec:Bisa_sim.Compile.Compiled
        (force_micro ()).conv)

let micro_block_art =
  Pool.Once.make (fun () ->
      Bisa_timing.Pipeline.Block.prepare ~exec:Bisa_sim.Compile.Compiled
        (force_micro ()).block)

(* The compiled-exec kernels time [Compile.{Conv,Block}.run] on the
   artifact's code handle, which [prepare] under [Compiled] always
   provides; each timed run builds its own closure chain, so the kernels
   include that build. *)
let micro_conv_code () =
  match Bisa_timing.Pipeline.Conv.Artifact.code (Pool.Once.force micro_conv_art) with
  | Some c -> c
  | None -> assert false

let micro_block_code () =
  match Bisa_timing.Pipeline.Block.Artifact.code (Pool.Once.force micro_block_art) with
  | Some c -> c
  | None -> assert false

(* One micro-benchmark kernel: a name, the closure Bechamel times, and the
   per-run work count (simulated ops for simulation kernels, dynamic
   instructions for the functional executors, static instructions for the
   compile kernel) so the JSON report can state throughput in ops/sec. *)
type kernel = { name : string; fn : unit -> unit; ops : (unit -> int) option }

let kernels ~smoke () =
  let cfg icache predictor = { Bisa_timing.Config.default with icache; predictor } in
  let icache_of_kb kb = Some (Bisa_uarch.Cache.of_kb kb) in
  let conv_m cfg () =
    fst
      (Bisa_timing.Pipeline.Conv.run_artifact cfg (Pool.Once.force micro_conv_art))
  in
  let block_m cfg () =
    fst
      (Bisa_timing.Pipeline.Block.run_artifact cfg (Pool.Once.force micro_block_art))
  in
  let conv cfg =
    let run = conv_m cfg in
    { name = ""; fn = (fun () -> ignore (run ())); ops = Some (fun () -> (run ()).retired_ops) }
  in
  let block cfg =
    let run = block_m cfg in
    { name = ""; fn = (fun () -> ignore (run ())); ops = Some (fun () -> (run ()).retired_ops) }
  in
  let full =
    [
      (* Table 1 is static; its "kernel" is the compilation itself, so its
         work count is the static instruction count it emits. *)
      {
        name = "table1_compile";
        fn = (fun () -> ignore (Bisa_compiler.Compiler.compile micro_source));
        ops = Some (fun () -> Array.length (force_micro ()).conv.insns);
      };
      (* Table 2: functional execution (instruction counting). *)
      {
        name = "table2_functional_exec";
        fn = (fun () -> ignore (Bisa_sim.Conv_exec.run (force_micro ()).conv ()));
        ops = Some (fun () -> snd (Bisa_sim.Conv_exec.run (force_micro ()).conv ()));
      };
      (* The same functional runs under the threaded-code backend; the
         interpreter kernel above stays so the smoke ratio check (and
         anyone reading the JSON) can state the speedup directly. *)
      {
        name = "table2_compiled_exec";
        fn = (fun () -> ignore (Bisa_sim.Compile.Conv.run (micro_conv_code ())));
        ops = Some (fun () -> snd (Bisa_sim.Compile.Conv.run (micro_conv_code ())));
      };
      {
        name = "table2_compiled_exec_block";
        fn = (fun () -> ignore (Bisa_sim.Compile.Block.run (micro_block_code ())));
        ops = Some (fun () -> snd (Bisa_sim.Compile.Block.run (micro_block_code ())));
      };
      (* Figure 3: both timing pipelines, real predictor. *)
      { (conv (cfg (icache_of_kb 16) Bisa_timing.Config.Real)) with name = "fig3_conv_pipeline" };
      { (block (cfg (icache_of_kb 16) Bisa_timing.Config.Real)) with name = "fig3_block_pipeline" };
      (* Figure 4: perfect prediction. *)
      { (block (cfg (icache_of_kb 16) Bisa_timing.Config.Perfect)) with name = "fig4_block_perfect" };
      (* Figure 5 reuses the fig3 kernels plus the histogramming. *)
      {
        name = "fig5_block_sizes";
        fn =
          (fun () ->
            let m = block_m (cfg (icache_of_kb 16) Bisa_timing.Config.Real) () in
            ignore (Bisa_timing.Metrics.mean_block_size m));
        ops =
          Some
            (fun () ->
              (block_m (cfg (icache_of_kb 16) Bisa_timing.Config.Real) ()).retired_ops);
      };
      (* Figures 6/7: the icache-sweep kernels (small and perfect points). *)
      { (conv (cfg (icache_of_kb 2) Bisa_timing.Config.Real)) with name = "fig6_conv_small_icache" };
      { (block (cfg (icache_of_kb 2) Bisa_timing.Config.Real)) with name = "fig7_block_small_icache" };
      { (block (cfg None Bisa_timing.Config.Real)) with name = "fig67_perfect_icache_baseline" };
    ]
  in
  if smoke then
    List.filter
      (fun k ->
        List.mem k.name
          [
            "fig3_conv_pipeline"; "fig3_block_pipeline"; "table2_functional_exec";
            "table2_compiled_exec";
          ])
      full
  else full

(* One JSON result row: kernel name, estimated ns/run, per-run work count,
   and (for the stream mode) the peak resident set. *)
type row = { r_name : string; r_ns : float; r_ops : int option; r_rss_kb : int option }

(* Minimal JSON emission (ints, floats, strings with benchmark-safe
   names) — not worth a dependency. *)
let write_json ~file ~mode rows =
  Bisa_base.Atomic_file.write file @@ fun oc ->
  Printf.fprintf oc "{\n  \"schema\": \"bisa-bench/1\",\n  \"mode\": %S,\n  \"results\": [" mode;
  List.iteri
    (fun i r ->
      Printf.fprintf oc "%s\n    { \"name\": %S, \"ns_per_run\": %.1f"
        (if i = 0 then "" else ",")
        r.r_name r.r_ns;
      (match r.r_ops with
      | Some n when r.r_ns > 0.0 ->
        Printf.fprintf oc ", \"ops_per_run\": %d, \"ops_per_sec\": %.0f" n
          (float_of_int n /. r.r_ns *. 1e9)
      | _ -> ());
      (match r.r_rss_kb with
      | Some kb -> Printf.fprintf oc ", \"peak_rss_kb\": %d" kb
      | None -> ());
      output_string oc " }")
    rows;
  Printf.fprintf oc "\n  ]\n}\n"

(* Tolerant scraper for files produced by [write_json] (including the
   checked-in BENCH_sim.json): pulls (name, ns_per_run) off each result
   object without taking on a JSON dependency. *)
let parse_baseline file =
  let ic = open_in_bin file in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let len = String.length s in
  let find sub from =
    let m = String.length sub in
    let rec go i =
      if i + m > len then None
      else if String.sub s i m = sub then Some (i + m)
      else go (i + 1)
    in
    go from
  in
  let rec collect acc i =
    match find "\"name\":" i with
    | None -> List.rev acc
    | Some j -> (
      match String.index_from_opt s j '"' with
      | None -> List.rev acc
      | Some q1 -> (
        match String.index_from_opt s (q1 + 1) '"' with
        | None -> List.rev acc
        | Some q2 -> (
          let name = String.sub s (q1 + 1) (q2 - q1 - 1) in
          match find "\"ns_per_run\":" q2 with
          | None -> List.rev acc
          | Some k ->
            let e = ref k in
            while
              !e < len
              &&
              match s.[!e] with
              | '0' .. '9' | '.' | ' ' | '-' | '+' | 'e' | 'E' -> true
              | _ -> false
            do
              incr e
            done;
            let ns = float_of_string (String.trim (String.sub s k (!e - k))) in
            collect ((name, ns) :: acc) !e)))
  in
  collect [] 0

(* Per-kernel delta against a previous [--json] file; any kernel more
   than 15% slower *than the run as a whole* is a regression and exits
   nonzero.  "The run as a whole" is the median current/baseline ratio
   across kernels measured in both: shared-machine clock speed swings
   move every kernel by the same factor, and dividing it out leaves
   exactly the differential regressions a code change can cause.  (A
   uniform slowdown of every kernel is indistinguishable from machine
   noise by construction, and a single-kernel baseline degenerates to
   the absolute check.)  Baseline kernels not measured in this run
   (e.g. smoke mode against a full baseline) are listed but never fail
   the check. *)
let regression_threshold_pct = 15.0

let compare_against ~baseline rows =
  let base =
    try parse_baseline baseline
    with Sys_error msg ->
      Printf.eprintf "bench-compare: cannot read %s: %s\n" baseline msg;
      exit 2
  in
  if base = [] then begin
    Printf.eprintf "bench-compare: no result rows found in %s\n" baseline;
    exit 2
  end;
  let ratios =
    List.filter_map
      (fun r ->
        match List.assoc_opt r.r_name base with
        | Some b when b > 0.0 -> Some (r.r_ns /. b)
        | _ -> None)
      rows
    |> List.sort compare
  in
  let machine_factor =
    match ratios with
    | [] -> 1.0
    | l ->
      let n = List.length l in
      let a = Array.of_list l in
      if n land 1 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0
  in
  Printf.printf
    "\nvs %s (threshold +%.0f%% over the run's median ratio %.2fx):\n" baseline
    regression_threshold_pct machine_factor;
  let regressions = ref [] in
  List.iter
    (fun r ->
      match List.assoc_opt r.r_name base with
      | None ->
        Printf.printf "  %-32s %10.3f ms/run   (not in baseline)\n" r.r_name
          (r.r_ns /. 1e6)
      | Some b ->
        let delta = 100.0 *. ((r.r_ns -. b) /. b) in
        let rel = 100.0 *. ((r.r_ns /. (b *. machine_factor)) -. 1.0) in
        let flag = rel > regression_threshold_pct in
        Printf.printf
          "  %-32s %10.3f ms/run   baseline %10.3f ms   %+6.1f%% (%+6.1f%% rel)%s\n"
          r.r_name (r.r_ns /. 1e6) (b /. 1e6) delta rel
          (if flag then "   REGRESSION" else "");
        if flag then regressions := r.r_name :: !regressions)
    rows;
  List.iter
    (fun (name, _) ->
      if not (List.exists (fun r -> r.r_name = name) rows) then
        Printf.printf "  %-32s (baseline only; not measured in this mode)\n" name)
    base;
  match List.rev !regressions with
  | [] -> Printf.printf "bench-compare: no kernel regressed more than %.0f%%\n%!"
            regression_threshold_pct
  | names ->
    Printf.eprintf "bench-compare: %d kernel(s) regressed more than %.0f%%: %s\n%!"
      (List.length names) regression_threshold_pct (String.concat ", " names);
    exit 1

let run_bechamel ~smoke () =
  let open Bechamel in
  let open Toolkit in
  let ks = kernels ~smoke () in
  let instances = Instance.[ monotonic_clock ] in
  let benchmark_cfg =
    if smoke then Benchmark.cfg ~limit:500 ~quota:(Time.second 0.25) ()
    else Benchmark.cfg ~limit:2000 ~quota:(Time.second 1.0) ()
  in
  let suite =
    Test.make_grouped ~name:"paper-experiments" ~fmt:"%s %s"
      (List.map (fun k -> Test.make ~name:k.name (Staged.stage k.fn)) ks)
  in
  let raw = Benchmark.all benchmark_cfg instances suite in
  let ols =
    Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let results =
    List.map (fun i -> Analyze.all ols i raw) instances
    |> Analyze.merge ols instances
  in
  let estimates = ref [] in
  Hashtbl.iter
    (fun name tbl ->
      Hashtbl.iter
        (fun test (result : Analyze.OLS.t) ->
          match Analyze.OLS.estimates result with
          | Some [ est ] ->
            Printf.printf "%-32s %-16s %12.0f ns/run\n" test name est;
            estimates := (test, est) :: !estimates
          | _ -> Printf.printf "%-32s %-16s (no estimate)\n" test name)
        tbl)
    results;
  (* The compiled functional executor's whole point is speed; report the
     ratio whenever both table2 kernels ran, and in smoke mode (wired
     into @runtest) treat a ratio under 5x as a regression. *)
  (match
     ( List.assoc_opt "paper-experiments table2_functional_exec" !estimates,
       List.assoc_opt "paper-experiments table2_compiled_exec" !estimates )
   with
  | Some interp, Some comp when comp > 0.0 ->
    let ratio = interp /. comp in
    Printf.printf "compiled/interp functional-exec speedup: %.1fx\n%!" ratio;
    if smoke && ratio < 5.0 then begin
      Printf.eprintf
        "bench-smoke: compiled executor only %.1fx faster than the interpreter \
         (floor 5.0x)\n"
        ratio;
      exit 1
    end
  | _ -> ());
  (* Estimate keys look like "paper-experiments <kernel>"; report rows in
     kernel declaration order with per-run work counts. *)
  let est_of k = List.assoc_opt ("paper-experiments " ^ k.name) !estimates in
  List.filter_map
    (fun k ->
      Option.map
        (fun est ->
          {
            r_name = k.name;
            r_ns = est;
            r_ops = Option.map (fun f -> f ()) k.ops;
            r_rss_kb = None;
          })
        (est_of k))
    ks

(* --- streamed paper-scale measurement ---------------------------------

   [--stream] runs one synthetic workload through the suspendable
   session path at two op counts (~5M and ~80M+, the paper's smallest
   campaign size) with bounded output retention, and reports throughput
   plus the process peak RSS (VmHWM) after each.  Because VmHWM is a
   monotone high-water mark, the big run barely moving it is direct
   evidence that resident memory is independent of op count. *)

let stream_source iters =
  Printf.sprintf
    {|
int lanes[64];
int main() {
  int i; int s = 7;
  for (i = 0; i < %d; i = i + 1) {
    int v = (s ^ i) & 63;
    lanes[v] = lanes[v] + 1;
    s = s + lanes[v] + (v >> 1);
    if (s > 1000000) { s = s - 999999; }
    if ((i & 4095) == 0) { print_int(s); }
  }
  print_int(s);
  return s & 255;
}
|}
    iters

let run_stream () =
  let measure name iters =
    let c = Bisa_compiler.Compiler.compile (stream_source iters) in
    let cfg = Bisa_timing.Config.default in
    let module P = Bisa_timing.Pipeline.Conv in
    (* The artifact is prepared (verified, predecoded, compiled) outside
       the timed region; the timed region is steady-state simulation
       only. *)
    let art = P.prepare ~exec:Bisa_sim.Compile.Compiled c.conv in
    let s = P.session_artifact cfg art in
    P.set_out_cap s 1024;
    let t0 = Unix.gettimeofday () in
    let m, out = P.finish s in
    let dt = Unix.gettimeofday () -. t0 in
    let hwm = Bisa_base.Fs.vm_hwm_kb () in
    Printf.printf
      "%-24s %10d ops  %6.2f s  %9.0f ops/sec  peak RSS %d KB  (%d output \
       items retained)\n%!"
      name m.retired_ops dt
      (float_of_int m.retired_ops /. dt)
      hwm
      (List.length out.Bisa_sim.Output.items);
    (m.retired_ops, dt, hwm)
  in
  let ops_small, _, hwm_small = measure "stream_conv_5M" 330_000 in
  let ops_big, dt_big, hwm_big = measure "stream_conv_80M" 5_300_000 in
  Printf.printf
    "peak RSS grew %.1f%% for a %.1fx op-count increase%s\n%!"
    (100.0 *. (float_of_int hwm_big /. float_of_int hwm_small -. 1.0))
    (float_of_int ops_big /. float_of_int ops_small)
    (if hwm_big < hwm_small * 3 / 2 then " — resident memory is independent of run length"
     else " — WARNING: resident memory scaled with run length");
  [
    {
      r_name = "stream_conv_80M";
      r_ns = dt_big *. 1e9;
      r_ops = Some ops_big;
      r_rss_kb = Some hwm_big;
    };
  ]

let rec json_of = function
  | [] -> None
  | "--json" :: file :: _ -> Some file
  | _ :: rest -> json_of rest

let rec compare_of = function
  | [] -> None
  | "--compare" :: file :: _ -> Some file
  | _ :: rest -> compare_of rest

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let smoke = List.mem "--smoke" args in
  let bechamel = smoke || List.mem "--bechamel" args in
  let stream = List.mem "--stream" args in
  if bechamel || stream then begin
    let comparing = compare_of args <> None in
    let rows =
      (if bechamel then
         if comparing && smoke then begin
           (* Gate mode: the shared machine's clock swings make one short
              sample per kernel too noisy to hold a 15% threshold, so
              take each kernel's best of three suite passes — spikes are
              one-sided, so the min tracks the code, not the load. *)
           let reps =
             List.init 3 (fun i ->
                 Printf.printf "[bench-compare pass %d/3]\n%!" (i + 1);
                 run_bechamel ~smoke ())
           in
           List.map
             (fun (r : row) ->
               let best =
                 List.fold_left
                   (fun acc pass ->
                     match
                       List.find_opt (fun p -> p.r_name = r.r_name) pass
                     with
                     | Some p when p.r_ns < acc -> p.r_ns
                     | _ -> acc)
                   r.r_ns (List.tl reps)
               in
               { r with r_ns = best })
             (List.hd reps)
         end
         else run_bechamel ~smoke ()
       else [])
      @ (if stream then run_stream () else [])
    in
    (match json_of args with
    | None -> ()
    | Some file ->
      let mode =
        if smoke then "smoke" else if bechamel then "bechamel" else "stream"
      in
      write_json ~file ~mode rows;
      Printf.printf "wrote %s (%d rows)\n%!" file (List.length rows));
    match compare_of args with
    | None -> ()
    | Some baseline -> compare_against ~baseline rows
  end
  else begin
    prerr_endline
      "usage: main.exe --bechamel|--smoke|--stream [--json FILE] [--compare FILE]; the \
       paper's tables and figures are `experiments --ablations`";
    exit 2
  end
