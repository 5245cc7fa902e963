(* sim_long: paper-scale bisasim-style runs of gcc (large footprint), go
   (unbiased branches) and m88ksim (a predictable hot loop) at five times
   their default scale, on both ISAs, at the Figure 3 icache point (16 KB)
   and the small point of Figures 6/7 (4 KB, which keeps the icache-miss
   path hot), with the real predictor and 1024 retained output items.
   Compiling and preparing the six programs is set-up, so a pass measures
   the steady-state host speed of lib/timing and lib/uarch alone.  Every
   run's simulated counts are pinned. *)

module Workloads = Bisa_workloads.Workloads
module Compiler = Bisa_compiler.Compiler
module Pipeline = Bisa_timing.Pipeline
module Metrics = Bisa_timing.Metrics
module Output = Bisa_sim.Output
module Proto = Bisa_proto.Proto

let benches = [ "gcc"; "go"; "m88ksim" ]
let icaches_kb = [ 16; 4 ]
let out_cap = 1024

let scale (profile : Cli.profile) (w : Workloads.t) =
  match profile with Cli.Full -> 5 * w.default_scale | Cli.Smoke -> 1

type prog = {
  w : Workloads.t;
  src : string;
  conv : Pipeline.Conv.artifact;
  block : Pipeline.Block.artifact;
}

let setup profile =
  List.map
    (fun name ->
      let w = Workloads.find name in
      let src = Workloads.source ~scale:(scale profile w) w in
      let c = Compiler.compile ~library_funcs:w.library_funcs src in
      { w; src; conv = Pipeline.Conv.prepare c.conv; block = Pipeline.Block.prepare c.block })
    benches

let config kb = Proto.to_config { Proto.default_sim_cfg with icache_kb = kb }

(* The pinned form of one run's simulated counts. *)
let counts (x : Metrics.t) =
  Printf.sprintf "%d %d %d %d %d %d %d" x.cycles x.retired_ops x.icache_misses x.mispredicts
    x.fault_squash_redirects x.squashed_ops x.dcache_misses

type run = {
  key : string;
  bench : string;
  isa : string;
  secs : float;
  words : float;  (* minor-heap words allocated *)
  m : Metrics.t;
}

(* One timed run through the artifact API. *)
let time_run m tr bench kb (type a) (module P : Pipeline.S with type artifact = a) (art : a) =
  let key = Printf.sprintf "%s/%s/%dKB" bench P.isa kb in
  Measure.segment m ~op:true key (fun () ->
      Tracer.span tr ~layer:"timing" ("run_artifact:" ^ key) (fun () ->
          let w0 = Gc.minor_words () and t0 = Unix.gettimeofday () in
          let x, out = P.run_artifact ~out_cap (config kb) art in
          let secs = Unix.gettimeofday () -. t0 in
          ({ key; bench; isa = P.isa; secs; words = Gc.minor_words () -. w0; m = x }, out)))

let pass m tr progs =
  let pins = match (Measure.cli m).profile with Cli.Full -> Pins.sim_long | Cli.Smoke -> Pins.sim_long_smoke in
  List.concat_map
    (fun p ->
      List.concat_map
        (fun kb ->
          let rc, oc = time_run m tr p.w.name kb (module Pipeline.Conv) p.conv in
          let rb, ob = time_run m tr p.w.name kb (module Pipeline.Block) p.block in
          Measure.check m (Output.equal oc ob)
            (Printf.sprintf "%s/%dKB: conv and block outputs differ" p.w.name kb);
          List.iter
            (fun r ->
              let got = counts r.m in
              let want = Option.value (List.assoc_opt r.key pins) ~default:"(none)" in
              Measure.check m (got = want)
                (Printf.sprintf "%s: simulated counts %S, pinned %S" r.key got want))
            [ rc; rb ];
          [ rc; rb ])
        icaches_kb)
    progs

(* Traced runs only: compile phases, the prepare split and the
   functional executor timed alone under the artifact's backend.  The
   timing model's own cost is then each run minus its functional
   execution — an estimate by subtraction. *)
let probe m progs (runs : run list) =
  let phases = Hashtbl.create 8 in
  let compiled =
    List.map (fun p -> Probe.compile ~phases ~library_funcs:p.w.library_funcs p.src) progs
  in
  Probe.compile_shares m phases
    ~src_bytes:(List.fold_left (fun acc p -> acc + String.length p.src) 0 progs);
  Probe.prepare_split m compiled;
  (* One functional run per program and ISA: its cost does not depend on
     the icache. *)
  let exec_ops = ref 0 and exec_secs = ref 0. in
  let exec_time =
    List.concat_map
      (fun p ->
        let timed isa f =
          let t0 = Unix.gettimeofday () in
          let _, n = f () in
          let secs = Unix.gettimeofday () -. t0 in
          exec_ops := !exec_ops + n;
          exec_secs := !exec_secs +. secs;
          ((p.w.name, isa), secs)
        in
        [
          timed "conv" (fun () -> Probe.exec_conv p.conv);
          timed "block" (fun () -> Probe.exec_block p.block);
        ])
      progs
  in
  Measure.set m "exec.mops_per_s" (float_of_int !exec_ops /. !exec_secs /. 1e6);
  List.iter
    (fun isa ->
      let rs = List.filter (fun r -> r.isa = isa) runs in
      let ops = List.fold_left (fun acc r -> acc + r.m.retired_ops) 0 rs in
      let timing =
        List.fold_left (fun acc r -> acc +. r.secs -. List.assoc (r.bench, isa) exec_time) 0. rs
      in
      let words = List.fold_left (fun acc r -> acc +. r.words) 0. rs in
      Measure.set m (Printf.sprintf "timing.%s_mops_per_s" isa) (float_of_int ops /. timing /. 1e6);
      Measure.set m (Printf.sprintf "timing.%s_words_per_op" isa) (words /. float_of_int ops))
    [ "conv"; "block" ]

let run m =
  let cli = Measure.cli m in
  let progs = ref [] in
  for _ = 1 to 5 do
    progs := Measure.setup m (fun () -> setup cli.profile)
  done;
  let traced_runs = ref [] in
  while Measure.more m do
    Measure.pass m (fun tr ->
        let runs = pass m tr !progs in
        if tr <> None then traced_runs := runs)
  done;
  if !traced_runs <> [] then begin
    Probe.uarch m (List.map (fun r -> r.m) !traced_runs);
    probe m !progs !traced_runs
  end
