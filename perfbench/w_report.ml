(* report: the exact stdout of `experiments` with default flags, built
   in-process through the same Figures/Extras calls on one Harness and
   one Pool.  This is what a researcher waits for; the timing cores, the
   harness memo cells and the pool do almost all of the work.

   One pool (the library default size) serves the whole run, and the
   yardstick runs on all of its domains, which a pass keeps busy; set-up
   creates a fresh harness on it and fills the harness's compile and
   artifact cells for the eight benchmarks, so that inside the timed
   pass only run cells fire the compute hook.  A hook interval (from one
   firing to the next on the same domain) then covers exactly one run
   cell, which is what the traced run charges to the timing layer.

   Four Extras studies (future_scientific, trace_cache, inlining,
   predication) compile and simulate on their own, outside the Harness,
   so they never fire the hook.  A traced pass charges each of them whole
   to the "extras" layer, and the hook-based numbers (cell counts,
   pool.busy_pct) cover only the sections that go through the Harness. *)

module Harness = Bisa_experiments.Harness
module Figures = Bisa_experiments.Figures
module Extras = Bisa_experiments.Extras
module Expected = Bisa_experiments.Expected
module Pool = Bisa_base.Pool
module Config = Bisa_timing.Config
module Metrics = Bisa_timing.Metrics

(* The sections and framing of bin/experiments.ml, in its order, each
   with the layer its span is charged to: "experiments" for the sections
   on the Harness (table1 computes nothing), "extras" for the rest. *)
let sections (profile : Cli.profile) ~pool h =
  let all =
    [
      ("table1", "experiments", fun () -> Figures.table1 ());
      ("table2", "experiments", fun () -> Figures.table2 h);
      ("fig3", "experiments", fun () -> Figures.fig3 h);
      ("fig4", "experiments", fun () -> Figures.fig4 h);
      ("fig5", "experiments", fun () -> Figures.fig5 h);
      ("fig6", "experiments", fun () -> Figures.fig6 h);
      ("fig7", "experiments", fun () -> Figures.fig7 h);
      ("prediction_parity", "experiments", fun () -> Extras.prediction_parity h);
      ("future_scientific", "extras", fun () -> Extras.scientific ~pool ());
      ("trace_cache", "extras", fun () -> Extras.trace_cache_rivalry ~pool ());
      ("inlining", "extras", fun () -> Extras.inlining_study ~pool ());
      ("predication", "extras", fun () -> Extras.predication_study ~pool ());
    ]
  in
  match profile with
  | Cli.Full -> all
  | Cli.Smoke -> List.filteri (fun i _ -> i < 4) all

let frame (r : Figures.report) =
  Printf.sprintf "\n===== %s: %s =====\n%s\n%s\n" r.id r.title r.rendered r.summary

let kind label = match String.index_opt label ':' with Some i -> String.sub label 0 i | None -> label

let layer_of_kind = function
  | "compile" -> "compiler"
  | "run" -> "timing"
  | _ -> "prepare"

(* The compute hook: counts every cell by kind and, on traced passes,
   turns firings into per-domain intervals parented to the open
   section. *)
type hooks = {
  lock : Mutex.t;
  counts : (string, int) Hashtbl.t;
  mutable tracer : Tracer.t option;
  mutable section : int;
  open_ : (int, string * float * int) Hashtbl.t;  (* domain -> label, start, parent *)
  mutable busy : float;  (* the traced intervals' total *)
}

let close_interval h t dom t1 =
  match Hashtbl.find_opt h.open_ dom with
  | Some (label, t0, parent) ->
    Hashtbl.remove h.open_ dom;
    h.busy <- h.busy +. (t1 -. t0);
    Tracer.record t ~parent ~dom ~layer:(layer_of_kind (kind label)) ~name:label ~t0 ~t1 ()
  | None -> ()

let on_compute h label =
  let now = Unix.gettimeofday () in
  let dom = (Domain.self () :> int) in
  Mutex.lock h.lock;
  let k = kind label in
  Hashtbl.replace h.counts k (1 + Option.value (Hashtbl.find_opt h.counts k) ~default:0);
  (match h.tracer with
  | Some t ->
    close_interval h t dom now;
    Hashtbl.replace h.open_ dom (label, now, h.section)
  | None -> ());
  Mutex.unlock h.lock

let close_all h =
  let now = Unix.gettimeofday () in
  Mutex.lock h.lock;
  (match h.tracer with
  | Some t -> List.iter (fun d -> close_interval h t d now) (Hashtbl.fold (fun d _ acc -> d :: acc) h.open_ [])
  | None -> ());
  Mutex.unlock h.lock

let setup (profile : Cli.profile) ~pool hooks =
  let scale = match profile with Cli.Full -> None | Cli.Smoke -> Some 1 in
  let h = Harness.create ?scale ~pool () in
  Harness.set_compute_hook h (on_compute hooks);
  ignore
    (Pool.map_list pool
       (fun w -> ignore (Harness.artifact_conv h w, Harness.artifact_block h w))
       (Harness.benchmarks h));
  h

(* Mean of |measured - paper| over the Figure 3 and Figure 4 mean
   improvements: the only two results the model is validated against
   numerically.  Reads memoized cells, so it simulates nothing. *)
let paper_gap m h =
  let cells predictor =
    let cfg = Config.with_predictor predictor (Harness.base_config h) in
    List.map (fun w -> (Harness.run_conv h w cfg, Harness.run_block h w cfg)) (Harness.benchmarks h)
  in
  let mean cells =
    List.fold_left
      (fun acc ((c : Metrics.t), (b : Metrics.t)) ->
        acc +. (100. *. float_of_int (c.cycles - b.cycles) /. float_of_int c.cycles))
      0. cells
    /. float_of_int (List.length cells)
  in
  let real = cells Config.Real in
  Probe.uarch m (List.concat_map (fun (c, b) -> [ c; b ]) real);
  let fig3 = mean real and fig4 = mean (cells Config.Perfect) in
  Printf.printf "paper gap: fig3 mean %.2f%% (paper %.1f%%), fig4 mean %.2f%% (paper %.1f%%)\n" fig3
    Expected.fig3_mean_improvement_pct fig4 Expected.fig4_mean_improvement_pct;
  Measure.set m "sim.paper_gap_pts"
    ((Float.abs (fig3 -. Expected.fig3_mean_improvement_pct)
     +. Float.abs (fig4 -. Expected.fig4_mean_improvement_pct))
    /. 2.)

let run m =
  let cli = Measure.cli m in
  let want = match cli.profile with Cli.Full -> Pins.report_md5 | Cli.Smoke -> Pins.report_smoke_md5 in
  let hooks =
    {
      lock = Mutex.create ();
      counts = Hashtbl.create 8;
      tracer = None;
      section = 0;
      open_ = Hashtbl.create 4;
      busy = 0.;
    }
  in
  (* Set-ups before the first pass and one per pass, so setup_s is a
     median of several samples. *)
  Pool.run @@ fun pool ->
  Measure.yardstick_on m pool;
  for _ = 1 to 3 do
    ignore (Measure.setup m (fun () -> setup cli.profile ~pool hooks))
  done;
  while Measure.more m do
    Hashtbl.reset hooks.counts;
    let h = Measure.setup m (fun () -> setup cli.profile ~pool hooks) in
    let out = ref "" in
    Measure.pass m ~op:true (fun tr ->
        hooks.tracer <- tr;
        hooks.busy <- 0.;
        let on_harness = ref 0. in
        let buf = Buffer.create 65536 in
        List.iter
          (fun (id, layer, thunk) ->
            let s0 = Unix.gettimeofday () in
            let r =
              Measure.segment m id (fun () ->
                  Tracer.span tr ~layer ("figures." ^ id) (fun () ->
                      hooks.section <- Tracer.current tr;
                      let r = thunk () in
                      close_all hooks;
                      r))
            in
            if layer = "experiments" then on_harness := !on_harness +. (Unix.gettimeofday () -. s0);
            Buffer.add_string buf (frame r))
          (sections cli.profile ~pool h);
        out := Buffer.contents buf;
        hooks.tracer <- None;
        if tr <> None then
          (* Cell intervals over the Harness sections' domain-seconds: how
             busy the pool kept its workers there. *)
          Measure.set m "pool.busy_pct"
            (100. *. hooks.busy /. (!on_harness *. float_of_int (Pool.workers pool))));
    let got = Digest.to_hex (Digest.string !out) in
    Measure.check m (got = want)
      (Printf.sprintf "report digest %s, pinned %s" got want);
    paper_gap m h;
    List.iter
      (fun (k, name) ->
        Measure.set m name (float_of_int (Option.value (Hashtbl.find_opt hooks.counts k) ~default:0)))
      [
        ("compile", "harness.compile_cells");
        ("predecode", "harness.predecode_cells");
        ("compile-exec", "harness.compile_exec_cells");
        ("artifact", "harness.artifact_cells");
        ("run", "harness.run_cells");
      ]
  done
