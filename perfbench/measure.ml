type pass = { wall : float; traced : bool }

type t = {
  cli : Cli.t;
  tracer : Tracer.t option;
  main_dom : int;
  calibrating : bool;  (* untraced full-profile runs: the ones that print time metrics *)
  began : float;  (* the run's start: --seconds bounds everything after it *)
  mutable last_end : float option;  (* end of the last pass, or of the pre-pass work *)
  mutable cycles : float list;  (* pass-end to pass-end, set-ups included *)
  mutable setups : float list;  (* scaled, like every sample below *)
  mutable passes : pass list;
  mutable in_traced : bool;
  segments : (string, float list) Hashtbl.t;  (* untraced passes only, like ops *)
  raw_segments : (string, float list) Hashtbl.t;  (* the same, unscaled *)
  mutable pass_segments : float;  (* the current pass's segment total *)
  ops : (string, float list) Hashtbl.t;  (* operation latencies, ms *)
  mutable pass_ops : int;  (* how many the current pass has had *)
  mutable ops_per_pass : int;  (* and the last untraced pass had *)
  mutable yardstick : unit -> float;  (* Calib.sample, or Calib.sample_on a pool *)
  mutable calib : float list;  (* its times *)
  mutable calib_at : float;  (* end of the last one *)
  mutable calib_in_pass : float;  (* time the current pass spent on them *)
  mutable attempted : int;
  mutable failed : int;
  mutable daemon_rss : int list;
  layer : (string, float) Hashtbl.t;
}

let now = Unix.gettimeofday

(* A host-speed sample at most every half second, between timed work. *)
let calibrate m =
  if m.calibrating && now () -. m.calib_at >= 0.5 then begin
    let t0 = now () in
    m.calib <- m.yardstick () :: m.calib;
    m.calib_at <- now ();
    m.calib_in_pass <- m.calib_in_pass +. (m.calib_at -. t0)
  end

(* A host time taken since the last sample, at the reference host speed. *)
let scale m secs = match m.calib with [] -> secs | s :: _ -> secs *. Calib.reference /. s

let create (cli : Cli.t) =
  let m =
    {
      cli;
      tracer = (if cli.trace then Some (Tracer.create ()) else None);
      main_dom = (Domain.self () :> int);
      calibrating = cli.profile = Cli.Full && not cli.trace;
      began = now ();
      last_end = None;
      cycles = [];
      setups = [];
      passes = [];
      in_traced = false;
      segments = Hashtbl.create 64;
      raw_segments = Hashtbl.create 64;
      pass_segments = 0.;
      ops = Hashtbl.create 1024;
      pass_ops = 0;
      ops_per_pass = 0;
      yardstick = Calib.sample;
      calib = [];
      calib_at = neg_infinity;
      calib_in_pass = 0.;
      attempted = 0;
      failed = 0;
      daemon_rss = [];
      layer = Hashtbl.create 64;
    }
  in
  (* The first sample only warms the yardstick up. *)
  if m.calibrating then ignore (Calib.sample ());
  calibrate m;
  m

let cli m = m.cli

let yardstick_on m pool =
  if m.calibrating then begin
    m.yardstick <- (fun () -> Calib.sample_on pool);
    (* The first sample only warms the other domains' yardsticks up. *)
    ignore (Calib.sample_on pool);
    m.calib <- [];
    m.calib_at <- neg_infinity;
    calibrate m
  end

let setup m f =
  calibrate m;
  let t0 = now () in
  let v = f () in
  m.setups <- scale m (now () -. t0) :: m.setups;
  v

(* The first pass always runs (a traced run's first two).  Another runs
   only while the slowest cycle so far would still end within --seconds
   of the run's start, set-ups and reference outputs included. *)
let more m =
  let t = now () in
  if m.last_end = None then m.last_end <- Some t;
  let n = List.length m.passes in
  let floor = if m.cli.trace then 2 else 1 in
  match m.cli.profile with
  | Cli.Smoke -> n < floor
  | Cli.Full -> n < floor || t -. m.began +. List.fold_left Float.max 0. m.cycles <= m.cli.seconds

let push tbl k v = Hashtbl.replace tbl k (v :: Option.value (Hashtbl.find_opt tbl k) ~default:[])

let add_op m key ms =
  push m.ops key ms;
  m.pass_ops <- m.pass_ops + 1

let pass m ?(op = false) f =
  (* Traced runs alternate: untraced, traced, untraced, ... *)
  let traced = m.cli.trace && List.length m.passes mod 2 = 1 in
  m.in_traced <- traced;
  m.pass_segments <- 0.;
  m.pass_ops <- 0;
  calibrate m;
  m.calib_in_pass <- 0.;
  let t0 = now () in
  f (if traced then m.tracer else None);
  let t1 = now () in
  m.passes <- { wall = t1 -. t0 -. m.calib_in_pass; traced } :: m.passes;
  m.cycles <- (t1 -. Option.value m.last_end ~default:t0) :: m.cycles;
  m.last_end <- Some t1;
  if not traced then begin
    if op then add_op m "pass" (1000. *. m.pass_segments);
    m.ops_per_pass <- m.pass_ops
  end

let op m key ms = if not m.in_traced then add_op m key (scale m ms)

let segment m ?(op = false) key f =
  calibrate m;
  let t0 = now () in
  let v = f () in
  let secs = now () -. t0 in
  if not m.in_traced then begin
    let scaled = scale m secs in
    push m.segments key scaled;
    push m.raw_segments key secs;
    m.pass_segments <- m.pass_segments +. scaled;
    if op then add_op m key (1000. *. scaled)
  end;
  v

let check m ok what =
  m.attempted <- m.attempted + 1;
  if not ok then begin
    m.failed <- m.failed + 1;
    if m.failed <= 10 then Printf.eprintf "perfbench: FAILED: %s\n%!" what
  end

let set m name v =
  ignore (Spec.find name);
  Hashtbl.replace m.layer name v

let daemon_rss_kb m kb = if not m.in_traced then m.daemon_rss <- kb :: m.daemon_rss

(* --- the traced run's layer accounting --------------------------------- *)

let layers =
  [ "compiler"; "prepare"; "exec"; "timing"; "experiments"; "extras"; "wire"; "proto"; "check"; "bench" ]

let trace_file (cli : Cli.t) = Filename.concat "_perfbench" ("trace-" ^ cli.workload ^ ".json")

(* Self time per layer over the traced passes.  Time on the main domain
   outside every span is the benchmark's own and is charged to "bench";
   the spans must cover at least 90% of the traced passes, or the layer
   numbers would not add up to the end-to-end time they explain. *)
let account m tracer traced_walls =
  let spans = Tracer.spans tracer in
  let selfs = Tracer.self_times spans in
  let by_id = Hashtbl.create 1024 in
  List.iter (fun (s : Tracer.span) -> Hashtbl.replace by_id s.id s) spans;
  let is_main_root (s : Tracer.span) =
    s.dom = m.main_dom
    && match Hashtbl.find_opt by_id s.parent with Some p -> p.dom <> s.dom | None -> true
  in
  let covered =
    List.fold_left
      (fun acc (s : Tracer.span) -> if is_main_root s then acc +. (s.t1 -. s.t0) else acc)
      0. spans
  in
  let wall = List.fold_left ( +. ) 0. traced_walls in
  let self = Hashtbl.create 16 in
  let charge layer v =
    let layer = if List.mem layer layers then layer else "bench" in
    Hashtbl.replace self layer (v +. Option.value (Hashtbl.find_opt self layer) ~default:0.)
  in
  List.iter (fun ((s : Tracer.span), v) -> charge s.layer v) selfs;
  charge "bench" (Float.max 0. (wall -. covered));
  let total = Hashtbl.fold (fun _ v acc -> acc +. v) self 0. in
  List.iter
    (fun l ->
      let v = Option.value (Hashtbl.find_opt self l) ~default:0. in
      Printf.printf "self %s %.6g s\n" l v;
      set m ("layer." ^ l ^ "_pct") (if total > 0. then 100. *. v /. total else 0.))
    layers;
  set m "trace.spans" (float_of_int (List.length spans) /. float_of_int (List.length traced_walls));
  let cover = if wall > 0. then covered /. wall else 0. in
  Printf.printf "trace coverage %.1f%% of %.3f s traced\n" (100. *. cover) wall;
  check m (cover >= 0.9)
    (Printf.sprintf "spans cover %.1f%% of the traced passes (need 90%%)" (100. *. cover));
  let nesting = Tracer.check_nesting spans in
  check m (Result.is_ok nesting) (match nesting with Ok () -> "" | Error e -> e);
  let json = Tracer.to_chrome_json tracer in
  let path = trace_file m.cli in
  (try Unix.mkdir (Filename.dirname path) 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  Bisa_base.Atomic_file.write_string path json;
  Printf.printf "trace written to %s\n" path;
  let v = Bisa_obs.Trace.validate json in
  check m (Result.is_ok v)
    (match v with Ok _ -> "" | Error e -> "trace fails Trace.validate: " ^ e)

(* Segments and operations recur, within a pass or from pass to pass,
   and each sample counts at the median of its recurrences.  A sample is
   scaled by the yardstick sample just before it, so it is compared with
   the host as it was then; the median keeps a burst that slowed one
   recurrence, but not the yardstick before it, from counting. *)
let at_medians tbl =
  Hashtbl.fold
    (fun _ xs acc ->
      let md = Stat.median xs in
      List.rev_append (List.map (fun _ -> md) xs) acc)
    tbl []

(* A pass's segments at their medians. *)
let total tbl ~passes = List.fold_left ( +. ) 0. (at_medians tbl) /. float_of_int (max 1 passes)

(* The tail level follows the operations in one pass, the workload's
   fixed work, so it does not change with how many passes fit in the
   run. *)
let operations m =
  let level = Stat.tail_level m.ops_per_pass in
  let ops = at_medians m.ops in
  let q p = if ops = [] then 0. else Stat.quantile ops p in
  (q 0.5, q (float_of_int level /. 1000.), level)

let finish m =
  let passes = List.rev m.passes in
  let traced = List.filter (fun p -> p.traced) passes in
  let untraced = List.filter (fun p -> not p.traced) passes in
  let med f ps = Stat.median (List.map f ps) in
  let peak_kb =
    match m.daemon_rss with
    | [] -> float_of_int (Bisa_serve.Engine.vm_hwm_kb ())
    | l -> Stat.median (List.map float_of_int l)
  in
  let p50, tail, level = operations m in
  let e2e =
    [
      ("wall_s", total m.segments ~passes:(List.length untraced));
      ("setup_s", Stat.median m.setups);
      ("peak_rss_mb", peak_kb /. 1024.);
      ("op_p50_ms", p50);
      ("op_tail_ms", tail);
    ]
  in
  Printf.printf
    "passes %d (%d traced) in %.2f s of %g, set-ups %d, segments %d, operations %d a pass (tail = %s)\n"
    (List.length passes) (List.length traced) (now () -. m.began) m.cli.seconds (List.length m.setups)
    (Hashtbl.length m.segments) m.ops_per_pass (Stat.level_name level);
  if m.calib <> [] then
    Printf.printf "yardstick: %d samples, median %.5f s (reference %g s); unscaled wall_s %.5f s\n"
      (List.length m.calib) (Stat.median m.calib) Calib.reference
      (total m.raw_segments ~passes:(List.length untraced));
  Printf.printf "pass walls (s):%s\n"
    (String.concat "" (List.map (fun p -> Printf.sprintf " %.3f%s" p.wall (if p.traced then "t" else "")) passes));
  (match m.tracer with
  | Some tr when traced <> [] ->
    set m "trace.overhead_s" (med (fun p -> p.wall) traced -. med (fun p -> p.wall) untraced);
    account m tr (List.map (fun p -> p.wall) traced)
  | _ -> ());
  let values names = List.map (fun (x : Spec.metric) -> (x, names x.name)) in
  let e2e = values (fun n -> List.assoc n e2e) Spec.end_to_end in
  let layer =
    values (fun n -> Option.value (Hashtbl.find_opt m.layer n) ~default:0.) Spec.per_layer
  in
  List.iter (fun (x, v) -> print_endline (Spec.line x v)) (e2e @ if m.cli.trace then layer else []);
  let correct = m.failed = 0 && m.attempted > 0 in
  print_endline
    (Spec.result_json ~correct ~attempted:(max 1 m.attempted) ~failed:m.failed
       (if m.cli.trace then layer else e2e));
  if correct then 0 else 1
