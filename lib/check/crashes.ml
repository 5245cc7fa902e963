(* Crash-injection campaigns for the resumable experiment machinery.

   One golden pass runs a small grid (2 benchmarks x 2 configs x both
   pipelines) straight through the pipelines.  Every trial then runs the
   same grid under a Campaign directory, kills it — either by raising at
   the n-th pass of one step of a write (in-process, [with_crash_at]) or
   by forking and SIGKILLing after a randomized delay — and re-runs with
   the same directory.  The resumed report must be
   byte-identical to the golden one: finished cells must be reused,
   in-flight cells must restart from their newest snapshot, and no torn
   file may ever surface. *)

module Campaign = Bisa_experiments.Campaign
module Codec = Bisa_base.Codec
module Config = Bisa_timing.Config
module Metrics = Bisa_timing.Metrics

type report = {
  cells : int;
  hook_crashes : int;
  kill_trials : int;
  kills_mid_flight : int;
}

(* Small enough to keep the whole campaign sub-second, big enough that a
   cell crosses several checkpoint intervals. *)
let checkpoint_every = 2_000

let src_alpha =
  {|
int acc[8];
int mix(int a, int b) {
  int r = a * 131 + b;
  if (r > 9000) { r = r % 8191; }
  return r ^ (b >> 1);
}
int main() {
  int i;
  int s = 1;
  for (i = 0; i < 900; i = i + 1) {
    acc[i & 7] = mix(i, s);
    s = s + acc[i & 7];
    if (s > 60000) { s = s - 59999; }
  }
  print_int(s);
  return s & 255;
}
|}

let src_beta =
  {|
int tbl[16];
float fsum;
int step(int x) {
  int y = x + (x >> 2);
  if (y & 1) { y = y * 3 + 1; } else { y = y / 2; }
  return y;
}
int main() {
  int i;
  int v = 7;
  for (i = 0; i < 700; i = i + 1) {
    v = step(v) & 4095;
    tbl[v & 15] = tbl[v & 15] + 1;
    fsum = fsum + itof(v & 31) * 0.25;
  }
  print_int(tbl[3]);
  print_float(fsum);
  return v & 255;
}
|}

type cell = { name : string; run : Campaign.t option -> Metrics.t }

let mk_cells () =
  (* Artifacts are prepared once per program; compiler output is
     verifier-clean, so [prepare] both discharges and re-checks that. *)
  let progs =
    List.map
      (fun (name, src) ->
        let c = Bisa_compiler.Compiler.compile src in
        ( name,
          Bisa_timing.Pipeline.Conv.prepare c.conv,
          Bisa_timing.Pipeline.Block.prepare c.block ))
      [ ("alpha", src_alpha); ("beta", src_beta) ]
  in
  let cfgs =
    [
      ("real", Config.default);
      ("perfect", Config.with_predictor Config.Perfect Config.default);
    ]
  in
  List.concat_map
    (fun (bname, conv_art, block_art) ->
      List.concat_map
        (fun (cname, cfg) ->
          let bench = bname ^ "." ^ cname in
          [
            {
              name = bench ^ "/conv";
              run =
                (fun camp ->
                  match camp with
                  | Some t ->
                    Campaign.run_cell t
                      (module Bisa_timing.Pipeline.Conv)
                      ~bench cfg conv_art
                  | None ->
                    fst (Bisa_timing.Pipeline.Conv.run_artifact cfg conv_art));
            };
            {
              name = bench ^ "/block";
              run =
                (fun camp ->
                  match camp with
                  | Some t ->
                    Campaign.run_cell t
                      (module Bisa_timing.Pipeline.Block)
                      ~bench cfg block_art
                  | None ->
                    fst (Bisa_timing.Pipeline.Block.run_artifact cfg block_art));
            };
          ])
        cfgs)
    progs

let render cells camp =
  String.concat ""
    (List.map (fun c -> Metrics.summary ~name:c.name (c.run camp) ^ "\n") cells)

let open_camp d =
  Campaign.open_ ~dir:d ~checkpoint_every ~scale:None ~paper_caches:false ()

(* --- scratch directory management ------------------------------------- *)

let fresh_scratch () =
  let d =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "bisa-crash-%d" (Unix.getpid ()))
  in
  Bisa_base.Fs.rm_rf d;
  Unix.mkdir d 0o755;
  d

(* --- in-process crashes at the n-th pass of a write step --------------- *)

exception Crashed

(* Crash at the [n]-th pass of [point]: after a temp file is complete
   (["written"], every atomic write), or after a sealed write published
   its [.next] copy (["published"]) or removed the old one (["removed"]). *)
let with_crash_at point n f =
  let count = ref 0 in
  let pass p =
    if p = point then begin
      incr count;
      if !count = n then raise Crashed
    end
  in
  Bisa_base.Atomic_file.crash_after_write_hook := Some (fun () -> pass "written");
  Codec.publish_hook :=
    Some (function Codec.Published -> pass "published" | Codec.Removed -> pass "removed");
  Fun.protect
    ~finally:(fun () ->
      Bisa_base.Atomic_file.crash_after_write_hook := None;
      Codec.publish_hook := None)
    f

(* Run one trial that dies at the [n]-th pass of [point], then resumes.
   Returns whether the crash actually fired. *)
let hook_trial ~dir cells golden (point, n) =
  let d = Filename.concat dir (Printf.sprintf "hook-%s-%d" point n) in
  let fired =
    match with_crash_at point n (fun () -> render cells (Some (open_camp d))) with
    | (_ : string) -> false
    | exception Crashed -> true
  in
  let resumed = render cells (Some (open_camp d)) in
  if resumed <> golden then
    Error
      (Printf.sprintf
         "resume after in-process crash at write step %s, pass %d, diverged from \
          the uninterrupted run:\n--- golden ---\n%s--- resumed ---\n%s"
         point n golden resumed)
  else Ok fired

(* --- forked runs SIGKILLed at randomized delays ------------------------ *)

let kill_trial ~dir cells golden i delay =
  let d = Filename.concat dir (Printf.sprintf "kill%d" i) in
  match Unix.fork () with
  | 0 ->
    (* Child: run the whole grid into the campaign directory.  [_exit]
       keeps the parent's buffered output from being flushed twice. *)
    (try
       ignore (render cells (Some (open_camp d)) : string);
       Unix._exit 0
     with _ -> Unix._exit 1)
  | pid -> begin
    Unix.sleepf delay;
    (try Unix.kill pid Sys.sigkill with Unix.Unix_error (Unix.ESRCH, _, _) -> ());
    let _, status = Unix.waitpid [] pid in
    match status with
    | Unix.WEXITED 1 ->
      Error (Printf.sprintf "kill trial %d: forked grid runner itself failed" i)
    | st ->
      let landed = match st with Unix.WSIGNALED s -> s = Sys.sigkill | _ -> false in
      let resumed = render cells (Some (open_camp d)) in
      if resumed <> golden then
        Error
          (Printf.sprintf
             "resume after SIGKILL at %.0fms diverged from the uninterrupted \
              run:\n--- golden ---\n%s--- resumed ---\n%s"
             (delay *. 1000.) golden resumed)
      else Ok landed
  end

(* --- the campaign ------------------------------------------------------ *)

let campaign ?(seed = 42) ?dir ?(kill_trials = 6) () =
  let rng = Bisa_base.Rng.create seed in
  let scratch, cleanup =
    match dir with
    | Some d -> (d, fun () -> ())
    | None ->
      let d = fresh_scratch () in
      (d, fun () -> Bisa_base.Fs.rm_rf d)
  in
  let cells = mk_cells () in
  let golden = render cells None in
  (* Time an uninterrupted campaign run so the SIGKILL delays actually
     land mid-flight rather than all before or all after the work. *)
  let t0 = Unix.gettimeofday () in
  let timed = render cells (Some (open_camp (Filename.concat scratch "timing"))) in
  let span = Unix.gettimeofday () -. t0 in
  if timed <> golden then
    Error "an uninterrupted campaign run already diverges from the direct run"
  else begin
    (* In-process crashes at each step: always the first pass (for a
       temp file, the campaign meta), then a spread of later ones. *)
    let hook_points =
      List.concat_map
        (fun point ->
          List.map
            (fun n -> (point, n))
            (1 :: List.init 5 (fun _ -> 2 + Bisa_base.Rng.int rng 30)))
        [ "written"; "published"; "removed" ]
    in
    let rec hooks points fired =
      match points with
      | [] -> Ok fired
      | n :: rest -> begin
        match hook_trial ~dir:scratch cells golden n with
        | Error e -> Error e
        | Ok f -> hooks rest (fired + if f then 1 else 0)
      end
    in
    let rec kills i mid =
      if i >= kill_trials then Ok mid
      else
        let delay = Bisa_base.Rng.float rng (1.2 *. Float.max span 0.01) in
        match kill_trial ~dir:scratch cells golden i delay with
        | Error e -> Error e
        | Ok landed -> kills (i + 1) (mid + if landed then 1 else 0)
    in
    match hooks hook_points 0 with
    | Error e -> Error e
    | Ok hook_crashes -> begin
      match kills 0 0 with
      | Error e -> Error e
      | Ok kills_mid_flight ->
        cleanup ();
        Ok { cells = List.length cells; hook_crashes; kill_trials; kills_mid_flight }
    end
  end
