(* serve: the real `bisad serve`, spawned with only --socket and a fresh
   --spool, driven in a closed loop over two connections whose callers
   each wait for their reply (like CLI clients).  Only this workload
   exercises lib/proto, the lib/serve loop, the engine caches and the
   spool.

   - cold: every distinct request once; this writes the spool.  The keys
     are every fifth of a 100-key set of 64 Cells (8 benchmarks x 2 ISAs
     x icache {0, 16} KB x predictor {real, perfect}) and 36 Simulates of
     seeded generated sources: 13 Cells and 7 Simulates.
   - warm: 500 requests per key (10,000): a sequence of 2,000 drawn
     Zipf(s = 1) over those keys, played five times.  All are cache hits;
     no simulation runs.
   - restart: Shutdown, respawn on the same spool, replay every key; each
     must come back cached, read back from the spool.

   The mix is an assumption, not measured traffic: no trace of real bisad
   clients exists.  Its 1:500 cold:warm ratio is fixed by design, and the
   cold set was made small (not the warm phase) so a pass fits the clock;
   the warm requests, the serve path this workload exists for, are most of
   a pass.

   Every response must equal, field for field, what an in-process
   Engine.handle returns for the same request (computed before the clock
   starts). *)

module Proto = Bisa_proto.Proto
module Engine = Bisa_serve.Engine
module Workloads = Bisa_workloads.Workloads
module Gen = Bisa_check.Gen
module Rng = Bisa_base.Rng
module Pool = Bisa_base.Pool

(* The backend a bisad request names when the user passes no --exec. *)
let default_exec () =
  let open Cmdliner in
  match Cmd.eval_value ~argv:[| "perfbench" |] (Cmd.v (Cmd.info "perfbench") Bisa_cli.Args.exec) with
  | Ok (`Ok exec) -> exec
  | _ -> failwith "cannot evaluate the --exec default"

let requests ~seed (profile : Cli.profile) =
  let exec = default_exec () in
  let benches, scale, sims, keep =
    match profile with
    | Cli.Full -> (Workloads.names, Some 1, 36, fun i -> i mod 5 = 0)
    | Cli.Smoke -> ([ "li"; "compress" ], Some 1, 4, fun _ -> true)
  in
  let cells =
    List.concat_map
      (fun bench ->
        List.concat_map
          (fun isa ->
            List.concat_map
              (fun icache_kb ->
                List.map
                  (fun perfect_pred ->
                    Proto.Cell
                      {
                        bench;
                        scale;
                        isa;
                        exec;
                        cfg = { Proto.default_sim_cfg with icache_kb; perfect_pred };
                      })
                  [ false; true ])
              [ 0; 16 ])
          [ Proto.Conv; Proto.Block ])
      benches
  in
  let simulate i =
    Proto.Simulate
      {
        src = Proto.Source { src = Gen.render (Gen.generate (Rng.derive seed i)); libs = [] };
        isa = (if i mod 2 = 0 then Proto.Block else Proto.Conv);
        mode = Proto.Timing;
        exec;
        cfg = Proto.default_sim_cfg;
        show_output = true;
      }
  in
  Array.of_list (List.filteri (fun i _ -> keep i) (cells @ List.init sims simulate))

(* The smoke profile only checks replies, so it needs no realistic mix. *)
let warm_per_key (profile : Cli.profile) = match profile with Cli.Full -> 500 | Cli.Smoke -> 50

(* The warm phase replays one Zipf sequence this many times, so every
   warm request recurs within a pass and counts at its median. *)
let warm_rounds = 5

let cached = function
  | Proto.Sim { cached; _ } | Proto.Cell_done { cached; _ } -> cached
  | _ -> false

(* --- the daemon ------------------------------------------------------------ *)

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    Unix.mkdir d 0o755
  end

type daemon = { pid : int; sock : string }

(* Daemons not yet reaped, killed if the run ends early. *)
let live = ref []

let kill_live () =
  List.iter
    (fun pid ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
    !live;
  live := []

(* Spawn `bisad serve` and return it with a connection that has had its
   first Pong: the set-up a user pays before the daemon answers. *)
let spawn ~bisad dir =
  let sock = Filename.concat dir "sock" in
  let log =
    Unix.openfile (Filename.concat dir "daemon.log") [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644
  in
  let pid =
    Unix.create_process bisad
      [| bisad; "serve"; "--socket"; sock; "--spool"; Filename.concat dir "spool" |]
      Unix.stdin log log
  in
  live := pid :: !live;
  Unix.close log;
  let give_up = Unix.gettimeofday () +. 60. in
  let rec connect () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX sock) with
    | () -> fd
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _) ->
      Unix.close fd;
      if fst (Unix.waitpid [ Unix.WNOHANG ] pid) <> 0 then
        failwith ("bisad exited before serving; see " ^ Filename.concat dir "daemon.log");
      if Unix.gettimeofday () > give_up then failwith "bisad did not start serving within 60 s";
      Unix.sleepf 0.001;
      connect ()
  in
  let fd = connect () in
  Proto.write_frame fd (Proto.encode_request Proto.Ping);
  match Option.map Proto.decode_response (Proto.read_frame fd) with
  | Some (Proto.Pong _) -> ({ pid; sock }, fd)
  | _ -> failwith "bisad did not answer the first ping with a pong"

(* Bisa_serve.Client.call, with its encode, wait and decode as spans. *)
let call ?tr ?req fd r =
  let payload = Tracer.span tr ~layer:"proto" "encode" (fun () -> Proto.encode_request r) in
  let reply =
    Tracer.span tr ?req ~layer:"wire" "wait" (fun () ->
        Proto.write_frame fd payload;
        Proto.read_frame fd)
  in
  match reply with
  | Some p -> Tracer.span tr ~layer:"proto" "decode" (fun () -> Proto.decode_response p)
  | None -> failwith "bisad closed the connection without replying"

(* Shut the daemon down and reap it: its CPU time joins this process's
   children's. *)
let stop d fd =
  let bye = call fd Proto.Shutdown in
  Unix.close fd;
  let _, status = Unix.waitpid [] d.pid in
  live := List.filter (( <> ) d.pid) !live;
  if bye <> Proto.Bye || status <> Unix.WEXITED 0 then failwith "bisad did not shut down cleanly"

(* --- the closed loop ---------------------------------------------------------- *)

(* Two callers, one per connection: caller c sends the request at every
   position = c (mod 2) of [keys], each after the previous reply.  Caller
   1 runs on the pool's second domain, which stays up for the whole run,
   not on one spawned for each slice.  Returns each position's latency
   (ms) and whether its reply equalled [expect].  On traced passes each
   caller's share is a span, with per-request children when
   [per_request]. *)
let drive pool tr ~phase ~per_request conns keys reqs expect =
  let outer = Tracer.current tr in
  let n = Array.length keys in
  let lat = Array.make n nan and ok = Array.make n true in
  let caller c () =
    Tracer.span tr ~outer ~layer:"wire" phase (fun () ->
        let i = ref c in
        while !i < n do
          let k = keys.(!i) in
          let t0 = Unix.gettimeofday () in
          let r = call ?tr:(if per_request then tr else None) ~req:k conns.(c) reqs.(k) in
          lat.(!i) <- 1000. *. (Unix.gettimeofday () -. t0);
          ok.(!i) <- r = expect.(k);
          i := !i + 2
        done)
  in
  let helper = Pool.submit pool (caller 1) in
  caller 0 ();
  Tracer.span tr ~layer:"wire" "join" (fun () -> Pool.await helper);
  (lat, ok)

let stats fd = match call fd Proto.Stats with Proto.Stats_r s -> s | _ -> failwith "bisad stats failed"

(* [n] positions cut into [k] contiguous slices. *)
let slices n k = List.init k (fun s -> (s * n / k, ((s + 1) * n / k) - (s * n / k)))

(* One pool of the library default size serves the run: the in-process
   engine, the second caller and the yardstick, which runs on both of the
   domains the two callers keep busy. *)
let run m =
  Pool.run @@ fun pool ->
  Measure.yardstick_on m pool;
  let cli = Measure.cli m in
  let reqs = requests ~seed:cli.seed cli.profile in
  let n = Array.length reqs in
  (* Which keys are hot, and which cold requests run side by side on the
     two connections, are fixed permutations: the seed draws the sources
     and the warm sequence, but cannot swing the phases' cost mix. *)
  let permutation salt =
    let a = Array.init n Fun.id in
    Rng.shuffle (Rng.create salt) a;
    a
  in
  let hot = permutation 0 and order = permutation 1 in
  let warm =
    Array.map (fun r -> hot.(r))
      (Stat.zipf_ranks ~seed:cli.seed ~keys:n ~count:(n * warm_per_key cli.profile / warm_rounds))
  in
  (* The expected replies: what the engine answers in-process, cold and
     cached (a Batch shards over the default pool). *)
  let engine, cold_ref, hot_ref =
    let engine = Engine.create ~pool () in
    let batch () =
      match Engine.handle engine (Proto.Batch (Array.to_list reqs)) with
      | Proto.Batch_r rs -> Array.of_list rs
      | _ -> failwith "in-process engine did not answer the batch"
    in
    let cold = batch () in
    (engine, cold, batch ())
  in
  Array.iteri
    (fun k r ->
      Measure.check m (cached r && not (cached cold_ref.(k)))
        (Printf.sprintf "key %d: in-process engine did not cache its first reply" k))
    hot_ref;
  let root = Filename.concat "_perfbench" (Printf.sprintf "serve-%d" (Unix.getpid ())) in
  let dirs = ref 0 in
  let fresh_dir () =
    incr dirs;
    let dir = Filename.concat root (string_of_int !dirs) in
    mkdir_p dir;
    dir
  in
  let spawn_timed dir = Measure.setup m (fun () -> spawn ~bisad:cli.bisad dir) in
  Fun.protect
    ~finally:(fun () ->
      kill_live ();
      rm_rf root)
    (fun () ->
      (* Extra spawns so setup_s is a median of several samples. *)
      for _ = 1 to 8 do
        let d, fd = spawn_timed (fresh_dir ()) in
        stop d fd
      done;
      while Measure.more m do
        let dir = fresh_dir () in
        let d, fd = spawn_timed dir in
        Measure.pass m (fun tr ->
            let seg name f = Tracer.span tr ~layer:"wire" name (fun () -> Measure.segment m name f) in
            (* A phase is a few segments, played [rounds] times; its time
               is theirs. *)
            let phase ?(rounds = 1) name ~per_request ~segments d fd keys expect =
              let conn = Bisa_serve.Client.connect d.sock in
              let t =
                List.fold_left
                  (fun acc (first, len) ->
                    let t0 = Unix.gettimeofday () in
                    let lat, ok =
                      seg (Printf.sprintf "%s/%d" name first) (fun () ->
                          drive pool tr ~phase:name ~per_request [| fd; conn |] (Array.sub keys first len) reqs
                            expect)
                    in
                    Array.iteri
                      (fun i good ->
                        let pos = first + i in
                        Measure.op m (Printf.sprintf "%s/%d" name pos) lat.(i);
                        Measure.check m good
                          (Printf.sprintf "%s request %d (key %d): reply differs from the engine's" name pos
                             keys.(pos)))
                      ok;
                    acc +. (Unix.gettimeofday () -. t0))
                  0.
                  (List.concat (List.init rounds (fun _ -> slices (Array.length keys) segments)))
              in
              Unix.close conn;
              t
            in
            let cold = phase "cold" ~per_request:true ~segments:4 d fd order cold_ref in
            let warm_s = phase "warm" ~rounds:warm_rounds ~per_request:false ~segments:4 d fd warm hot_ref in
            let s = seg "stats" (fun () -> stats fd) in
            Measure.daemon_rss_kb m s.rss_kb;
            let t0 = Unix.gettimeofday () in
            seg "shutdown" (fun () -> stop d fd);
            let d', fd' = seg "respawn" (fun () -> spawn_timed dir) in
            ignore (phase "restart" ~per_request:true ~segments:2 d' fd' order hot_ref);
            let restart = Unix.gettimeofday () -. t0 in
            let s' = seg "stats'" (fun () -> stats fd') in
            Measure.check m (s'.spooled = n && s'.spool_skipped = 0)
              (Printf.sprintf "restart reloaded %d of %d spooled results (%d skipped)" s'.spooled n
                 s'.spool_skipped);
            seg "shutdown'" (fun () -> stop d' fd');
            if tr <> None then begin
              List.iter
                (fun (k, v) -> Measure.set m k v)
                [
                  ("serve.cold_rps", float_of_int n /. cold);
                  ("serve.warm_rps", float_of_int (warm_rounds * Array.length warm) /. warm_s);
                  ("serve.restart_rps", float_of_int n /. restart);
                  ("serve.sim_hits", float_of_int s.sim_hits);
                  ("serve.sim_misses", float_of_int s.sim_misses);
                  ( "serve.hit_pct",
                    100. *. float_of_int s.sim_hits /. float_of_int (s.sim_hits + s.sim_misses) );
                  ("serve.spooled", float_of_int s.spooled);
                  ("serve.spool_skipped", float_of_int s.spool_skipped);
                  ("serve.inflight_peak", float_of_int s.inflight_peak);
                ];
              Printf.printf "serve.hit_pct base: %d hits + %d misses\n" s.sim_hits s.sim_misses
            end)
      done);
  if cli.trace then begin
    (* The codec and an in-process cache hit, timed alone. *)
    let reps = 20 in
    let rate f items =
      let t0 = Unix.gettimeofday () in
      for _ = 1 to reps do
        Array.iter (fun x -> ignore (Sys.opaque_identity (f x))) items
      done;
      float_of_int (reps * Array.length items) /. (Unix.gettimeofday () -. t0)
    in
    let encoded = Array.map Proto.encode_response hot_ref in
    Measure.set m "proto.encode_per_s" (rate Proto.encode_request reqs);
    Measure.set m "proto.decode_per_s" (rate Proto.decode_response encoded);
    Measure.set m "serve.engine_hits_per_s" (rate (Engine.handle engine) reqs)
  end
