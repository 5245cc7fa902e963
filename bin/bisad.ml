(* bisad: the persistent simulation service.

   `bisad serve` runs the daemon: a select-loop server over a Unix
   socket, all requests landing in a content-addressed artifact cache
   (compiled programs, prepared pipeline artifacts, finished results),
   with finished results spooled crash-safely to disk.  `bisad supervise`
   runs it under a self-healing monitor.  The other subcommands are thin
   clients that build exactly the same typed request values the one-shot
   CLIs build, so `bisad sim foo.c` prints byte-for-byte what
   `bisasim foo.c` prints — cold, cached, or after a kill -9 and restart.

   The daemon's checks live outside this binary: test/serve_live.ml
   drives these client subcommands against a forked server, and the
   chaos campaign (bisafuzz --mode chaos) kills, corrupts and restarts a
   supervised one under load. *)

module Driver = Bisa_cli.Driver
module Args = Bisa_cli.Args
module Proto = Bisa_proto.Proto
module Engine = Bisa_serve.Engine
module Server = Bisa_serve.Server
module Client = Bisa_serve.Client
module Diag = Bisa_base.Diag

let component = "bisad"

let default_socket = Filename.concat (Filename.get_temp_dir_name ()) "bisad.sock"

(* --- building requests from CLI inputs ---------------------------------- *)

let load_src ?scale input : Proto.prog_src =
  if Filename.check_suffix input ".cbin" then
    Proto.Conv_bin (Bisa_base.Fs.read_file input)
  else if Filename.check_suffix input ".bbin" then
    Proto.Block_bin (Bisa_base.Fs.read_file input)
  else begin
    let src, libs = Driver.read_source ?scale ~component input in
    Proto.Source { src; libs }
  end

(* Every diagnostic the server sent, then a nonzero exit through the
   guard — the same shape bisasim's verifier rejection takes. *)
let fail_diags = function
  | [] -> Diag.fail ~component "server reported failure with no diagnostics"
  | diags ->
    List.iter (fun d -> prerr_endline (Diag.render d)) diags;
    Diag.fail ~component "request failed (%d diagnostic%s)" (List.length diags)
      (if List.length diags = 1 then "" else "s")

let expect_ok = function Proto.Err diags -> fail_diags diags | resp -> resp

(* --- client subcommands -------------------------------------------------- *)

let ping socket =
  Driver.guard ~component @@ fun () ->
  match expect_ok (Client.one_shot socket Proto.Ping) with
  | Proto.Pong { server } ->
    Printf.printf "%s: %s\n" socket server;
    `Ok ()
  | _ -> Diag.fail ~component "unexpected response to ping"

let print_stats (s : Proto.stats) =
  Printf.printf
    "served %d requests; sim cache %d hits / %d misses; %d artifacts, %d \
     results in memory, %d spooled (%d unreadable entries skipped); peak \
     in-flight %d; peak RSS %d KB\n"
    s.served s.sim_hits s.sim_misses s.artifacts s.results s.spooled
    s.spool_skipped s.inflight_peak s.rss_kb

let stats socket =
  Driver.guard ~component @@ fun () ->
  match expect_ok (Client.one_shot socket Proto.Stats) with
  | Proto.Stats_r s ->
    print_stats s;
    `Ok ()
  | _ -> Diag.fail ~component "unexpected response to stats"

let shutdown socket =
  Driver.guard ~component @@ fun () ->
  match expect_ok (Client.one_shot socket Proto.Shutdown) with
  | Proto.Bye ->
    print_endline "server shut down";
    `Ok ()
  | _ -> Diag.fail ~component "unexpected response to shutdown"

let compile socket input isa scale out =
  Driver.guard ~component @@ fun () ->
  let req = Proto.Compile { src = load_src ?scale input; isa } in
  match expect_ok (Client.one_shot socket req) with
  | Proto.Binary { isa; bytes; prog_hash } ->
    (match out with
    | Some path ->
      Bisa_base.Atomic_file.write_string path bytes;
      Printf.printf "wrote %s (%s, %d bytes, hash %016Lx)\n" path
        (Proto.isa_name isa) (String.length bytes) prog_hash
    | None ->
      Printf.printf "%s: %s executable, %d bytes, hash %016Lx\n" input
        (Proto.isa_name isa) (String.length bytes) prog_hash);
    `Ok ()
  | _ -> Diag.fail ~component "unexpected response to compile"

let verify socket input scale =
  Driver.guard ~component @@ fun () ->
  let req = Proto.Verify { src = load_src ?scale input } in
  match expect_ok (Client.one_shot socket req) with
  | Proto.Verdict { diags = [] } ->
    Printf.printf "%s: verify OK\n" input;
    `Ok ()
  | Proto.Verdict { diags } ->
    List.iter (fun d -> prerr_endline (Diag.render d)) diags;
    Diag.fail ~component "verification rejected %s (%d diagnostic%s)" input
      (List.length diags)
      (if List.length diags = 1 then "" else "s")
  | _ -> Diag.fail ~component "unexpected response to verify"

let sim_request ?scale input isa functional exec cfg show_output =
  Proto.Simulate
    {
      src = load_src ?scale input;
      isa;
      mode = (if functional then Proto.Functional else Proto.Timing);
      exec;
      cfg;
      show_output;
    }

(* Print exactly what the one-shot CLI prints; daemon-side notes (machine
   traps) go to stderr like bisasim's. *)
let print_sim = function
  | Proto.Sim { stdout; notes; prog_hash = _; cached = _ } ->
    if notes <> "" then prerr_string notes;
    print_string stdout
  | _ -> Diag.fail ~component "unexpected response to simulate"

let sim socket input isa functional exec cfg show_output scale =
  Driver.guard ~component @@ fun () ->
  let req = sim_request ?scale input isa functional exec cfg show_output in
  print_sim (expect_ok (Client.one_shot socket req));
  `Ok ()

let cell socket bench isa exec cfg scale =
  Driver.guard ~component @@ fun () ->
  let req = Proto.Cell { bench; scale; isa; exec; cfg } in
  match expect_ok (Client.one_shot socket req) with
  | Proto.Cell_done { summary; prog_hash = _; cached = _ } ->
    print_endline summary;
    `Ok ()
  | _ -> Diag.fail ~component "unexpected response to cell"

(* --- the server ----------------------------------------------------------- *)

let serve socket jobs spool result_cap max_inflight deadline idle_timeout
    slice_ops =
  Driver.guard ~component @@ fun () ->
  Bisa_base.Pool.run ~workers:jobs (fun pool ->
      let engine =
        Engine.create ~pool ?spool_dir:spool ~result_cap
          ~log:(fun d -> prerr_endline (Diag.render d))
          ()
      in
      Printf.eprintf "bisad: serving on %s (%d workers%s)\n%!" socket jobs
        (match spool with None -> "" | Some d -> ", spool " ^ d);
      Server.serve ~max_inflight ?deadline ?idle_timeout ~slice_ops ~engine
        ~path:socket ());
  `Ok ()

(* --- supervise ------------------------------------------------------------ *)

(* The self-healing wrapper: fork/exec `bisad serve` as a child of a
   monitor that restarts it (with backoff) when it dies or stops
   answering health pings.  Spool and socket carry across restarts, so
   every restart warm-starts from the crash-safe result spool. *)
let supervise socket jobs spool result_cap max_inflight deadline idle_timeout
    slice_ops health_interval health_timeout health_strikes grace backoff_base
    backoff_cap stable_secs max_restarts pid_file =
  Driver.guard ~component @@ fun () ->
  let opt_f flag = function
    | None -> []
    | Some v -> [ flag; Printf.sprintf "%g" v ]
  in
  let child_args =
    [ "bisad"; "serve"; "--socket"; socket; "-j"; string_of_int jobs ]
    @ (match spool with None -> [] | Some d -> [ "--spool"; d ])
    @ [
        "--result-cap";
        string_of_int result_cap;
        "--max-inflight";
        string_of_int max_inflight;
        "--slice-ops";
        string_of_int slice_ops;
      ]
    @ opt_f "--deadline" deadline
    @ opt_f "--idle-timeout" idle_timeout
  in
  let spawn () =
    Unix.create_process Sys.executable_name (Array.of_list child_args) Unix.stdin
      Unix.stdout Unix.stderr
  in
  let cfg =
    {
      (Bisa_serve.Supervise.default ~socket) with
      health_interval;
      health_timeout;
      health_strikes;
      grace;
      backoff_base;
      backoff_cap;
      stable_secs;
      max_restarts;
      pid_file;
      log = (fun d -> prerr_endline (Diag.render d));
    }
  in
  let r = Bisa_serve.Supervise.run cfg ~spawn in
  Printf.printf "bisad supervise: %d restart%s, %d crash%s, %d health kill%s\n"
    r.restarts
    (if r.restarts = 1 then "" else "s")
    r.crashes
    (if r.crashes = 1 then "" else "es")
    r.health_kills
    (if r.health_kills = 1 then "" else "s");
  if r.graceful then `Ok ()
  else Diag.fail ~component "supervision gave up after %d restarts" r.restarts

(* --- command line --------------------------------------------------------- *)

let () =
  let open Cmdliner in
  let socket =
    Arg.(
      value
      & opt string default_socket
      & info [ "socket" ]
          ~env:(Cmd.Env.info "BISA_SOCKET" ~doc:"Default for $(b,--socket).")
          ~doc:"Unix domain socket the daemon listens on.")
  in
  let input =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"INPUT"
          ~doc:"MiniC source file, built-in workload name, or .cbin/.bbin binary.")
  in
  let functional =
    Arg.(value & flag & info [ "functional" ] ~doc:"Functional execution only (no timing).")
  in
  let show_output =
    Arg.(value & flag & info [ "show-output" ] ~doc:"Print the program's output stream.")
  in
  let doc_cmd name doc term = Cmd.v (Cmd.info name ~doc) term in
  let spool =
    Arg.(
      value
      & opt (some string) None
      & info [ "spool" ]
          ~env:(Cmd.Env.info "BISA_SPOOL" ~doc:"Default for $(b,--spool).")
          ~doc:
            "Directory for crash-safe result spooling: every finished result \
             is written atomically and reloaded on restart, so a kill -9 \
             loses only in-flight requests.")
  in
  let result_cap =
    Arg.(
      value & opt int 4096
      & info [ "result-cap" ]
          ~doc:"In-memory result cache bound (FIFO eviction; spool keeps all).")
  in
  let max_inflight =
    Arg.(
      value & opt int 64
      & info [ "max-inflight" ]
          ~doc:
            "Simulations allowed in flight at once; further work-shaped \
             requests get an immediate structured busy error (backpressure).  \
             Ping, stats and shutdown are always admitted.")
  in
  let idle_timeout =
    Arg.(
      value
      & opt (some float) None
      & info [ "idle-timeout" ]
          ~env:(Cmd.Env.info "BISA_IDLE_TIMEOUT" ~doc:"Default for $(b,--idle-timeout).")
          ~doc:
            "Evict connections with no read/write progress for this many \
             seconds (slow-loris partial frames included) unless they are \
             waiting on their own in-flight request.  Default: never.")
  in
  let slice_ops =
    Arg.(
      value & opt int 32_768
      & info [ "slice-ops" ]
          ~doc:
            "Cooperative quantum in dynamic operations: how much of one \
             simulation runs between select rounds, bounding ping latency \
             under load.")
  in
  let serve_cmd =
    doc_cmd "serve" "Run the daemon."
      Term.(
        ret
          (const serve $ socket $ Args.jobs $ spool $ result_cap $ max_inflight
         $ Args.deadline $ idle_timeout $ slice_ops))
  in
  let supervise_cmd =
    let health_interval =
      Arg.(
        value & opt float 2.0
        & info [ "health-interval" ] ~doc:"Seconds between liveness pings.")
    in
    let health_timeout =
      Arg.(
        value & opt float 1.0
        & info [ "health-timeout" ]
            ~doc:"Kernel socket timeout per ping; a wedged server reads as dead.")
    in
    let health_strikes =
      Arg.(
        value & opt int 3
        & info [ "health-strikes" ]
            ~doc:
              "Consecutive failed pings before the child is killed and \
               restarted — one slow round is never fatal.")
    in
    let grace =
      Arg.(
        value & opt float 5.0
        & info [ "grace" ] ~doc:"SIGTERM-to-SIGKILL escalation window in seconds.")
    in
    let backoff_base =
      Arg.(
        value & opt float 0.5
        & info [ "backoff-base" ] ~doc:"First restart delay in seconds.")
    in
    let backoff_cap =
      Arg.(
        value & opt float 10.0
        & info [ "backoff-cap" ] ~doc:"Restart delay ceiling in seconds.")
    in
    let stable_secs =
      Arg.(
        value & opt float 30.0
        & info [ "stable-secs" ]
            ~doc:"Uptime after which the restart backoff resets to the base.")
    in
    let max_restarts =
      Arg.(
        value
        & opt (some int) None
        & info [ "max-restarts" ]
            ~doc:"Give up (exit nonzero) after this many restarts.  Default: never.")
    in
    let pid_file =
      Arg.(
        value
        & opt (some string) None
        & info [ "pid-file" ]
            ~doc:"Atomically (re)written with the current server child's pid.")
    in
    doc_cmd "supervise"
      "Run the daemon under a self-healing monitor: restart on crash (with \
       backoff), kill and restart on failed health pings, warm-start every \
       restart from the spool.  SIGTERM stops both cleanly."
      Term.(
        ret
          (const supervise $ socket $ Args.jobs $ spool $ result_cap
         $ max_inflight $ Args.deadline $ idle_timeout $ slice_ops
         $ health_interval $ health_timeout $ health_strikes $ grace
         $ backoff_base $ backoff_cap $ stable_secs $ max_restarts $ pid_file))
  in
  let ping_cmd = doc_cmd "ping" "Check the daemon is alive." Term.(ret (const ping $ socket)) in
  let stats_cmd =
    doc_cmd "stats" "Print serving and cache statistics." Term.(ret (const stats $ socket))
  in
  let shutdown_cmd =
    doc_cmd "shutdown" "Gracefully stop the daemon." Term.(ret (const shutdown $ socket))
  in
  let compile_cmd =
    let out =
      Arg.(
        value
        & opt (some string) None
        & info [ "o"; "output" ] ~doc:"Write the executable image here.")
    in
    doc_cmd "compile" "Compile through the daemon's artifact cache."
      Term.(ret (const compile $ socket $ input $ Args.isa $ Args.scale $ out))
  in
  let verify_cmd =
    doc_cmd "verify" "Verify every executable the input carries."
      Term.(ret (const verify $ socket $ input $ Args.scale))
  in
  let sim_cmd =
    doc_cmd "sim" "Simulate through the daemon (byte-identical to bisasim)."
      Term.(
        ret
          (const sim $ socket $ input $ Args.isa $ functional $ Args.exec
         $ Args.sim_cfg $ show_output $ Args.scale))
  in
  let cell_cmd =
    let bench =
      Arg.(
        required
        & pos 0 (some string) None
        & info [] ~docv:"BENCH" ~doc:"Built-in workload name.")
    in
    doc_cmd "cell" "Run one experiment cell through the daemon's caches."
      Term.(
        ret (const cell $ socket $ bench $ Args.isa $ Args.exec $ Args.sim_cfg $ Args.scale))
  in
  let info =
    Cmd.info "bisad" ~doc:"Persistent block-structured ISA simulation service"
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            serve_cmd;
            supervise_cmd;
            ping_cmd;
            stats_cmd;
            shutdown_cmd;
            compile_cmd;
            verify_cmd;
            sim_cmd;
            cell_cmd;
          ]))
