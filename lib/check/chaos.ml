(* Chaos campaign for the supervised bisad daemon.

   One supervised server (forked supervisor, forked server children, a
   shared crash-safe spool), a fleet of concurrent retrying clients, and
   an injector throwing real faults at all of it:

     - SIGKILL at random delays (the supervisor must respawn, the spool
       must warm the replacement)
     - SIGSTOP (existence is not liveness: the health pings' kernel
       timeouts must see through a stopped-but-present process and the
       supervisor must kill and replace it)
     - truncated frames, garbage length prefixes, and a slow-loris
       connection trickling a partial frame (connection hygiene must
       contain all three without disturbing real clients)
     - spool corruption between restarts (reload must skip the damaged
       entry loudly, and the next request for it must recompute and
       re-spool — the spool self-heals)

   The invariant at the end of all of it: every client converged, every
   response byte-identical to what the engine serves a one-shot caller —
   the same [Engine.handle] whose bytes the live-server client session
   (test/serve_live.ml) pins against the real CLI — within a bounded
   time and with bounded server RSS.
   Crash-only serving means none of the injections above may cost more
   than a retry. *)

module Diag = Bisa_base.Diag
module Fs = Bisa_base.Fs
module Rng = Bisa_base.Rng
module Proto = Bisa_proto.Proto
module Engine = Bisa_serve.Engine
module Server = Bisa_serve.Server
module Client = Bisa_serve.Client
module Supervise = Bisa_serve.Supervise

type report = {
  requests : int;  (** client requests that completed and matched *)
  clients : int;
  crashes : int;  (** server children that died, per the supervisor *)
  restarts : int;
  health_kills : int;  (** restarts forced by failed health pings *)
  retries : int;  (** client-side retry events across the fleet *)
  adversaries : int;  (** malformed-frame / slow-loris legs run *)
  corruptions : int;  (** spool files damaged between restarts *)
  rss_kb : int;  (** final server child's peak RSS *)
}

(* --- workload mix ------------------------------------------------------- *)

(* Small distinct programs: enough spread that the spool holds several
   entries worth corrupting, small enough that a request is
   milliseconds. *)
let chaos_source i =
  Printf.sprintf
    {|
int acc[8];
int main() {
  int i;
  int s = %d;
  for (i = 0; i < 300; i = i + 1) {
    acc[i & 7] = acc[i & 7] + i * %d;
    s = s + acc[i & 7];
    if (s > 40000) { s = s - 39999; }
  }
  print_int(s);
  return s & 255;
}
|}
    (i + 3)
    ((i * 5) + 7)

let mk_requests programs =
  List.concat_map
    (fun i ->
      let src = Proto.Source { src = chaos_source i; libs = [] } in
      List.map
        (fun isa ->
          Proto.Simulate
            {
              src;
              isa;
              mode = Proto.Timing;
              exec = Bisa_sim.Compile.Interp;
              cfg = Proto.default_sim_cfg;
              show_output = true;
            })
        [ Proto.Conv; Proto.Block ])
    (List.init programs Fun.id)

(* --- scratch and small file helpers ------------------------------------- *)

(* Multi-process event log: O_APPEND keeps whole small lines intact. *)
let append_line path line =
  let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_APPEND; Unix.O_CREAT ] 0o644 in
  let s = line ^ "\n" in
  ignore (Unix.write_substring fd s 0 (String.length s));
  Unix.close fd

(* --- the supervised server ---------------------------------------------- *)

(* The supervisor runs as its own forked process, its server children as
   forked grandchildren running [Server.serve] in-process on a
   sequential engine (chaos runs single-domain; see the bisafuzz
   chaos alias).  Aggressive intervals: detection and restart must fit a
   campaign measured in seconds, not minutes. *)
let start_supervisor ~socket ~spool ~pid_file ~events ~report_file =
  match Unix.fork () with
  | 0 ->
    let log d = append_line events (Diag.render d) in
    let spawn () =
      match Unix.fork () with
      | 0 ->
        (try
           let engine =
             Engine.create ~spool_dir:spool ~result_cap:8192 ~log:(fun d ->
                 append_line events (Diag.render d))
               ()
           in
           Server.serve ~max_inflight:64 ~idle_timeout:2.0 ~engine ~path:socket ();
           Unix._exit 0
         with _ -> Unix._exit 1)
      | pid -> pid
    in
    let cfg =
      {
        (Supervise.default ~socket) with
        health_interval = 0.25;
        health_timeout = 0.5;
        health_strikes = 2;
        grace = 1.0;
        backoff_base = 0.05;
        backoff_cap = 0.25;
        stable_secs = 5.0;
        pid_file = Some pid_file;
        log;
      }
    in
    let r = Supervise.run ~install_signals:true cfg ~spawn in
    Bisa_base.Atomic_file.write_string report_file
      (Printf.sprintf "%d %d %d %b" r.Supervise.restarts r.Supervise.crashes
         r.Supervise.health_kills r.Supervise.graceful);
    Unix._exit (if r.Supervise.graceful then 0 else 2)
  | pid -> pid

(* --- clients ------------------------------------------------------------ *)

(* Each client is a forked process driving its deterministic slice of
   the request mix through [Client.call_retry], pacing with small
   seeded sleeps so the fleet stays in flight across the injections.
   Its verdict (and retry count) comes back through a scratch file;
   exit codes distinguish mismatch from crash. *)
let start_client ~socket ~dir ~seed ~cid ~per_client ~reqs ~expected =
  match Unix.fork () with
  | 0 ->
    let rng = Rng.derive seed (1000 + cid) in
    let retries = ref 0 in
    let out = Filename.concat dir (Printf.sprintf "client%d" cid) in
    let fail msg =
      Bisa_base.Atomic_file.write_string out ("fail " ^ msg);
      Unix._exit 1
    in
    (try
       for k = 0 to per_client - 1 do
         let idx = (cid + (k * 7)) mod Array.length reqs in
         (match
            Client.call_retry ~attempts:60 ~base:0.02 ~cap:0.25
              ~seed:(Rng.int rng 1_000_000)
              ~on_retry:(fun ~attempt:_ ~delay:_ _ -> incr retries)
              socket reqs.(idx)
          with
         | Proto.Sim { stdout; notes; _ } ->
           let want_out, want_notes = expected.(idx) in
           if stdout <> want_out || notes <> want_notes then
             fail
               (Printf.sprintf
                  "request %d (mix %d) diverged from the engine's bytes:\n\
                   --- want ---\n%s--- got ---\n%s" k idx want_out stdout)
         | Proto.Err ds ->
           fail
             (Printf.sprintf "request %d (mix %d) failed: %s" k idx
                (String.concat "; " (List.map Diag.render ds)))
         | _ -> fail (Printf.sprintf "request %d (mix %d): unexpected response" k idx));
         (* Pacing: keep the fleet in flight across the injection plan
            rather than draining the mix in one burst. *)
         Unix.sleepf (Rng.float rng 0.06)
       done;
       Bisa_base.Atomic_file.write_string out (Printf.sprintf "ok %d" !retries);
       Unix._exit 0
     with e -> fail ("client raised " ^ Printexc.to_string e))
  | pid -> pid

(* --- injections --------------------------------------------------------- *)

type action = Kill | Stop | Trunc | Garbage | Loris | Corrupt

let child_pid pid_file =
  match int_of_string (String.trim (Fs.read_file pid_file)) with
  | pid when pid > 1 -> Some pid
  | _ -> None
  | exception _ -> None

let inject_signal pid_file signal =
  match child_pid pid_file with
  | None -> false
  | Some pid -> (
    match Unix.kill pid signal with
    | () -> true
    | exception Unix.Unix_error _ -> false)

(* Send a prefix of a valid frame and vanish: the server must hold the
   partial bytes without leaking them into real traffic, and the close
   must cost it nothing. *)
let inject_trunc socket =
  match Client.connect socket with
  | exception _ -> false
  | fd ->
    let frame = Proto.frame (Proto.encode_request Proto.Ping) in
    let n = max 2 (String.length frame / 2) in
    (try ignore (Unix.write_substring fd frame 0 n) with _ -> ());
    Client.close fd;
    true

(* A slow loris: a half-written frame stalled on an open connection.
   The server must park it without blocking real traffic and evict it
   once it crosses the idle timeout; we hold the fd until campaign end
   (or until a kill severs it) and just close whatever is left. *)
let inject_loris socket held =
  match Client.connect socket with
  | exception _ -> false
  | fd ->
    let frame = Proto.frame (Proto.encode_request Proto.Stats) in
    (try ignore (Unix.write_substring fd frame 0 (max 2 (String.length frame - 3)))
     with _ -> ());
    held := fd :: !held;
    true

(* An impossible length prefix: the server answers with the framing
   diagnostic and closes only that connection. *)
let inject_garbage socket =
  match Client.connect socket with
  | exception _ -> false
  | fd ->
    (try ignore (Unix.write_substring fd "\xff\xff\xff\xffjunk" 0 8) with _ -> ());
    Client.close fd;
    true

(* Damage one finished spool entry in place — flip one seeded bit of one
   seeded byte, which only the entry's checksum can catch, truncate it,
   or replace it with garbage — so the next restart exercises the
   skip-and-recompute path.  The first damage of a campaign is always the
   flip. *)
let inject_corrupt rng spool ~nth =
  match Sys.readdir spool with
  | exception Sys_error _ -> false
  | files -> (
    let resps =
      Array.to_list files |> List.filter (fun f -> Filename.check_suffix f ".resp")
    in
    match resps with
    | [] -> false
    | l ->
      let path = Filename.concat spool (List.nth l (Rng.int rng (List.length l))) in
      (try
         let bytes = Fs.read_file path in
         let damaged =
           match (if nth = 0 then 0 else Rng.int rng 3) with
           | 0 when bytes <> "" ->
             let b = Bytes.of_string bytes in
             let i = Rng.int rng (Bytes.length b) in
             Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl Rng.int rng 8)));
             Bytes.to_string b
           | 1 -> ""
           | _ -> "not a spooled result"
         in
         let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o644 in
         ignore (Unix.write_substring fd damaged 0 (String.length damaged));
         Unix.close fd;
         true
       with Unix.Unix_error _ | Sys_error _ -> false))

(* --- the campaign ------------------------------------------------------- *)

let fresh_scratch () =
  let d =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "bisa-chaos-%d" (Unix.getpid ()))
  in
  Fs.rm_rf d;
  Unix.mkdir d 0o755;
  d

let campaign ?(seed = 42) ?(requests = 1000) ?dir () =
  let quick = requests <= 500 in
  let clients = if quick then 3 else 8 in
  let per_client = max 10 (requests / clients) in
  let programs = if quick then 4 else 6 in
  let time_budget = if quick then 25.0 else 120.0 in
  (* The injection plan: at least one SIGKILL and one spool corruption
     always; the full profile adds more kills, a SIGSTOP (liveness, not
     existence), and the malformed-frame adversaries. *)
  let plan =
    (* Every Corrupt precedes a Kill: damage only matters if a restart
       reloads the spool over it. *)
    if quick then [ Trunc; Corrupt; Kill ]
    else
      [
        Trunc; Kill; Garbage; Corrupt; Kill; Loris; Stop; Corrupt; Kill; Kill;
      ]
  in
  let scratch, cleanup =
    match dir with
    | Some d -> (d, fun () -> ())
    | None ->
      let d = fresh_scratch () in
      (d, fun () -> Fs.rm_rf d)
  in
  let socket = Filename.concat scratch "sock" in
  let spool = Filename.concat scratch "spool" in
  let pid_file = Filename.concat scratch "pid" in
  let events = Filename.concat scratch "events.log" in
  let report_file = Filename.concat scratch "supervisor.report" in
  Unix.mkdir spool 0o755;
  let rng = Rng.create seed in
  let reqs = Array.of_list (mk_requests programs) in
  (* The golden bytes, from the same engine code path a fresh daemon
     would run — the live-server client session pins that path against
     the real one-shot CLI, so matching the engine here is matching the
     CLI. *)
  let golden_engine = Engine.create () in
  let expected =
    Array.map
      (fun req ->
        match Engine.handle golden_engine req with
        | Proto.Sim { stdout; notes; _ } -> (stdout, notes)
        | _ -> failwith "chaos: golden engine refused a mix request")
      reqs
  in
  let sup = start_supervisor ~socket ~spool ~pid_file ~events ~report_file in
  let kill_everything () =
    (match child_pid pid_file with
    | Some pid -> ( try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ())
    | None -> ());
    (try Unix.kill sup Sys.sigkill with Unix.Unix_error _ -> ());
    try ignore (Unix.waitpid [] sup) with Unix.Unix_error _ -> ()
  in
  match
    (* Wait until the first child serves before unleashing the fleet. *)
    let rec warm n =
      if Client.healthy ~timeout:0.5 socket then Ok ()
      else if n = 0 then Error "chaos: supervised server never became healthy"
      else begin
        Unix.sleepf 0.1;
        warm (n - 1)
      end
    in
    warm 100
  with
  | Error e ->
    kill_everything ();
    cleanup ();
    Error e
  | Ok () -> (
    let client_pids =
      List.init clients (fun cid ->
          start_client ~socket ~dir:scratch ~seed ~cid ~per_client ~reqs ~expected)
    in
    (* Drive the injection plan while the fleet runs: one action every
       0.15-0.5s, each logged, each tolerated mid-restart. *)
    let deadline = Unix.gettimeofday () +. time_budget in
    let adversaries = ref 0 in
    let corruptions = ref 0 in
    let kills_sent = ref 0 in
    let last_victim = ref None in
    let held_fds = ref [] in
    let pending = ref plan in
    let next_action = ref (Unix.gettimeofday () +. 0.2) in
    let alive = ref client_pids in
    let overtime = ref false in
    (* The loop owes the plan as much as the clients: injections keep
       firing until exhausted even if the fleet finishes early, and the
       fleet keeps being reaped until empty even after the last fault. *)
    while (!alive <> [] || !pending <> []) && not !overtime do
      let now = Unix.gettimeofday () in
      if now > deadline then overtime := true
      else begin
        (match !pending with
        | a :: rest when now >= !next_action ->
          let target = child_pid pid_file in
          (* A kill-type action waits for a fresh victim: signalling the
             same (possibly stopped, already-doomed) child twice would
             send two signals for one crash. *)
          let postpone =
            match a with
            | Kill | Stop -> target = None || target = !last_victim
            | Trunc | Garbage | Loris | Corrupt -> false
          in
          if postpone then next_action := now +. 0.1
          else begin
          pending := rest;
          next_action := now +. 0.1 +. Rng.float rng 0.25;
          let did =
            match a with
            | Kill ->
              let ok = inject_signal pid_file Sys.sigkill in
              if ok then begin
                incr kills_sent;
                last_victim := target
              end;
              ok
            | Stop ->
              let ok = inject_signal pid_file Sys.sigstop in
              if ok then begin
                incr kills_sent;
                last_victim := target
              end;
              ok
            | Trunc ->
              let ok = inject_trunc socket in
              if ok then incr adversaries;
              ok
            | Garbage ->
              let ok = inject_garbage socket in
              if ok then incr adversaries;
              ok
            | Loris ->
              let ok = inject_loris socket held_fds in
              if ok then incr adversaries;
              ok
            | Corrupt ->
              let ok = inject_corrupt rng spool ~nth:!corruptions in
              if ok then incr corruptions;
              ok
          in
          append_line events
            (Printf.sprintf "[inject] %s%s"
               (match a with
               | Kill -> "SIGKILL"
               | Stop -> "SIGSTOP"
               | Trunc -> "truncated frame"
               | Garbage -> "garbage length prefix"
               | Loris -> "slow-loris stall"
               | Corrupt -> "spool corruption")
               (if did then "" else " (no target; skipped)"))
          end
        | _ -> ());
        alive :=
          List.filter
            (fun pid ->
              match Unix.waitpid [ Unix.WNOHANG ] pid with
              | 0, _ -> true
              | _ -> false
              | exception Unix.Unix_error _ -> false)
            !alive;
        if !alive <> [] || !pending <> [] then Unix.sleepf 0.02
      end
    done;
    List.iter
      (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
      !held_fds;
    if !overtime then begin
      List.iter
        (fun pid -> try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ())
        !alive;
      List.iter
        (fun pid -> try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
        !alive;
      kill_everything ();
      cleanup ();
      Error
        (Printf.sprintf
           "chaos: clients did not converge within the %.0fs budget (%d still \
            running)"
           time_budget (List.length !alive))
    end
    else begin
      (* Collect client verdicts. *)
      let verdicts =
        List.init clients (fun cid ->
            match Fs.read_file (Filename.concat scratch (Printf.sprintf "client%d" cid)) with
            | s -> s
            | exception _ -> "fail client left no verdict")
      in
      let failures = List.filter (fun v -> String.length v < 2 || String.sub v 0 2 <> "ok") verdicts in
      let retries =
        List.fold_left
          (fun acc v ->
            match String.split_on_char ' ' v with
            | [ "ok"; n ] -> acc + int_of_string n
            | _ -> acc)
          0 verdicts
      in
      (* Final server-side checks over the survivor, then a graceful
         shutdown that also ends supervision. *)
      let final =
        match Client.call_retry ~attempts:40 ~base:0.02 ~cap:0.25 socket Proto.Stats with
        | Proto.Stats_r s -> Some s
        | _ -> None
        | exception _ -> None
      in
      (match Client.call_retry ~attempts:40 ~base:0.02 ~cap:0.25 socket Proto.Shutdown with
      | _ -> ()
      | exception _ -> ());
      let sup_status =
        match Unix.waitpid [] sup with
        | _, st -> Some st
        | exception Unix.Unix_error _ -> None
      in
      let sup_report =
        match String.split_on_char ' ' (String.trim (Fs.read_file report_file)) with
        | [ r; c; h; g ] ->
          Some (int_of_string r, int_of_string c, int_of_string h, bool_of_string g)
        | _ | (exception _) -> None
      in
      let ev = match Fs.read_file events with s -> s | exception _ -> "" in
      let contains hay needle =
        let nh = String.length hay and nn = String.length needle in
        let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
        nn > 0 && go 0
      in
      let result =
        if failures <> [] then
          Error ("chaos: " ^ String.concat "\nchaos: " failures)
        else
          match sup_report with
          | None -> Error "chaos: supervisor left no report"
          | Some (restarts, crashes, health_kills, graceful) ->
            if not graceful then
              Error "chaos: supervision did not end gracefully"
            else if sup_status <> Some (Unix.WEXITED 0) then
              Error "chaos: supervisor exited abnormally"
            else if crashes < !kills_sent then
              Error
                (Printf.sprintf
                   "chaos: sent %d kill signals but the supervisor saw only %d \
                    crashes"
                   !kills_sent crashes)
            else if !corruptions > 0 && not (contains ev "spool: skipped") then
              Error
                "chaos: spool was corrupted but no restart logged a skipped entry"
            else begin
              let rss_kb = match final with Some s -> s.Proto.rss_kb | None -> 0 in
              if rss_kb > 300_000 then
                Error
                  (Printf.sprintf "chaos: final server RSS %d KB exceeds the bound"
                     rss_kb)
              else
                Ok
                  {
                    requests = clients * per_client;
                    clients;
                    crashes;
                    restarts;
                    health_kills;
                    retries;
                    adversaries = !adversaries;
                    corruptions = !corruptions;
                    rss_kb;
                  }
            end
      in
      (match result with Ok _ -> cleanup () | Error _ -> kill_everything ());
      result
    end)
