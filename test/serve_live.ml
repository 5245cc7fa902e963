(* Live-server checks that must fork a real bisad child: the scripted
   client session (the real `bisad` client binary against a forked
   server, byte-identical to the one-shot CLI, cold and cached),
   cooperative liveness under a paper-scale job, cold jobs stepped side
   by side on a two-domain pool, deadline expiry into the structured Err,
   admission control, and slow-loris idle eviction.

   A separate executable (not part of test_main) because Unix.fork is
   forbidden once other domains exist, and the main suite's pool tests
   create domains.  Run via the serve-live alias, pinned domain-free:

     serve_live.exe BISAD TIMING_EXPECT FUNCTIONAL_EXPECT

   where BISAD is the bisad binary and the two files hold bisasim's
   stdout for the client session's timing and functional legs. *)

module Proto = Bisa_proto.Proto
module Engine = Bisa_serve.Engine
module Server = Bisa_serve.Server
module Client = Bisa_serve.Client
module Fs = Bisa_base.Fs

let failures = ref 0

let check what ok =
  if not ok then begin
    incr failures;
    Printf.eprintf "serve-live FAIL: %s\n%!" what
  end

let src =
  "int main() { int i; int s = 0; for (i = 0; i < 40; i = i + 1) { s = s + i * \
   3; } print_int(s); return s & 255; }"

let src2 = "int main() { print_int(7); return 7; }"

(* Work that outlasts every assertion below (the server is SIGKILLed when
   a check ends, so nothing ever waits for it to finish). *)
let long_src =
  "int main() { int i; int s = 0; for (i = 0; i < 5000000; i = i + 1) { s = s \
   + (i ^ (s >> 3)); } print_int(s); return s & 255; }"

let sim ?(s = src) ?(isa = Proto.Block) ?deadline () =
  Proto.Simulate
    {
      src = Proto.Source { src = s; libs = [] };
      isa;
      mode = Proto.Timing;
      exec = Bisa_sim.Compile.Interp;
      cfg = { Proto.default_sim_cfg with Proto.deadline };
      show_output = true;
    }

(* A fresh scratch directory for one check, removed when it ends. *)
let with_tmp_dir name f =
  let d =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "bisa-live-%s-%d" name (Unix.getpid ()))
  in
  Fs.rm_rf d;
  Fs.mkdir_p d;
  Fun.protect ~finally:(fun () -> Fs.rm_rf d) (fun () -> f d)

(* Fork a real server child on a fresh socket; wait for the socket to
   accept, run [f], then SIGKILL the child — only the client session
   waits for a graceful exit; the other checks must not depend on it. *)
let with_server ?deadline ?idle_timeout ?slice_ops ?(max_inflight = 4) ?(workers = 1)
    name f =
  with_tmp_dir name @@ fun dir ->
  let path = Filename.concat dir "sock" in
  match Unix.fork () with
  | 0 ->
    (try
       (* The child's pool domains start after the fork, so this process
          stays domain-free for the checks that fork after it. *)
       let pool = Bisa_base.Pool.create ~workers () in
       let engine = Engine.create ~pool () in
       Server.serve ~max_inflight ?deadline ?idle_timeout ?slice_ops ~engine ~path ();
       Unix._exit 0
     with _ -> Unix._exit 1)
  | pid ->
    let finally () =
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ()
    in
    Fun.protect ~finally (fun () ->
        Client.close (Client.retry_connect path);
        f ~pid path)

(* Park a long job on its own connection without waiting for the reply. *)
let send_no_wait path req =
  let fd = Client.connect path in
  let frame = Proto.frame (Proto.encode_request req) in
  ignore (Unix.write_substring fd frame 0 (String.length frame));
  fd

(* Run the bisad client binary against [path]: its exit code and stdout.
   BISA_* variables are dropped so the command line alone decides the
   request. *)
let run_client ~bisad path cmd args =
  let out = Filename.concat (Filename.dirname path) "client.out" in
  let err = Filename.concat (Filename.dirname path) "client.err" in
  let open_w p =
    Unix.openfile p [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
  in
  let fd_out = open_w out and fd_err = open_w err in
  let env =
    Array.of_list
      (List.filter
         (fun kv -> not (String.starts_with ~prefix:"BISA_" kv))
         (Array.to_list (Unix.environment ())))
  in
  let pid =
    Unix.create_process_env bisad
      (Array.of_list ((bisad :: cmd :: args) @ [ "--socket"; path ]))
      env Unix.stdin fd_out fd_err
  in
  Unix.close fd_out;
  Unix.close fd_err;
  let code =
    match snd (Unix.waitpid [] pid) with Unix.WEXITED n -> n | _ -> -1
  in
  (code, Fs.read_file out)

(* The scripted session through the real client: ping; compile; for each
   leg, the same `bisad sim` twice, printing bisasim's captured bytes cold
   and then cached (the server's counters say which); a passed deadline
   exiting 124; a graceful shutdown the server exits 0 from. *)
let test_client_session ~bisad ~timing_expect ~fn_expect =
  with_server "client" @@ fun ~pid path ->
  let client = run_client ~bisad path in
  let counts () =
    match Client.one_shot path Proto.Stats with
    | Proto.Stats_r s -> (s.Proto.sim_misses, s.Proto.sim_hits)
    | _ -> (-1, -1)
  in
  let code, out = client "ping" [] in
  check "bisad ping exits 0 and names the protocol version"
    (code = 0 && String.ends_with ~suffix:(Proto.version ^ "\n") out);
  let code, out = client "compile" [ "li"; "--scale"; "1"; "--isa"; "block" ] in
  check "bisad compile exits 0 and prints" (code = 0 && out <> "");
  let legs =
    [
      ("timing", [ "--isa"; "block" ], timing_expect);
      ("functional", [ "--isa"; "conv"; "--functional" ], fn_expect);
    ]
  in
  List.iteri
    (fun i (leg, flags, expect) ->
      let want = Fs.read_file expect in
      List.iter
        (fun (pass, misses, hits) ->
          let what = Printf.sprintf "%s leg, %s" leg pass in
          let code, out =
            client "sim" ([ "li"; "--scale"; "1"; "--show-output" ] @ flags)
          in
          check (what ^ ": bisad sim exits 0") (code = 0);
          if out <> want then
            Printf.eprintf "--- bisasim (%s) ---\n%s--- bisad sim ---\n%s%!" expect
              want out;
          check (what ^ ": bisad sim prints bisasim's bytes") (out = want);
          check
            (Printf.sprintf "%s: stats count %d misses and %d hits" what misses hits)
            (counts () = (misses, hits)))
        [ ("cold", i + 1, i); ("cached", i + 1, i + 1) ])
    legs;
  (* Not a key the legs cached, so it becomes a job that expires. *)
  let code, _ =
    client "sim" [ "li"; "--scale"; "1"; "--isa"; "conv"; "--deadline"; "0.000001" ]
  in
  check "bisad sim past its deadline exits 124" (code = 124);
  let code, _ = client "shutdown" [] in
  check "bisad shutdown exits 0" (code = 0);
  check "the server exits 0 after shutdown"
    (snd (Unix.waitpid [] pid) = Unix.WEXITED 0)

(* A paper-scale job in flight must not cost a concurrent ping more than
   a slice: the cooperative loop's headline guarantee. *)
let test_ping_under_load () =
  with_server "ping" @@ fun ~pid:_ path ->
  let fd = send_no_wait path (sim ~s:long_src ()) in
  Unix.sleepf 0.2 (* let the server read, compile, and park the job *);
  let t0 = Unix.gettimeofday () in
  (match Client.one_shot path Proto.Ping with
  | Proto.Pong _ -> ()
  | _ -> check "ping under load did not Pong" false);
  let dt = Unix.gettimeofday () -. t0 in
  (match Client.one_shot path Proto.Stats with
  | Proto.Stats_r s ->
    check "the job really was in flight" (s.Proto.inflight_peak >= 1)
  | _ -> check "stats under load" false);
  Client.close fd;
  check
    (Printf.sprintf "ping answered in %.3fs with a job in flight" dt)
    (dt < 0.5)

let cell ~bench ~isa =
  Proto.Cell
    {
      bench;
      scale = Some 1;
      isa;
      exec = Bisa_sim.Compile.Interp;
      cfg = Proto.default_sim_cfg;
    }

(* The reply to a request sent earlier on [fd], as the bytes on the wire. *)
let read_reply fd =
  match Proto.read_frame fd with
  | Some payload -> payload
  | None -> "(connection closed without a reply)"

let inflight_peak path =
  match Client.one_shot path Proto.Stats with
  | Proto.Stats_r s -> s.Proto.inflight_peak
  | _ -> -1

(* On a two-domain pool, two clients' different cold Cells are in flight
   at once and stepped side by side; each client gets exactly the bytes
   an in-process engine answers, not the other's. *)
let test_parallel_cold_cells () =
  with_server ~workers:2 ~slice_ops:1000 "parallel" @@ fun ~pid:_ path ->
  let reqs =
    [ cell ~bench:"li" ~isa:Proto.Conv; cell ~bench:"compress" ~isa:Proto.Block ]
  in
  let fds = List.map (send_no_wait path) reqs in
  let replies = List.map read_reply fds in
  List.iter Client.close fds;
  List.iter2
    (fun req got ->
      let want = Proto.encode_response (Engine.handle (Engine.create ()) req) in
      check "a side-by-side cold Cell answers the in-process engine's bytes" (got = want))
    reqs replies;
  let peak = inflight_peak path in
  check (Printf.sprintf "both Cells were in flight at once (inflight_peak %d)" peak)
    (peak = 2)

(* Two paper-scale jobs stepped side by side still leave the loop a
   round of about one slice: a ping answers between rounds. *)
let test_ping_under_parallel_load () =
  with_server ~workers:2 "ping2" @@ fun ~pid:_ path ->
  let fds =
    List.map (fun isa -> send_no_wait path (sim ~s:long_src ~isa ())) [ Proto.Block; Proto.Conv ]
  in
  Unix.sleepf 0.3 (* let the server read, compile, and park both jobs *);
  let t0 = Unix.gettimeofday () in
  (match Client.one_shot path Proto.Ping with
  | Proto.Pong _ -> ()
  | _ -> check "ping under two jobs did not Pong" false);
  let dt = Unix.gettimeofday () -. t0 in
  let peak = inflight_peak path in
  List.iter Client.close fds;
  check (Printf.sprintf "both jobs were in flight (inflight_peak %d)" peak) (peak >= 2);
  check (Printf.sprintf "ping answered in %.3fs with two jobs in flight" dt) (dt < 0.5)

(* A deadline-passed request comes back as the structured deadline Err —
   never retried by the client, never cached by the engine: the same
   request without a deadline then computes the full answer. *)
let test_deadline_expiry () =
  with_server "deadline" @@ fun ~pid:_ path ->
  let with_deadline = sim ~deadline:1e-6 () in
  let r = Client.one_shot path with_deadline in
  check "deadline expiry is the structured Err" (Proto.is_deadline_err r);
  check "and is not the busy Err" (not (Proto.is_busy_err r));
  (* The retrying client treats it as terminal: no sleeps, same answer. *)
  let sleeps = ref 0 in
  let r' = Client.call_retry ~sleep:(fun _ -> incr sleeps) path with_deadline in
  check "call_retry never retries a deadline Err"
    (Proto.is_deadline_err r' && !sleeps = 0);
  match Client.one_shot path (sim ()) with
  | Proto.Sim { stdout; cached; _ } ->
    check "the aborted job cached nothing" (not cached);
    check "undeadlined rerun computes the answer" (stdout <> "")
  | _ -> check "undeadlined rerun answered" false

(* Admission control refuses work-shaped requests at capacity with the
   busy Err, while ping stays admitted. *)
let test_admission_busy () =
  with_server ~max_inflight:1 "busy" @@ fun ~pid:_ path ->
  let fd = send_no_wait path (sim ~s:long_src ()) in
  Unix.sleepf 0.2;
  let r = Client.one_shot path (sim ~s:src2 ()) in
  check "work past the cap is refused busy" (Proto.is_busy_err r);
  (match Client.one_shot path Proto.Ping with
  | Proto.Pong _ -> ()
  | _ -> check "ping must always be admitted" false);
  Client.close fd

(* A slow loris — a connection holding a half-written frame — is evicted
   once idle past the timeout, and the server keeps serving others. *)
let test_idle_eviction () =
  with_server ~idle_timeout:0.2 "loris" @@ fun ~pid:_ path ->
  let fd = Client.connect path in
  ignore (Unix.write_substring fd "\000\000" 0 2);
  Unix.sleepf 0.9 (* > timeout plus a full idle select round *);
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO 2.0;
  let evicted =
    match Unix.read fd (Bytes.create 1) 0 1 with
    | 0 -> true
    | _ -> false
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> false
    | exception Unix.Unix_error _ -> true
  in
  Client.close fd;
  check "slow-loris connection evicted" evicted;
  match Client.one_shot path Proto.Ping with
  | Proto.Pong _ -> ()
  | _ -> check "server must survive the loris" false

let () =
  let bisad, timing_expect, fn_expect =
    match Sys.argv with
    | [| _; bisad; timing_expect; fn_expect |] -> (bisad, timing_expect, fn_expect)
    | _ ->
      prerr_endline "usage: serve_live BISAD TIMING_EXPECT FUNCTIONAL_EXPECT";
      exit 2
  in
  test_client_session ~bisad ~timing_expect ~fn_expect;
  test_ping_under_load ();
  test_parallel_cold_cells ();
  test_ping_under_parallel_load ();
  test_deadline_expiry ();
  test_admission_busy ();
  test_idle_eviction ();
  if !failures > 0 then begin
    Printf.eprintf "serve-live: %d check(s) failed\n%!" !failures;
    exit 1
  end;
  print_endline
    "serve-live: client session, liveness, parallel cold jobs, deadline expiry, \
     admission control and idle eviction OK"
