(* Serving-layer tests: the wire codec's failure contract, and the
   engine's headline guarantee — a cache-hit response is byte-identical
   to the cold-start response and to the one-shot CLI's rendering, at
   every worker count, across evictions, and across a restart from the
   spool. *)

module Proto = Bisa_proto.Proto
module Engine = Bisa_serve.Engine
module Pipeline = Bisa_timing.Pipeline
module Diag = Bisa_base.Diag
module Pool = Bisa_base.Pool

let src = "int main() { int i; int s = 0; for (i = 0; i < 40; i = i + 1) { s = s + i * 3; } print_int(s); return s & 255; }"
let src2 = "int main() { print_int(7); return 7; }"
let src3 = "int main() { print_int(11); return 11; }"

let sim ?(s = src) ?(isa = Proto.Block) ?(mode = Proto.Timing) () =
  Proto.Simulate
    {
      src = Proto.Source { src = s; libs = [] };
      isa;
      mode;
      exec = Bisa_sim.Compile.Interp;
      cfg = Proto.default_sim_cfg;
      show_output = true;
    }

let cell ?(isa = Proto.Conv) () =
  Proto.Cell
    {
      bench = "li";
      scale = Some 1;
      isa;
      exec = Bisa_sim.Compile.Interp;
      cfg = Proto.default_sim_cfg;
    }

let sim_payload = function
  | Proto.Sim { stdout; cached; _ } -> (stdout, cached)
  | Proto.Err ds ->
    Alcotest.failf "unexpected Err: %s"
      (String.concat "; " (List.map Diag.render ds))
  | _ -> Alcotest.fail "not a Sim response"

(* A fresh scratch directory for one check, removed when it ends. *)
let with_tmp_dir name f =
  let d =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "bisa-test-%s-%d" name (Unix.getpid ()))
  in
  Bisa_base.Fs.rm_rf d;
  Bisa_base.Fs.mkdir_p d;
  Fun.protect ~finally:(fun () -> Bisa_base.Fs.rm_rf d) (fun () -> f d)

(* --- codec failure contract ---------------------------------------------- *)

let check_proto_reject what f =
  match f () with
  | _ -> Alcotest.failf "%s: decoded instead of rejecting" what
  | exception Diag.Fail d -> begin
    match d.Diag.loc with
    | Diag.Byte { section; _ } ->
      Alcotest.(check string) (what ^ ": component") "proto" d.Diag.component;
      Alcotest.(check bool) (what ^ ": section nonempty") true (section <> "")
    | _ -> Alcotest.failf "%s: diagnostic without a byte offset: %s" what (Diag.render d)
  end

let test_decode_robustness () =
  let payload = Proto.encode_request (sim ()) in
  check_proto_reject "truncated payload" (fun () ->
      Proto.decode_request (String.sub payload 0 (String.length payload / 2)));
  check_proto_reject "wrong version" (fun () ->
      Proto.decode_request ("bogus/9" ^ payload));
  check_proto_reject "trailing garbage" (fun () ->
      Proto.decode_request (payload ^ "x"));
  check_proto_reject "response decoder on a request" (fun () ->
      ignore (Proto.decode_response payload));
  (* Nested batches are a client bug on encode, a wire error on decode. *)
  (match Proto.encode_request (Proto.Batch [ Proto.Batch [ Proto.Ping ] ]) with
  | _ -> Alcotest.fail "nested batch encoded"
  | exception Invalid_argument _ -> ());
  (* An oversized length prefix must be rejected before allocation. *)
  let buf = Buffer.create 8 in
  let b = Bytes.create 4 in
  Bytes.set_int32_be b 0 0x7fff_ffffl;
  Buffer.add_bytes buf b;
  check_proto_reject "oversized frame" (fun () -> Proto.peel_frame buf 0)

let test_round_trip () =
  let reqs = [ Proto.Ping; sim (); Proto.Batch [ Proto.Stats; sim ~s:src2 () ] ] in
  List.iter
    (fun r ->
      Alcotest.(check bool) "request round-trips" true
        (Proto.decode_request (Proto.encode_request r) = r))
    reqs;
  let resp =
    Proto.Sim { stdout = "x\n"; notes = ""; prog_hash = 5L; cached = true }
  in
  Alcotest.(check bool) "response round-trips" true
    (Proto.decode_response (Proto.encode_response resp) = resp)

(* --- cache correctness ---------------------------------------------------- *)

(* The one-shot CLI's stdout for [sim ()], computed without the engine:
   artifact, timing run, canonical rendering. *)
let cli_bytes () =
  let c = Bisa_compiler.Compiler.compile src in
  let cfg = Proto.to_config Proto.default_sim_cfg in
  let m, out = Pipeline.Block.run_artifact cfg (Pipeline.Block.prepare c.block) in
  Proto.render_timing ~show_output:true
    ~out:(Bisa_sim.Output.to_string out)
    ~summary:
      (Bisa_timing.Metrics.summary ~name:Pipeline.Block.descr m)

let with_pool workers f =
  if workers <= 1 then f Pool.sequential else Pool.run ~workers f

(* Cold response == cached response == the CLI's bytes, at -j1 and -j4. *)
let test_cache_hit_bytes () =
  let expected = cli_bytes () in
  List.iter
    (fun workers ->
      with_pool workers @@ fun pool ->
      let e = Engine.create ~pool () in
      let cold, cold_cached = sim_payload (Engine.handle e (sim ())) in
      let warm, warm_cached = sim_payload (Engine.handle e (sim ())) in
      Alcotest.(check bool) "cold is a miss" false cold_cached;
      Alcotest.(check bool) "warm is a hit" true warm_cached;
      Alcotest.(check string) "cold == CLI bytes" expected cold;
      Alcotest.(check string) "warm == cold" cold warm)
    [ 1; 4 ]

(* A batch of duplicates must collapse to one simulation and return
   identical stdout bytes in submission order at every worker count
   (only the [cached] flag distinguishes the one computing request from
   its raced waiters). *)
let test_batch_identical () =
  let batch = Proto.Batch (List.init 6 (fun _ -> sim ())) in
  let run workers =
    with_pool workers @@ fun pool ->
    let e = Engine.create ~pool () in
    match Engine.handle e batch with
    | Proto.Batch_r rs -> (List.map (fun r -> fst (sim_payload r)) rs, Engine.stats e)
    | _ -> Alcotest.fail "not a batch response"
  in
  let r1, s1 = run 1 in
  let r4, s4 = run 4 in
  Alcotest.(check int) "batch size" 6 (List.length r4);
  Alcotest.(check bool) "all stdouts byte-identical" true
    (List.for_all (fun r -> r = List.hd r4) r4);
  Alcotest.(check bool) "-j1 == -j4 bytes" true (r1 = r4);
  Alcotest.(check int) "one simulation at -j1" 1 s1.Proto.sim_misses;
  Alcotest.(check int) "one simulation at -j4" 1 s4.Proto.sim_misses

(* Functional-mode responses hit the same cache discipline. *)
let test_functional_cache () =
  let req = sim ~mode:Proto.Functional ~isa:Proto.Conv () in
  let e = Engine.create () in
  let cold, c0 = sim_payload (Engine.handle e req) in
  let warm, c1 = sim_payload (Engine.handle e req) in
  Alcotest.(check bool) "miss then hit" true ((not c0) && c1);
  Alcotest.(check string) "identical bytes" cold warm

(* Distinct cfg / show_output must not alias in the cache. *)
let test_no_key_aliasing () =
  let e = Engine.create () in
  let quiet =
    match sim () with
    | Proto.Simulate s -> Proto.Simulate { s with show_output = false }
    | _ -> assert false
  in
  let loud, _ = sim_payload (Engine.handle e (sim ())) in
  let hushed, _ = sim_payload (Engine.handle e quiet) in
  Alcotest.(check bool) "show_output changes the bytes" true (loud <> hushed);
  let small_cache =
    match sim () with
    | Proto.Simulate s ->
      Proto.Simulate { s with cfg = { s.cfg with Proto.icache_kb = 1 } }
    | _ -> assert false
  in
  let _, cached = sim_payload (Engine.handle e small_cache) in
  Alcotest.(check bool) "different cfg is a fresh miss" false cached

(* Kill the engine, restart on the same spool: the result must come back
   cached with identical bytes, and a hit prepares no artifact. *)
let test_spool_reload () =
  with_tmp_dir "spool" @@ fun dir ->
  let a = Engine.create ~spool_dir:dir () in
  let cold, _ = sim_payload (Engine.handle a (sim ())) in
  let cold_cell = Engine.handle a (cell ()) in
  let b = Engine.create ~spool_dir:dir () in
  let warm, cached = sim_payload (Engine.handle b (sim ())) in
  Alcotest.(check bool) "reloaded from spool" true cached;
  Alcotest.(check string) "spool bytes == cold bytes" cold warm;
  Alcotest.(check bool) "stats saw the spool" true ((Engine.stats b).Proto.spooled >= 1);
  (match (cold_cell, Engine.handle b (cell ())) with
  | Proto.Cell_done c, Proto.Cell_done w ->
    Alcotest.(check bool) "cell reloaded from spool" true w.cached;
    Alcotest.(check string) "cell summary == cold summary" c.summary w.summary;
    Alcotest.(check int64) "cell prog_hash == cold prog_hash" c.prog_hash w.prog_hash
  | _ -> Alcotest.fail "not a Cell_done response");
  Alcotest.(check int) "a spool-warm hit prepares no artifact" 0
    (Engine.stats b).Proto.artifacts

(* A failed run caches nothing, so failures cannot pile up past
   [result_cap]; a repeat, or a raced duplicate in a Batch, gets the
   same Err. *)
let test_failures_not_cached () =
  let runaway budget =
    match sim () with
    | Proto.Simulate s -> Proto.Simulate { s with cfg = { s.cfg with Proto.budget } }
    | _ -> assert false
  in
  with_pool 4 @@ fun pool ->
  let e = Engine.create ~pool ~result_cap:2 () in
  let errs = List.init 10 (fun i -> Engine.handle e (runaway (100 + i))) in
  List.iter
    (function
      | Proto.Err (_ :: _) -> () | _ -> Alcotest.fail "a runaway must yield Err")
    errs;
  Alcotest.(check bool) "failed results stay inside the cap" true
    ((Engine.stats e).Proto.results <= 2);
  Alcotest.(check bool) "a repeated failure returns the same Err" true
    (Engine.handle e (runaway 100) = List.hd errs);
  (match Engine.handle e (Proto.Batch (List.init 6 (fun _ -> runaway 100))) with
  | Proto.Batch_r rs ->
    Alcotest.(check bool) "raced duplicates return the same Err" true
      (List.for_all (fun r -> r = List.hd errs) rs)
  | _ -> Alcotest.fail "not a batch response");
  Alcotest.(check bool) "raced failures leave nothing cached" true
    ((Engine.stats e).Proto.results <= 2)

(* Every reply carries the canonical program hash ([Pipeline.*.prog_hash]
   of the executable it ran), cold and cached alike, whether the program
   came as source, as a binary or as a workload. *)
let test_stored_hashes () =
  let c = Bisa_compiler.Compiler.compile src in
  let w = Bisa_workloads.Workloads.(compile ~scale:1 (find "li")) in
  let conv_h = Pipeline.Conv.prog_hash c.conv
  and block_h = Pipeline.Block.prog_hash c.block in
  let source = Proto.Source { src; libs = [] } in
  let simulate src isa =
    match sim ~isa () with
    | Proto.Simulate s -> Proto.Simulate { s with src }
    | _ -> assert false
  in
  let hash_of = function
    | Proto.Sim { prog_hash; cached; _ } | Proto.Cell_done { prog_hash; cached; _ } ->
      (prog_hash, cached)
    | Proto.Err ds ->
      Alcotest.failf "unexpected Err: %s" (String.concat "; " (List.map Diag.render ds))
    | _ -> Alcotest.fail "not a Sim or Cell_done response"
  in
  List.iter
    (fun (what, expected, req) ->
      let e = Engine.create () in
      let cold = hash_of (Engine.handle e req) in
      let warm = hash_of (Engine.handle e req) in
      Alcotest.(check (pair int64 bool)) (what ^ ": cold") (expected, false) cold;
      Alcotest.(check (pair int64 bool)) (what ^ ": cached") (expected, true) warm)
    [
      ("source conv", conv_h, simulate source Proto.Conv);
      ("source block", block_h, simulate source Proto.Block);
      ( "conv binary",
        conv_h,
        simulate (Proto.Conv_bin (Bisa_isa.Encode.conv_to_bytes c.conv)) Proto.Conv );
      ( "block binary",
        block_h,
        simulate (Proto.Block_bin (Bisa_isa.Encode.block_to_bytes c.block)) Proto.Block );
      ("cell conv", Pipeline.Conv.prog_hash w.conv, cell ());
      ("cell block", Pipeline.Block.prog_hash w.block, cell ~isa:Proto.Block ());
    ];
  let e = Engine.create () in
  List.iter
    (fun (what, expected, isa) ->
      match Engine.handle e (Proto.Compile { src = source; isa }) with
      | Proto.Binary { prog_hash; _ } -> Alcotest.(check int64) what expected prog_hash
      | _ -> Alcotest.fail "not a Binary response")
    [ ("compile conv", conv_h, Proto.Conv); ("compile block", block_h, Proto.Block) ]

(* FIFO eviction trims memory but the spool keeps every finished byte;
   a restart reloads no more of it than the bound allows. *)
let test_eviction () =
  with_tmp_dir "evict" @@ fun dir ->
  let e = Engine.create ~spool_dir:dir ~result_cap:2 () in
  let r1, _ = sim_payload (Engine.handle e (sim ())) in
  let _ = Engine.handle e (sim ~s:src2 ()) in
  let _ = Engine.handle e (sim ~s:src3 ()) in
  let s = Engine.stats e in
  Alcotest.(check bool) "memory bounded" true (s.Proto.results <= 2);
  Alcotest.(check int) "spool keeps all" 3 s.Proto.spooled;
  (* The evicted first result recomputes (or reloads) byte-identically. *)
  let r1', _ = sim_payload (Engine.handle e (sim ())) in
  Alcotest.(check string) "evicted result recomputes identically" r1 r1';
  let e' = Engine.create ~spool_dir:dir ~result_cap:2 () in
  Alcotest.(check bool) "spool reload bounded" true
    ((Engine.stats e').Proto.results <= 2);
  let r1'', _ = sim_payload (Engine.handle e' (sim ())) in
  Alcotest.(check string) "bytes identical after a bounded reload" r1 r1''

(* The server's sliced jobs and [handle] run one plan: a job advanced
   one operation slice at a time answers exactly what [handle] answers on
   a fresh engine, counts one miss, and leaves a cache hit behind; a job
   abandoned mid-flight (the server just drops it) caches nothing. *)
let test_sliced_job () =
  let job e req =
    match Engine.start e req with
    | Engine.Job j -> j
    | Engine.Done _ -> Alcotest.fail "a miss must start a job"
  in
  let cached = function
    | Proto.Sim { cached; _ } | Proto.Cell_done { cached; _ } -> cached
    | _ -> Alcotest.fail "not a Sim or Cell_done response"
  in
  List.iter
    (fun (what, req) ->
      let e = Engine.create () in
      let j = job e req in
      let rec drive slices =
        match Engine.step_job j ~slice_ops:1 with
        | `More -> drive (slices + 1)
        | `Done resp -> (resp, slices + 1)
      in
      let sliced, slices = drive 0 in
      Alcotest.(check bool) (what ^ ": more than one slice") true (slices > 1);
      Alcotest.(check bool) (what ^ ": sliced == handle on a fresh engine") true
        (sliced = Engine.handle (Engine.create ()) req);
      let s = Engine.stats e in
      Alcotest.(check (pair int int))
        (what ^ ": one miss, no hit") (1, 0) (s.Proto.sim_misses, s.Proto.sim_hits);
      Alcotest.(check bool) (what ^ ": leaves a cache hit") true
        (cached (Engine.handle e req));
      let e = Engine.create () in
      let j = job e req in
      (match Engine.step_job j ~slice_ops:1 with
      | `More -> ()
      | `Done _ -> Alcotest.fail "one slice finished the run");
      Alcotest.(check int) (what ^ ": an abandoned job caches nothing") 0
        (Engine.stats e).Proto.results;
      Alcotest.(check bool) (what ^ ": so the next request misses") false
        (cached (Engine.handle e req)))
    [
      ("timing", sim ());
      ("functional", sim ~mode:Proto.Functional ~isa:Proto.Conv ());
      ("cell", cell ());
    ]

(* Failures come back as structured Err responses, never exceptions. *)
let test_errors_are_structured () =
  let e = Engine.create () in
  (match Engine.handle e (sim ~s:"int main() { return undefined_fn(); }" ()) with
  | Proto.Err (d :: _) ->
    Alcotest.(check bool) "has a component" true (d.Diag.component <> "")
  | _ -> Alcotest.fail "bad source must yield Err");
  match
    Engine.handle e
      (Proto.Cell
         {
           bench = "no-such-bench";
           scale = None;
           isa = Proto.Block;
           exec = Bisa_sim.Compile.Interp;
           cfg = Proto.default_sim_cfg;
         })
  with
  | Proto.Err (_ :: _) -> ()
  | _ -> Alcotest.fail "bad workload must yield Err"

(* A lexically malformed source is answered with one located Err: the
   lexer's failure must not escape the engine (and take the daemon down). *)
let test_malformed_source_err () =
  let e = Engine.create () in
  List.iter
    (fun isa ->
      match
        Engine.handle e
          (Proto.Compile
             { src = Proto.Source { src = "int main() { float x = 1.5e; return 0; }"; libs = [] }; isa })
      with
      | Proto.Err [ d ] ->
        Alcotest.(check bool) "malformed exponent is located" true
          (d.Diag.loc = Diag.Src { line = 1; col = 24 })
      | _ -> Alcotest.fail "malformed float exponent must yield one Err")
    [ Proto.Conv; Proto.Block ]

(* An out-of-range configuration is answered with one Err — in a timing
   and a functional Simulate, in a Cell, inside a Batch and on the server
   loop's path — and the same engine then serves good requests. *)
let test_config_rejected () =
  let bad =
    [
      ("negative out-cap", { Proto.default_sim_cfg with out_cap = Some (-1) });
      ("negative icache", { Proto.default_sim_cfg with icache_kb = -4 });
      ("icache bytes overflow", { Proto.default_sim_cfg with icache_kb = 9007199254740992 });
      ("icache max_int", { Proto.default_sim_cfg with icache_kb = max_int });
      ("icache above the bound", { Proto.default_sim_cfg with icache_kb = 1025 });
    ]
  in
  let with_cfg cfg = function
    | Proto.Simulate s -> Proto.Simulate { s with cfg }
    | Proto.Cell c -> Proto.Cell { c with cfg }
    | r -> r
  in
  let e = Engine.create () in
  let rejected what = function
    | Proto.Err [ d ] -> Alcotest.(check string) (what ^ ": component") "config" d.Diag.component
    | Proto.Err ds -> Alcotest.failf "%s: %d diagnostics" what (List.length ds)
    | _ -> Alcotest.failf "%s: answered instead of rejected" what
  in
  List.iter
    (fun (what, cfg) ->
      let reqs =
        List.map (with_cfg cfg) [ sim (); sim ~mode:Proto.Functional (); cell () ]
      in
      List.iter (fun req -> rejected what (Engine.handle e req)) reqs;
      (match Engine.handle e (Proto.Batch reqs) with
      | Proto.Batch_r rs -> List.iter (rejected (what ^ " in a Batch")) rs
      | _ -> Alcotest.fail "not a batch response");
      List.iter
        (fun req ->
          match Engine.start e req with
          | Engine.Done r -> rejected (what ^ " started") r
          | Engine.Job _ -> Alcotest.failf "%s: started a job" what)
        reqs)
    bad;
  ignore (sim_payload (Engine.handle e (sim ())));
  ignore (sim_payload (Engine.handle e (sim ~mode:Proto.Functional ())));
  match Engine.handle e (cell ()) with
  | Proto.Cell_done _ -> ()
  | _ -> Alcotest.fail "a good Cell after the rejections must answer"

(* A block binary with several verifier violations: a timing and a
   functional Simulate answer exactly the verifier's diagnostics, on
   either path and again once the rejection is cached, and a Verify
   returns them as its verdict. *)
let test_rejection_diagnostics () =
  let c = Bisa_compiler.Compiler.compile src in
  let n = Array.length c.block.blocks in
  let bad =
    { c.block with entry = n + 7; symbols = ("nowhere", n + 9) :: c.block.symbols }
  in
  let want = Pipeline.Block.verify bad in
  Alcotest.(check bool) "at least two violations" true (List.length want >= 2);
  let src = Proto.Block_bin (Bisa_isa.Encode.block_to_bytes bad) in
  let simulate mode =
    match sim ~mode () with
    | Proto.Simulate s -> Proto.Simulate { s with src }
    | _ -> assert false
  in
  let diags = function
    | Proto.Err ds -> ds
    | _ -> Alcotest.fail "a rejected program must answer Err"
  in
  let e = Engine.create () in
  List.iter
    (fun (what, req) ->
      Alcotest.(check (list string)) (what ^ ": every diagnostic")
        (List.map Diag.render want)
        (List.map Diag.render (diags (Engine.handle e req)));
      Alcotest.(check bool) (what ^ ": again, the same") true
        (diags (Engine.handle e req) = want);
      match Engine.start (Engine.create ()) req with
      | Engine.Done r ->
        Alcotest.(check bool) (what ^ ": the server loop's path") true (diags r = want)
      | Engine.Job _ -> Alcotest.failf "%s: started a job" what)
    [ ("timing", simulate Proto.Timing); ("functional", simulate Proto.Functional) ];
  match Engine.handle e (Proto.Verify { src }) with
  | Proto.Verdict { diags } -> Alcotest.(check bool) "verify: every diagnostic" true (diags = want)
  | _ -> Alcotest.fail "not a Verdict"

(* --- the retrying client's schedule: pure, published, pinned --------------

   (The checks that need a live forked server — liveness under load,
   deadline expiry, admission control, idle eviction — live in
   serve_live.ml: Unix.fork is forbidden once the pool tests above have
   created domains, so they run as their own domain-free executable.) *)

module Client = Bisa_serve.Client


let test_backoff_schedule () =
  let sched seed = Client.backoff_schedule ~seed ~attempts:6 ~base:0.01 ~cap:0.5 in
  Alcotest.(check bool) "same seed, same schedule" true (sched 7 = sched 7);
  Alcotest.(check bool) "different seed, different schedule" true (sched 7 <> sched 8);
  Alcotest.(check int) "one delay per attempt" 6 (List.length (sched 7));
  List.iter
    (fun d ->
      Alcotest.(check bool) "every delay within [base, cap]" true
        (d >= 0.01 && d <= 0.5))
    (sched 7);
  (* Decorrelated jitter's growth bound: each delay at most 3x its
     predecessor (modulo the cap clamp). *)
  ignore
    (List.fold_left
       (fun prev d ->
         Alcotest.(check bool) "delay <= max(base, 3 x prev)" true
           (d <= Float.max 0.01 (3. *. prev) +. 1e-9);
         d)
       0.01 (sched 7));
  (* call_retry sleeps exactly the published schedule: capture its naps
     against a socket that will never answer. *)
  let slept = ref [] in
  (match
     Client.call_retry ~attempts:4 ~base:0.01 ~cap:0.5 ~seed:7
       ~sleep:(fun d -> slept := d :: !slept)
       "/nonexistent/bisad.sock" Proto.Ping
   with
  | _ -> Alcotest.fail "a dead socket must raise after exhausting retries"
  | exception _ -> ());
  let expected = Client.backoff_schedule ~seed:7 ~attempts:3 ~base:0.01 ~cap:0.5 in
  Alcotest.(check bool) "call_retry slept the published schedule" true
    (List.rev !slept = expected)

(* --- spool damage is loud -------------------------------------------------- *)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn > 0 && go 0

let test_spool_skip_surfaced () =
  with_tmp_dir "skip" @@ fun dir ->
  let a = Engine.create ~spool_dir:dir () in
  let cold, _ = sim_payload (Engine.handle a (sim ())) in
  let oc = open_out_bin (Filename.concat dir "deadbeef.resp") in
  output_string oc "this is not a spooled result";
  close_out oc;
  (* A directory opens but cannot be read: skipped like any other damage,
     and without leaking the descriptor the failed read opened. *)
  Unix.mkdir (Filename.concat dir "cafef00d.resp") 0o755;
  let open_fds () =
    if Sys.file_exists "/proc/self/fd" then Array.length (Sys.readdir "/proc/self/fd")
    else 0
  in
  let fds = open_fds () in
  let diags = ref [] in
  let b = Engine.create ~spool_dir:dir ~log:(fun d -> diags := d :: !diags) () in
  Alcotest.(check int) "no descriptor leaked" fds (open_fds ());
  Alcotest.(check int) "skips counted in stats" 2
    (Engine.stats b).Proto.spool_skipped;
  (match List.rev !diags with
  | [ d1; d2 ] ->
    Alcotest.(check bool) "diagnostic names the spool directory" true
      (contains d1.Diag.message "cafef00d");
    Alcotest.(check bool) "diagnostic names the damaged file" true
      (contains d2.Diag.message "deadbeef")
  | ds -> Alcotest.failf "expected two skip diagnostics, got %d" (List.length ds));
  (* The intact entry still warms the cache, byte-identically. *)
  let warm, cached = sim_payload (Engine.handle b (sim ())) in
  Alcotest.(check bool) "good entry reloads" true cached;
  Alcotest.(check string) "bytes intact past the damage" cold warm

(* --- every spooled byte is checked ------------------------------------------- *)

(* A cold [cell ()] on a fresh spool: its summary, and the name and
   bytes of the one file it spooled. *)
let spooled_cell dir =
  match (Engine.handle (Engine.create ~spool_dir:dir ()) (cell ()), Sys.readdir dir) with
  | Proto.Cell_done { summary; _ }, [| name |] ->
    (summary, name, Bisa_base.Fs.read_file (Filename.concat dir name))
  | _ -> Alcotest.fail "expected a Cell_done and one spooled file"

(* A fresh engine over [dir] and the diagnostics its spool reload logged. *)
let reload dir =
  let diags = ref [] in
  let e = Engine.create ~spool_dir:dir ~log:(fun d -> diags := d :: !diags) () in
  (e, List.rev !diags)

(* Into a new file, not over the old one: ext4 flushes a file truncated
   and rewritten in place when it closes, tens of ms a write. *)
let write_file path s =
  if Sys.file_exists path then Sys.remove path;
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

(* A damaged entry is skipped with one diagnostic naming its file, and
   the request is answered cold with the cold bytes. *)
let check_recomputed what dir ~file (cold : string) =
  let e, diags = reload dir in
  (match diags with
  | [ d ] ->
    Alcotest.(check bool) (what ^ ": diagnostic names the file") true
      (contains d.Diag.message file)
  | ds -> Alcotest.failf "%s: expected one diagnostic, got %d" what (List.length ds));
  (match Engine.handle e (cell ()) with
  | Proto.Cell_done w ->
    Alcotest.(check string) (what ^ ": cold bytes") cold w.summary;
    Alcotest.(check bool) (what ^ ": not a hit") false w.cached
  | _ -> Alcotest.fail "not a Cell_done response");
  Alcotest.(check int) (what ^ ": skip counted") 1 (Engine.stats e).Proto.spool_skipped

(* One digit of the stored summary changed in place still parses, so
   only the body checksum can catch it. *)
let test_spool_body_edit () =
  with_tmp_dir "edit" @@ fun dir ->
  let summary, name, bytes = spooled_cell dir in
  let rec find i = if String.sub bytes i (String.length summary) = summary then i else find (i + 1) in
  let rec digit i = if bytes.[i] >= '0' && bytes.[i] <= '9' then i else digit (i + 1) in
  let i = digit (find 0) in
  let b = Bytes.of_string bytes in
  Bytes.set b i (if bytes.[i] = '9' then '8' else Char.chr (Char.code bytes.[i] + 1));
  write_file (Filename.concat dir name) (Bytes.to_string b);
  check_recomputed "edited digit" dir ~file:name summary

(* An intact entry under another name holds some other key's result. *)
let test_spool_key_names_file () =
  with_tmp_dir "rename" @@ fun dir ->
  let summary, name, _ = spooled_cell dir in
  let renamed = "0123456789abcdef.resp" in
  Sys.rename (Filename.concat dir name) (Filename.concat dir renamed);
  check_recomputed "renamed entry" dir ~file:renamed summary

(* Every single-byte change, at every position, is rejected with a
   located diagnostic. *)
let test_spool_every_byte () =
  with_tmp_dir "flip" @@ fun dir ->
  let _, name, bytes = spooled_cell dir in
  String.iteri
    (fun i c ->
      List.iter
        (fun mask ->
          let b = Bytes.of_string bytes in
          Bytes.set b i (Char.chr (Char.code c lxor mask));
          write_file (Filename.concat dir name) (Bytes.to_string b);
          match reload dir with
          | _, [ { Diag.loc = Diag.Byte _; _ } ] -> ()
          | _ -> Alcotest.failf "byte %d xor 0x%02x: not rejected at a byte" i mask)
        [ 0x01; 0x80 ])
    bytes

(* An entry whose write was killed after removing the old copy is only
   [NAME.next]; a restart finds it there and serves it cached. *)
let test_spool_next_only () =
  with_tmp_dir "next" @@ fun dir ->
  let summary, name, _ = spooled_cell dir in
  Sys.rename (Filename.concat dir name) (Filename.concat dir (name ^ ".next"));
  let e, diags = reload dir in
  Alcotest.(check int) "no diagnostic" 0 (List.length diags);
  (match Engine.handle e (cell ()) with
  | Proto.Cell_done w ->
    Alcotest.(check string) "spooled bytes" summary w.summary;
    Alcotest.(check bool) "served from the spool" true w.cached
  | _ -> Alcotest.fail "not a Cell_done response");
  let s = Engine.stats e in
  Alcotest.(check (pair int int)) "reloaded, nothing skipped" (1, 0)
    (s.Proto.spooled, s.Proto.spool_skipped)

(* --- the cache key contract and the cost of a hit --------------------------- *)

(* A spooled result is found again only under the same key and file
   name, so both are pinned to the bytes that spools written by earlier
   builds carry.  The program hash in the key is the compiler's output
   for [src2] (the reply carries it too); the configuration fingerprint
   is the default request's. *)
let test_key_pinned () =
  with_tmp_dir "key" @@ fun dir ->
  let e = Engine.create ~spool_dir:dir () in
  let req =
    Proto.Simulate
      {
        src = Proto.Source { src = src2; libs = [] };
        isa = Proto.Conv;
        mode = Proto.Functional;
        exec = Bisa_sim.Compile.Compiled;
        cfg = Proto.default_sim_cfg;
        show_output = false;
      }
  in
  (match Engine.handle e req with
  | Proto.Sim { prog_hash; _ } ->
    Alcotest.(check string) "program hash" "18e9b4950e9fb924" (Printf.sprintf "%016Lx" prog_hash)
  | _ -> Alcotest.fail "not a Sim response");
  match Sys.readdir dir with
  | [| name |] ->
    Alcotest.(check string) "spool file name" "3f4a374a3ce381be.resp" name;
    let r = Bisa_base.Codec.R.of_string (Bisa_base.Fs.read_file (Filename.concat dir name)) in
    Alcotest.(check string) "magic" "BISARESP" (Bisa_base.Codec.R.string r);
    Alcotest.(check int) "version" 2 (Bisa_base.Codec.R.int r);
    Alcotest.(check string) "key" "sim|conv|18e9b4950e9fb924|c443bfb970df5c2a|compiled|functional|full"
      (Bisa_base.Codec.R.string r)
  | names -> Alcotest.failf "expected one spooled result, found %d" (Array.length names)

(* How much of [count] one call of [f] adds, in one domain, counted over
   100 calls.  OCaml 5.1's [Gc.quick_stat] counts the minor heap only at
   a collection, so each reading empties it first.  A reading's own
   words, and the major words the runtime may book between two readings
   (up to about 60), are spread over the 100 calls. *)
let per_call count f =
  let n = 100 in
  let read () =
    Gc.minor ();
    count (Gc.quick_stat ())
  in
  let r0 = read () in
  for _ = 1 to n do
    ignore (Sys.opaque_identity (f ()))
  done;
  let r1 = read () in
  (r1 -. r0) /. float_of_int n

(* Words straight in the major heap: promoted words are counted in both
   [minor_words] and [major_words]. *)
let direct_major_words s = s.Gc.major_words -. s.promoted_words

(* Words one call allocates: minor words plus direct major words. *)
let words_per_call f =
  int_of_float
    (Float.round (per_call (fun s -> s.Gc.minor_words +. direct_major_words s) f))

(* A MiniC program of about [bytes] bytes of source. *)
let sized_source bytes =
  let b = Buffer.create bytes in
  Buffer.add_string b "int main() {\n  int s = 0;\n";
  let i = ref 0 in
  while Buffer.length b < bytes - 40 do
    Buffer.add_string b (Printf.sprintf "  s = s + %d;\n" (!i mod 7));
    incr i
  done;
  Buffer.add_string b "  print_int(s);\n  return 0;\n}\n";
  Buffer.contents b

(* A warm hit costs what finding its result costs: the key, the lookups
   and the reply.  A Source hit hashes its text but copies none of it, so
   a program eight times longer costs the same words. *)
let test_hit_allocation () =
  let e = Engine.create () in
  let small = sim ~s:(sized_source 512) () and large = sim ~s:(sized_source 4096) () in
  let reqs = [ ("cell", cell ()); ("0.5 KB source", small); ("4 KB source", large) ] in
  let hit_words (what, req) =
    for _ = 1 to 2 do
      match Engine.handle e req with
      | Proto.Err ds ->
        Alcotest.failf "%s: unexpected Err: %s" what
          (String.concat "; " (List.map Diag.render ds))
      | _ -> ()
    done;
    words_per_call (fun () -> Engine.handle e req)
  in
  match List.map hit_words reqs with
  | [ cell_w; small_w; large_w ] ->
    Printf.printf "hit words: cell %d, 0.5 KB source %d, 4 KB source %d\n" cell_w small_w
      large_w;
    Alcotest.(check bool) (Printf.sprintf "cell hit: %d words <= 200" cell_w) true (cell_w <= 200);
    Alcotest.(check bool)
      (Printf.sprintf "0.5 KB source hit: %d words <= 320" small_w)
      true (small_w <= 320);
    Alcotest.(check bool)
      (Printf.sprintf "4 KB source hit: %d words <= 0.5 KB's %d + 16" large_w small_w)
      true
      (large_w <= small_w + 16)
  | _ -> assert false

(* A reply is encoded into a writer that starts as a minor-heap block, so
   answering a request books nothing straight into the major heap (a
   4 KB starting buffer cost about 514 direct major words a message). *)
let test_reply_encoding_allocation () =
  let reply = Engine.handle (Engine.create ()) (cell ()) in
  (match reply with
  | Proto.Cell_done _ -> ()
  | _ -> Alcotest.fail "not a Cell_done response");
  let words = per_call direct_major_words (fun () -> Proto.encode_response reply) in
  Alcotest.(check bool)
    (Printf.sprintf "%.2f direct major words a Cell_done reply < 1" words)
    true (words < 1.)

(* --- the server's multi-job rounds --------------------------------------- *)

let src_loop n =
  Printf.sprintf
    "int main() { int i; int s = 0; for (i = 0; i < %d; i = i + 1) { s = s + (i ^ (s >> 3)); } print_int(s); return s & 255; }"
    n

(* Each round steps the next [min n workers] in-flight jobs, round-robin
   from a cursor, through [Engine.step_jobs], as the server loop does;
   returns each request's reply, in request order, and the rounds
   taken. *)
let run_rounds e reqs ~slice_ops =
  let replies = Array.make (List.length reqs) None in
  let jobs =
    List.mapi
      (fun i req ->
        match Engine.start e req with
        | Engine.Job j -> (i, j)
        | Engine.Done _ -> Alcotest.fail "a cold request must start a job")
      reqs
  in
  let rec go jobs cursor rounds =
    match jobs with
    | [] -> rounds
    | _ ->
      let n = List.length jobs in
      let k = min n (Engine.workers e) in
      let first = cursor mod n in
      let picked = List.filteri (fun i _ -> (i - first + n) mod n < k) jobs in
      let results = Engine.step_jobs e (List.map snd picked) ~slice_ops in
      List.iter2
        (fun (i, _) -> function `More -> () | `Done r -> replies.(i) <- Some r)
        picked results;
      go
        (List.filter (fun (i, _) -> Option.is_none replies.(i)) jobs)
        (cursor + k) (rounds + 1)
  in
  let rounds = go jobs 0 0 in
  (Array.to_list (Array.map Option.get replies), rounds)

(* Five distinct cold requests in flight at once — a Cell per ISA, a
   timing and a functional Simulate, and a runaway — stepped a thousand
   operations a slice, side by side on 1, 2 and 4 domains: each answers
   exactly what [handle] answers on a fresh engine, every key that
   finishes counts one miss and leaves a hit, and the runaway ends in the
   same Err and caches nothing. *)
let test_multi_job_rounds () =
  let timing = sim ~s:(src_loop 3000) () in
  let runaway =
    match sim ~s:(src_loop 100_000) () with
    | Proto.Simulate s -> Proto.Simulate { s with cfg = { s.cfg with Proto.budget = 20_000 } }
    | _ -> assert false
  in
  let reqs =
    [
      ("cell conv", cell ());
      ("cell block", cell ~isa:Proto.Block ());
      ("timing", timing);
      ("functional", sim ~s:(src_loop 3000) ~mode:Proto.Functional ~isa:Proto.Conv ());
      ("runaway", runaway);
    ]
  in
  let expected = List.map (fun (_, req) -> Engine.handle (Engine.create ()) req) reqs in
  (match List.rev expected with
  | Proto.Err (_ :: _) :: _ -> ()
  | _ -> Alcotest.fail "the runaway must answer Err");
  List.iter
    (fun workers ->
      with_pool workers @@ fun pool ->
      let e = Engine.create ~pool () in
      let replies, rounds = run_rounds e (List.map snd reqs) ~slice_ops:1_000 in
      let at what = Printf.sprintf "-j%d %s" workers what in
      Alcotest.(check bool) (at "takes many rounds") true (rounds > 10);
      List.iter2
        (fun ((what, _), want) got ->
          Alcotest.(check bool) (at (what ^ ": rounds == handle on a fresh engine")) true
            (got = want))
        (List.combine reqs expected) replies;
      let s = Engine.stats e in
      Alcotest.(check (pair int int)) (at "one miss per finished key, no hit") (4, 0)
        (s.Proto.sim_misses, s.Proto.sim_hits);
      Alcotest.(check int) (at "the runaway caches nothing") 4 s.Proto.results;
      List.iter2
        (fun (what, req) want ->
          match Engine.handle e req with
          | Proto.Err _ as r ->
            Alcotest.(check bool) (at (what ^ ": the same Err again")) true (r = want)
          | Proto.Sim { cached; _ } | Proto.Cell_done { cached; _ } ->
            Alcotest.(check bool) (at (what ^ ": leaves a hit")) true cached
          | _ -> Alcotest.fail "not a Sim, Cell_done or Err response")
        reqs expected;
      let s = Engine.stats e in
      Alcotest.(check (pair int int)) (at "then four hits") (4, 4)
        (s.Proto.sim_misses, s.Proto.sim_hits))
    [ 1; 2; 4 ]

let suite =
  [
    Alcotest.test_case "decode robustness" `Quick test_decode_robustness;
    Alcotest.test_case "round trip" `Quick test_round_trip;
    Alcotest.test_case "cache hit == cold == CLI bytes (j1,j4)" `Quick
      test_cache_hit_bytes;
    Alcotest.test_case "batch identical across worker counts" `Quick
      test_batch_identical;
    Alcotest.test_case "functional cache" `Quick test_functional_cache;
    Alcotest.test_case "no cache-key aliasing" `Quick test_no_key_aliasing;
    Alcotest.test_case "spool reload" `Quick test_spool_reload;
    Alcotest.test_case "eviction keeps spool" `Quick test_eviction;
    Alcotest.test_case "failed results are not cached" `Quick test_failures_not_cached;
    Alcotest.test_case "replies carry the canonical program hash" `Quick
      test_stored_hashes;
    Alcotest.test_case "sliced job == handle" `Quick test_sliced_job;
    Alcotest.test_case "multi-job rounds == handle (j1,j2,j4)" `Quick test_multi_job_rounds;
    Alcotest.test_case "structured errors" `Quick test_errors_are_structured;
    Alcotest.test_case "malformed source answers Err" `Quick test_malformed_source_err;
    Alcotest.test_case "out-of-range configs answer Err" `Quick test_config_rejected;
    Alcotest.test_case "rejections carry every verifier diagnostic" `Quick
      test_rejection_diagnostics;
    Alcotest.test_case "retry backoff schedule is deterministic" `Quick
      test_backoff_schedule;
    Alcotest.test_case "cache key and spool name pinned" `Quick test_key_pinned;
    Alcotest.test_case "cache hits allocate a bounded amount" `Quick test_hit_allocation;
    Alcotest.test_case "reply encoding stays off the major heap" `Quick
      test_reply_encoding_allocation;
    Alcotest.test_case "spool damage is counted and logged" `Quick
      test_spool_skip_surfaced;
    Alcotest.test_case "edited spool body is recomputed" `Quick test_spool_body_edit;
    Alcotest.test_case "spool entry key must name its file" `Quick
      test_spool_key_names_file;
    Alcotest.test_case "every spooled byte is checked" `Quick test_spool_every_byte;
    Alcotest.test_case "a .next-only spool entry reloads" `Quick test_spool_next_only;
  ]
