(* Robustness driver: differential program fuzzing, decoder mutation
   fuzzing, and fault-injection campaigns, from one fixed seed.  Exits
   nonzero with a one-line (plus counterexample) diagnostic on the first
   finding — the `check` dune alias runs this as a smoke test. *)

module Oracle = Bisa_check.Oracle
module Decode_fuzz = Bisa_check.Decode_fuzz
module Faults = Bisa_check.Faults

type mode = All | Diff | OracleExec | Decode | Inject | Verify | Crash | Proto | Chaos

(* A fixed program with calls, loops, arrays and traps for the decode and
   injection campaigns (the differential campaign generates its own). *)
let sample_src =
  {|
int g0;
int a0[16];
float facc;
int f0(int p0, int p1) {
  int x = p0 * 311 + p1;
  if (x > 100) { x = x % 97; }
  return x ^ (p1 >> 2);
}
int main() {
  int i;
  int s = 0;
  for (i = 0; i < 50; i = i + 1) {
    a0[i & 15] = f0(i, s);
    s = s + a0[i & 15];
    if (s > 400) { s = s - 317; }
    facc = facc * 0.5 + itof(s & 255);
  }
  print_int(s);
  print_float(facc);
  return s & 255;
}
|}

let sample () = Bisa_compiler.Compiler.compile sample_src

let diff ~pool ~seed ~count =
  let r = Oracle.fuzz ~seed ~count ~pool () in
  match r.failure with
  | None ->
    Printf.printf "differential: %d programs agreed across all engines (%d skipped)\n"
      r.tested r.skipped;
    List.iter (fun (reason, n) -> Printf.printf "  skipped %dx: %s\n" n reason) r.skip_reasons;
    Ok ()
  | Some f ->
    Error
      (Printf.sprintf
         "differential fuzzing found a divergence (shrunk in %d candidate runs):\n\
          %s\n\
          --- minimal failing program ---\n\
          %s" f.shrink_evals f.reason f.source)

(* The eight-way campaign: the four interpreter-backed engines plus the
   four threaded-code legs (standalone and under both timing pipelines).
   A finding is shrunk as usual, then sharpened: the shrunk program is
   replayed in lockstep to pin the first divergent fetch-unit index. *)
let oracle ~pool ~seed ~count =
  let r = Oracle.fuzz ~seed ~count ~engines:(Oracle.compiled_engines ()) ~pool () in
  match r.failure with
  | None ->
    Printf.printf
      "oracle: %d programs agreed across all %d engines (%d skipped)\n" r.tested
      (List.length (Oracle.compiled_engines ()))
      r.skipped;
    List.iter (fun (reason, n) -> Printf.printf "  skipped %dx: %s\n" n reason) r.skip_reasons;
    Ok ()
  | Some f ->
    let pinpoint =
      match Bisa_compiler.Compiler.compile f.source with
      | exception _ -> ""
      | c -> begin
        match Oracle.first_divergence c with
        | Some m -> "\nfirst divergent step: " ^ m
        | None -> ""
      end
    in
    Error
      (Printf.sprintf
         "exec-backend oracle found a divergence (shrunk in %d candidate runs):\n\
          %s%s\n\
          --- minimal failing program ---\n\
          %s" f.shrink_evals f.reason pinpoint f.source)

(* An image campaign over the sample's conv image at [seed] and its
   block image at [seed + 1]; both must pass before either prints. *)
let on_images what campaign ~seed =
  let c = sample () in
  let conv_img = Bisa_isa.Encode.conv_to_bytes c.conv in
  let block_img = Bisa_isa.Encode.block_to_bytes c.block in
  match campaign Decode_fuzz.Conv ~seed conv_img with
  | Error e -> Error (Printf.sprintf "%s (conv): %s" what e)
  | Ok rc -> begin
    match campaign Decode_fuzz.Block ~seed:(seed + 1) block_img with
    | Error e -> Error (Printf.sprintf "%s (block): %s" what e)
    | Ok rb -> Ok (rc, rb)
  end

let decode ~pool ~seed ~count =
  on_images "decode fuzzing" (Decode_fuzz.run ~pool ~count) ~seed
  |> Result.map (fun ((rc : Decode_fuzz.report), (rb : Decode_fuzz.report)) ->
         Printf.printf
           "decode: %d conv mutants (%d decoded, %d rejected cleanly), %d block mutants \
            (%d decoded, %d rejected cleanly)\n"
           rc.mutants rc.decoded rc.rejected rb.mutants rb.decoded rb.rejected)

(* The decode→verify→simulate trichotomy over mutated binaries of both
   formats, seeded the way `decode` is. *)
let verify ~pool ~seed ~count =
  let show what (r : Decode_fuzz.trichotomy_report) =
    Printf.printf
      "verify (%s): %d mutants — %d decode-rejected, %d verify-rejected, %d \
       simulated (%d machine-trapped), %d budget-stopped\n"
      what r.t_mutants r.t_rejected_decode r.t_rejected_verify r.t_completed
      r.t_trapped r.t_budgeted
  in
  on_images "verify trichotomy"
    (fun fmt ~seed img -> Decode_fuzz.trichotomy ~pool fmt ~seed ~count img)
    ~seed
  |> Result.map (fun (rc, rb) ->
         show "conv" rc;
         show "block" rb)

(* The daemon's wire codec under the same mutation pressure as the binary
   decoders: truncated or corrupted frames must yield located "proto"
   diagnostics, never a crash or a stuck framing loop. *)
let proto ~pool ~seed ~count =
  match Bisa_check.Proto_fuzz.run ~pool ~seed ~count () with
  | Error e -> Error ("proto fuzzing: " ^ e)
  | Ok r ->
    Printf.printf "proto: %d frame mutants (%d decoded, %d rejected cleanly)\n"
      r.mutants r.decoded r.rejected;
    Ok ()

let inject ~pool ~seed =
  let c = sample () in
  match Faults.campaign ~seeds:[ seed; seed + 1; seed + 2 ] ~pool c with
  | Error e -> Error ("fault injection: " ^ e)
  | Ok r ->
    Printf.printf
      "inject: %d runs survived %d injections (functional results unchanged, +%d \
       mispredicts)\n"
      r.runs r.injections r.extra_mispredicts;
    Ok ()

let crash ~seed =
  match Bisa_check.Crashes.campaign ~seed () with
  | Error e -> Error ("crash recovery: " ^ e)
  | Ok r ->
    Printf.printf
      "crash: %d-cell grid survived %d in-process crashes and %d SIGKILLs (%d \
       mid-flight); every resumed report was byte-identical\n"
      r.cells r.hook_crashes r.kill_trials r.kills_mid_flight;
    Ok ()

(* Total requests derives from --count so the default runs the full
   profile (>= 1000 requests, >= 5 crashes) and the smoke alias can pass
   a small count to get the quick one (one SIGKILL, one truncated-frame
   adversary, one spool corruption, under 30s). *)
let chaos ~seed ~count =
  match Bisa_check.Chaos.campaign ~seed ~requests:(5 * count) () with
  | Error e -> Error ("chaos: " ^ e)
  | Ok (r : Bisa_check.Chaos.report) ->
    Printf.printf
      "chaos: %d requests from %d clients converged byte-identically through %d \
       crashes (%d restarts, %d health kills), %d adversary connections and %d \
       spool corruptions; %d retries, final RSS %d KB\n"
      r.requests r.clients r.crashes r.restarts r.health_kills r.adversaries
      r.corruptions r.retries r.rss_kb;
    Ok ()

let run mode seed count jobs =
 Bisa_cli.Driver.guard ~component:"bisafuzz" @@ fun () ->
  Bisa_base.Pool.run ~workers:jobs @@ fun pool ->
  let steps =
    match mode with
    | All ->
      [
        (fun () -> diff ~pool ~seed ~count);
        (fun () -> decode ~pool ~seed ~count:(5 * count));
        (fun () -> verify ~pool ~seed ~count:(5 * count));
        (fun () -> proto ~pool ~seed ~count:(5 * count));
        (fun () -> inject ~pool ~seed);
      ]
    | Diff -> [ (fun () -> diff ~pool ~seed ~count) ]
    | OracleExec -> [ (fun () -> oracle ~pool ~seed ~count) ]
    | Decode -> [ (fun () -> decode ~pool ~seed ~count) ]
    | Proto -> [ (fun () -> proto ~pool ~seed ~count) ]
    | Verify -> [ (fun () -> verify ~pool ~seed ~count) ]
    | Inject -> [ (fun () -> inject ~pool ~seed) ]
    (* Not part of All: these fork legs must run without live pool
       domains, so each has its own alias pinned to -j 1 (see bin/dune). *)
    | Crash -> [ (fun () -> crash ~seed) ]
    | Chaos -> [ (fun () -> chaos ~seed ~count) ]
  in
  let rec go = function
    | [] -> `Ok ()
    | step :: rest -> begin
      match step () with Ok () -> go rest | Error msg -> `Error (false, msg)
    end
  in
  go steps

let () =
  let open Cmdliner in
  let mode =
    Arg.(
      value
      & opt
          (enum
             [
               ("all", All); ("diff", Diff); ("oracle", OracleExec);
               ("decode", Decode); ("verify", Verify); ("proto", Proto);
               ("inject", Inject); ("crash", Crash); ("chaos", Chaos);
             ])
          All
      & info [ "mode" ]
          ~doc:"Campaign: diff (differential programs), oracle (diff plus the \
                compiled-executor legs, eight engines per program), decode \
                (binary mutation), verify (decode/verify/simulate trichotomy), \
                proto (bisad wire-protocol frame mutation), inject (front-end \
                faults), crash (kill-and-resume recovery; run with -j 1), chaos \
                (a supervised bisad under kill signals, malformed frames and \
                spool corruption; run with -j 1, count scales the request \
                fleet), or all (everything except oracle, crash and chaos).")
  in
  let count =
    Arg.(
      value & opt int 200
      & info [ "count" ] ~doc:"Programs per differential campaign (decode runs 5x).")
  in
  let term =
    Term.(ret (const run $ mode $ Bisa_cli.Args.seed ~default:42 $ count $ Bisa_cli.Args.jobs))
  in
  let info =
    Cmd.info "bisafuzz" ~doc:"Differential fuzzing and fault injection for the BSA toolchain"
  in
  exit (Cmd.eval (Cmd.v info term))
