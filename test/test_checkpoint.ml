(* The crash-safety stack, bottom up: codec round-trips, mid-run
   session save/restore equivalence for both pipelines, snapshot header
   validation, the checkpoint driver's resume and deadline behavior, and
   the bounded-retention output sink that keeps paper-scale runs in
   bounded memory. *)

module Codec = Bisa_base.Codec
module Config = Bisa_timing.Config
module Checkpoint = Bisa_timing.Checkpoint
module Metrics = Bisa_timing.Metrics
module Pipeline = Bisa_timing.Pipeline
module Output = Bisa_sim.Output
module Compile = Bisa_sim.Compile

(* --- codec -------------------------------------------------------------- *)

let test_codec_roundtrip () =
  let w = Codec.W.create () in
  let ints = [ 0; 1; -1; 42; -9999; max_int; min_int ] in
  List.iter (Codec.W.int w) ints;
  Codec.W.i64 w Int64.min_int;
  Codec.W.i64 w Int64.max_int;
  Codec.W.i64 w 0xCBF29CE484222325L;
  Codec.W.bool w true;
  Codec.W.bool w false;
  Codec.W.float w 3.14159;
  Codec.W.float w (-0.0);
  Codec.W.string w "";
  Codec.W.string w "binary\x00\xff\ndata";
  Codec.W.int_array w [| 7; -7; max_int |];
  Codec.W.int_array w [||];
  Codec.W.float_array w [| 1.5; -2.25 |];
  Codec.W.option w Codec.W.int None;
  Codec.W.option w Codec.W.int (Some 123);
  let r = Codec.R.of_string (Codec.W.contents w) in
  List.iter
    (fun v -> Alcotest.(check int) "int" v (Codec.R.int r))
    ints;
  Alcotest.(check int64) "i64 min" Int64.min_int (Codec.R.i64 r);
  Alcotest.(check int64) "i64 max" Int64.max_int (Codec.R.i64 r);
  Alcotest.(check int64) "i64 basis" 0xCBF29CE484222325L (Codec.R.i64 r);
  Alcotest.(check bool) "true" true (Codec.R.bool r);
  Alcotest.(check bool) "false" false (Codec.R.bool r);
  Alcotest.(check (float 0.0)) "float" 3.14159 (Codec.R.float r);
  Alcotest.(check (float 0.0)) "neg zero" (-0.0) (Codec.R.float r);
  Alcotest.(check string) "empty string" "" (Codec.R.string r);
  Alcotest.(check string) "binary string" "binary\x00\xff\ndata" (Codec.R.string r);
  Alcotest.(check (array int)) "int array" [| 7; -7; max_int |] (Codec.R.int_array r);
  Alcotest.(check (array int)) "empty array" [||] (Codec.R.int_array r);
  Alcotest.(check (array (float 0.0))) "float array" [| 1.5; -2.25 |]
    (Codec.R.float_array r);
  Alcotest.(check (option int)) "none" None (Codec.R.option r Codec.R.int);
  Alcotest.(check (option int)) "some" (Some 123) (Codec.R.option r Codec.R.int);
  Alcotest.(check bool) "consumed exactly" true (Codec.R.at_end r)

let test_codec_section_mismatch () =
  let w = Codec.W.create () in
  Codec.W.section w "engine";
  Codec.W.int w 5;
  let r = Codec.R.of_string (Codec.W.contents w) in
  Codec.R.section r "engine";
  Alcotest.(check int) "payload follows section" 5 (Codec.R.int r);
  let r2 = Codec.R.of_string (Codec.W.contents w) in
  Alcotest.(check bool) "wrong section raises Diag.Fail" true
    (match Codec.R.section r2 "metrics" with
    | () -> false
    | exception Bisa_base.Diag.Fail _ -> true)

(* --- shared fixtures ---------------------------------------------------- *)

let src =
  {|
int buf[16];
int churn(int a, int b) {
  int r = a * 173 + b;
  if (r > 5000) { r = r % 4999; }
  return r ^ (b >> 1);
}
int main() {
  int i;
  int s = 3;
  for (i = 0; i < 400; i = i + 1) {
    buf[i & 15] = churn(i, s);
    s = s + buf[i & 15];
    if (s > 50000) { s = s - 49999; }
    if ((i & 31) == 0) { print_int(s); }
  }
  print_int(s);
  return s & 255;
}
|}

let compiled = lazy (Bisa_compiler.Compiler.compile src)

let metrics_bytes m =
  let w = Codec.W.create () in
  Metrics.save m w;
  Codec.W.contents w

let check_metrics what expected got =
  Alcotest.(check string) what (metrics_bytes expected) (metrics_bytes got)

(* Run [steps] steps, snapshot, restore into a fresh session, finish both
   the restored session and an untouched full run, and require identical
   metrics and program output. *)
let checkpoint_equivalence (type p) (module P : Pipeline.S with type prog = p) cfg
    (prog : p) ~steps =
  let art = P.prepare ~exec:Compile.Interp prog in
  let m_full, out_full = P.run_artifact cfg art in
  let s = P.session_artifact cfg art in
  let live = ref true in
  for _ = 1 to steps do
    if !live then live := P.step s
  done;
  Alcotest.(check bool)
    (P.isa ^ ": snapshot taken mid-run") true !live;
  let w = Codec.W.create () in
  P.save s w;
  let s2 = P.session_artifact cfg art in
  P.restore s2 (Codec.R.of_string (Codec.W.contents w));
  Alcotest.(check int) (P.isa ^ ": ops restored") (P.ops s) (P.ops s2);
  let m2, out2 = P.finish s2 in
  check_metrics (P.isa ^ ": restored metrics == uninterrupted") m_full m2;
  Alcotest.(check bool)
    (P.isa ^ ": restored output == uninterrupted")
    true
    (Output.equal out_full out2)

let test_conv_session_roundtrip () =
  let c = Lazy.force compiled in
  checkpoint_equivalence (module Pipeline.Conv) Config.default c.conv ~steps:40

let test_conv_session_roundtrip_tc () =
  (* The trace-cache front end carries extra inter-step state (fill
     buffers, table contents); it must survive a snapshot too. *)
  let c = Lazy.force compiled in
  let cfg =
    { Config.default with trace_cache = Some Bisa_uarch.Trace_cache.default_config }
  in
  checkpoint_equivalence (module Pipeline.Conv) cfg c.conv ~steps:60

let test_block_session_roundtrip () =
  let c = Lazy.force compiled in
  checkpoint_equivalence (module Pipeline.Block) Config.default c.block ~steps:40

let test_session_roundtrip_perfect () =
  let c = Lazy.force compiled in
  let cfg = Config.with_predictor Config.Perfect Config.default in
  checkpoint_equivalence (module Pipeline.Conv) cfg c.conv ~steps:25;
  checkpoint_equivalence (module Pipeline.Block) cfg c.block ~steps:25

(* --- compiled-backend checkpoints --------------------------------------- *)

(* The exec backend is deliberately absent from the snapshot identity:
   both backends mutate the same executor state, so a snapshot taken
   under one must resume under the other bit-for-bit.  Check every leg
   (interp->compiled, compiled->interp, compiled->compiled) against an
   uninterrupted interpreter run. *)
let cross_backend_equivalence (type p) (module P : Pipeline.S with type prog = p) cfg
    (prog : p) ~steps =
  let interp = P.prepare ~exec:Compile.Interp prog and compiled = P.prepare prog in
  let m_full, out_full = P.run_artifact cfg interp in
  let m_comp, out_comp = P.run_artifact cfg compiled in
  check_metrics (P.isa ^ ": uninterrupted compiled metrics == interp") m_full m_comp;
  Alcotest.(check bool)
    (P.isa ^ ": uninterrupted compiled output == interp")
    true
    (Output.equal out_full out_comp);
  let leg what ~save ~resume =
    let s = P.session_artifact cfg save in
    let live = ref true in
    for _ = 1 to steps do
      if !live then live := P.step s
    done;
    Alcotest.(check bool) (P.isa ^ ": " ^ what ^ " snapshot taken mid-run") true !live;
    let w = Codec.W.create () in
    P.save s w;
    let s2 = P.session_artifact cfg resume in
    P.restore s2 (Codec.R.of_string (Codec.W.contents w));
    let m2, out2 = P.finish s2 in
    check_metrics (P.isa ^ ": " ^ what ^ " metrics == uninterrupted") m_full m2;
    Alcotest.(check bool)
      (P.isa ^ ": " ^ what ^ " output == uninterrupted")
      true
      (Output.equal out_full out2)
  in
  leg "interp->compiled" ~save:interp ~resume:compiled;
  leg "compiled->interp" ~save:compiled ~resume:interp;
  leg "compiled->compiled" ~save:compiled ~resume:compiled

let test_cross_backend_roundtrip () =
  let c = Lazy.force compiled in
  cross_backend_equivalence (module Pipeline.Conv) Config.default c.conv ~steps:40;
  cross_backend_equivalence (module Pipeline.Block) Config.default c.block ~steps:40

(* Pre-scheduled timing templates are derived state: a session running on
   explicit tables + compiled code must snapshot byte-identically to a
   plain interpreting session at the same point (templates are absent
   from the snapshot identity), and a killed templated run must resume
   into a fresh session — tables rebuilt, not restored — and finish with
   the uninterrupted run's exact metrics and output. *)
let template_checkpoint_equivalence (type p) (module P : Pipeline.S with type prog = p)
    cfg (prog : p) ~steps =
  let templated = P.prepare prog in
  let m_full, out_full = P.run_artifact cfg templated in
  let s_plain = P.session_artifact cfg (P.prepare ~exec:Compile.Interp prog) in
  let s_tab = P.session_artifact cfg templated in
  let live = ref true in
  for _ = 1 to steps do
    if !live then begin
      let a = P.step s_plain in
      let b = P.step s_tab in
      Alcotest.(check bool) (P.isa ^ ": backends stay in lockstep") a b;
      live := b
    end
  done;
  Alcotest.(check bool) (P.isa ^ ": killed mid-run") true !live;
  let bytes s =
    let w = Codec.W.create () in
    P.save s w;
    Codec.W.contents w
  in
  Alcotest.(check string)
    (P.isa ^ ": templated snapshot == plain snapshot")
    (bytes s_plain) (bytes s_tab);
  let s2 = P.session_artifact cfg (P.prepare prog) in
  P.restore s2 (Codec.R.of_string (bytes s_tab));
  let m2, out2 = P.finish s2 in
  check_metrics (P.isa ^ ": resumed metrics == uninterrupted") m_full m2;
  Alcotest.(check bool)
    (P.isa ^ ": resumed output == uninterrupted")
    true
    (Output.equal out_full out2)

let test_template_checkpoint () =
  let c = Lazy.force compiled in
  template_checkpoint_equivalence (module Pipeline.Conv) Config.default c.conv
    ~steps:60;
  template_checkpoint_equivalence (module Pipeline.Block) Config.default c.block
    ~steps:60

let test_cross_backend_roundtrip_tc () =
  (* Same legs with the trace-cache front end live: its fill buffers and
     table contents must survive the backend switch too. *)
  let c = Lazy.force compiled in
  let cfg =
    { Config.default with trace_cache = Some Bisa_uarch.Trace_cache.default_config }
  in
  cross_backend_equivalence (module Pipeline.Conv) cfg c.conv ~steps:60

(* --- snapshot files ----------------------------------------------------- *)

let tmp_path () =
  let f = Filename.temp_file "bisa_ckpt" ".snap" in
  Sys.remove f;
  f

let test_snapshot_header_validation () =
  let path = tmp_path () in
  Alcotest.(check bool) "missing file is None" true
    (Checkpoint.load ~path ~isa:"conv" ~prog_hash:1L ~cfg_hash:2L = None);
  Checkpoint.save ~path ~isa:"conv" ~prog_hash:1L ~cfg_hash:2L ~ops:777 (fun w ->
      Codec.W.int w 99);
  (match Checkpoint.load ~path ~isa:"conv" ~prog_hash:1L ~cfg_hash:2L with
  | Some (ops, r) ->
    Alcotest.(check int) "ops from header" 777 ops;
    Alcotest.(check int) "payload readable" 99 (Codec.R.int r)
  | None -> Alcotest.fail "valid snapshot must load");
  let rejects what f =
    Alcotest.(check bool) what true
      (match f () with
      | (_ : (int * Codec.R.t) option) -> false
      | exception Bisa_base.Diag.Fail _ -> true)
  in
  rejects "wrong program hash" (fun () ->
      Checkpoint.load ~path ~isa:"conv" ~prog_hash:3L ~cfg_hash:2L);
  rejects "wrong config hash" (fun () ->
      Checkpoint.load ~path ~isa:"conv" ~prog_hash:1L ~cfg_hash:9L);
  rejects "wrong isa" (fun () ->
      Checkpoint.load ~path ~isa:"block" ~prog_hash:1L ~cfg_hash:2L);
  Bisa_base.Atomic_file.write_string path "not a snapshot at all";
  rejects "garbage file" (fun () ->
      Checkpoint.load ~path ~isa:"conv" ~prog_hash:1L ~cfg_hash:2L);
  Sys.remove path

(* Into a new file, not over the old one: ext4 flushes a file truncated
   and rewritten in place when it closes, tens of ms a write. *)
let write_fresh path s =
  if Sys.file_exists path then Sys.remove path;
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

(* A genuine mid-run snapshot with one byte changed is rejected with a
   located diagnostic that names the file: every header byte, both ways,
   and 200 bytes spread over the body. *)
let test_snapshot_damage_rejected () =
  let c = Lazy.force compiled in
  let cfg = Config.default in
  let s = Pipeline.Conv.session_artifact cfg (Pipeline.Conv.prepare ~exec:Compile.Interp c.conv) in
  for _ = 1 to 50 do
    ignore (Pipeline.Conv.step s : bool)
  done;
  let path = tmp_path () in
  let prog_hash = Pipeline.Conv.prog_hash c.conv and cfg_hash = Config.fingerprint cfg in
  Checkpoint.save ~path ~isa:Pipeline.Conv.isa ~prog_hash ~cfg_hash
    ~ops:(Pipeline.Conv.ops s) (Pipeline.Conv.save s);
  let good = Bisa_base.Fs.read_file path in
  let n = String.length good in
  let header = List.concat_map (fun i -> [ (i, 0x01); (i, 0x80) ]) (List.init 64 Fun.id) in
  let body = List.init 200 (fun k -> (64 + (k * (n - 65) / 199), if k land 1 = 0 then 0x01 else 0x80)) in
  List.iter
    (fun (i, mask) ->
      let b = Bytes.of_string good in
      Bytes.set b i (Char.chr (Char.code good.[i] lxor mask));
      write_fresh path (Bytes.to_string b);
      match Checkpoint.load ~path ~isa:Pipeline.Conv.isa ~prog_hash ~cfg_hash with
      | _ -> Alcotest.failf "byte %d of %d xor 0x%02x: loaded" i n mask
      | exception Bisa_base.Diag.Fail ({ loc = Bisa_base.Diag.Byte _; _ } as d)
        when String.starts_with ~prefix:(path ^ ": ") d.message ->
        ()
      | exception Bisa_base.Diag.Fail d ->
        Alcotest.failf "byte %d xor 0x%02x: not located at the file: %s" i mask
          (Bisa_base.Diag.render d))
    (header @ body);
  Sys.remove path

let test_drive_resume () =
  let c = Lazy.force compiled in
  let cfg = Config.default in
  let interp = Pipeline.Conv.prepare ~exec:Compile.Interp c.conv in
  let m_full, _ = Pipeline.Conv.run_artifact cfg interp in
  let path = tmp_path () in
  (* Plant a genuine mid-run snapshot, as a killed run would leave. *)
  let s = Pipeline.Conv.session_artifact cfg interp in
  for _ = 1 to 50 do
    ignore (Pipeline.Conv.step s : bool)
  done;
  Checkpoint.save ~path ~isa:Pipeline.Conv.isa
    ~prog_hash:(Pipeline.Conv.prog_hash c.conv)
    ~cfg_hash:(Config.fingerprint cfg)
    ~ops:(Pipeline.Conv.ops s)
    (fun w -> Pipeline.Conv.save s w);
  (* Resuming must complete from there and erase the snapshot. *)
  (match
     Checkpoint.drive (module Pipeline.Conv) ~snapshot:(path, 1_000) cfg
       (Pipeline.Conv.prepare c.conv)
   with
  | Checkpoint.Finished (m, _) ->
    check_metrics "driven resume == uninterrupted" m_full m
  | Checkpoint.Timed_out _ -> Alcotest.fail "no deadline was set");
  Alcotest.(check bool) "snapshot deleted after finish" false (Sys.file_exists path)

let test_drive_deadline () =
  let c = Lazy.force compiled in
  let cfg = Config.default in
  let m_full, _ =
    Pipeline.Block.run_artifact cfg (Pipeline.Block.prepare ~exec:Compile.Interp c.block)
  in
  let path = tmp_path () in
  (* A deadline that fires almost immediately: the driver must stop,
     persist a final snapshot, and report the ops completed. *)
  let art = Pipeline.Block.prepare c.block in
  let polls = ref 0 in
  let deadline () =
    incr polls;
    !polls > 10
  in
  (match
     Checkpoint.drive (module Pipeline.Block) ~snapshot:(path, 1_000_000) ~deadline
       cfg art
   with
  | Checkpoint.Timed_out { ops } ->
    Alcotest.(check bool) "made some progress" true (ops >= 0);
    Alcotest.(check bool) "snapshot kept on timeout" true (Sys.file_exists path)
  | Checkpoint.Finished _ -> Alcotest.fail "deadline must fire first");
  (* The rerun without a deadline resumes the snapshot and finishes. *)
  (match Checkpoint.drive (module Pipeline.Block) ~snapshot:(path, 1_000_000) cfg art with
  | Checkpoint.Finished (m, _) ->
    check_metrics "resume after timeout == uninterrupted" m_full m
  | Checkpoint.Timed_out _ -> Alcotest.fail "no deadline on the rerun");
  Alcotest.(check bool) "snapshot deleted after finish" false (Sys.file_exists path)

(* --- crash-and-resume under the compiled backend ------------------------ *)

exception Killed

let with_crash_at n f =
  let count = ref 0 in
  Bisa_base.Atomic_file.crash_after_write_hook :=
    Some
      (fun () ->
        incr count;
        if !count = n then raise Killed);
  Fun.protect
    ~finally:(fun () -> Bisa_base.Atomic_file.crash_after_write_hook := None)
    f

(* Kill a driven run inside its second snapshot write.  The hook fires
   between the temp-file write and the rename, so the second snapshot
   never lands and the first complete one is what a real mid-write kill
   would leave.  Resume from it — possibly under the other backend — and
   require byte-identical metrics and output. *)
let drive_crash_equivalence (type p a)
    (module P : Pipeline.S with type prog = p and type artifact = a) cfg (prog : p) ~crash
    ~resume what =
  let m_full, out_full = P.run_artifact cfg (P.prepare ~exec:Compile.Interp prog) in
  (* The two legs may deliberately carry different backends: one artifact
     per leg (the snapshot is backend-blind). *)
  let crash_art = P.prepare ~exec:crash prog and resume_art = P.prepare ~exec:resume prog in
  let path = tmp_path () in
  (match
     with_crash_at 2 (fun () ->
         Checkpoint.drive (module P) ~snapshot:(path, 400) cfg crash_art)
   with
  | (_ : _ Checkpoint.outcome) -> Alcotest.fail (what ^ ": crash hook must fire")
  | exception Killed -> ());
  Alcotest.(check bool) (what ^ ": mid-run snapshot left behind") true
    (Sys.file_exists path);
  (match Checkpoint.drive (module P) ~snapshot:(path, 400) cfg resume_art with
  | Checkpoint.Finished (m, out) ->
    check_metrics (what ^ ": resumed metrics == uninterrupted") m_full m;
    Alcotest.(check bool)
      (what ^ ": resumed output == uninterrupted")
      true
      (Output.equal out_full out)
  | Checkpoint.Timed_out _ -> Alcotest.fail (what ^ ": no deadline was set"));
  Alcotest.(check bool) (what ^ ": snapshot deleted after finish") false
    (Sys.file_exists path)

let test_drive_crash_compiled () =
  let c = Lazy.force compiled in
  drive_crash_equivalence (module Pipeline.Conv) Config.default c.conv
    ~crash:Compile.Compiled ~resume:Compile.Compiled "conv compiled crash+resume";
  drive_crash_equivalence (module Pipeline.Block) Config.default c.block
    ~crash:Compile.Compiled ~resume:Compile.Compiled "block compiled crash+resume"

let test_drive_crash_cross_backend () =
  let c = Lazy.force compiled in
  drive_crash_equivalence (module Pipeline.Conv) Config.default c.conv
    ~crash:Compile.Interp ~resume:Compile.Compiled "interp crash, compiled resume";
  drive_crash_equivalence (module Pipeline.Conv) Config.default c.conv
    ~crash:Compile.Compiled ~resume:Compile.Interp "compiled crash, interp resume"

(* Kill a driven run at each step of its second snapshot write: the
   temp file complete, its [.next] copy published, the first snapshot
   removed.  The files left must hold the newest published snapshot (the
   first before [.next] appears, the second after), and resuming from
   them must give the uninterrupted run's metrics and output and leave
   no snapshot behind. *)
let drive_killed_at_each_step (type p a)
    (module P : Pipeline.S with type prog = p and type artifact = a) cfg (prog : p) =
  let m_full, out_full = P.run_artifact cfg (P.prepare ~exec:Compile.Interp prog) in
  let art = P.prepare prog in
  let prog_hash = P.prog_hash prog and cfg_hash = Config.fingerprint cfg in
  let files path = (Sys.file_exists path, Sys.file_exists (path ^ ".next")) in
  List.iter
    (fun (point, left, newest) ->
      let what = P.isa ^ ": killed at " ^ point in
      let path = tmp_path () in
      let passes = ref 0 in
      let pass p =
        if p = point then begin
          incr passes;
          if !passes = 2 then raise Killed
        end
      in
      Bisa_base.Atomic_file.crash_after_write_hook := Some (fun () -> pass "written");
      Codec.publish_hook :=
        Some (function Codec.Published -> pass "published" | Codec.Removed -> pass "removed");
      (match
         Fun.protect
           ~finally:(fun () ->
             Bisa_base.Atomic_file.crash_after_write_hook := None;
             Codec.publish_hook := None)
           (fun () -> Checkpoint.drive (module P) ~snapshot:(path, 400) cfg art)
       with
      | (_ : _ Checkpoint.outcome) -> Alcotest.fail (what ^ ": the kill must fire")
      | exception Killed -> ());
      Alcotest.(check (pair bool bool)) (what ^ ": files left") left (files path);
      (match Checkpoint.load ~path ~isa:P.isa ~prog_hash ~cfg_hash with
      | Some (ops, _) ->
        Alcotest.(check int) (what ^ ": newest snapshot found") newest (ops / 400)
      | None -> Alcotest.fail (what ^ ": no snapshot found"));
      (match Checkpoint.drive (module P) ~snapshot:(path, 400) cfg art with
      | Checkpoint.Finished (m, out) ->
        check_metrics (what ^ ": resumed metrics == uninterrupted") m_full m;
        Alcotest.(check bool) (what ^ ": resumed output == uninterrupted") true
          (Output.equal out_full out)
      | Checkpoint.Timed_out _ -> Alcotest.fail (what ^ ": no deadline was set"));
      Alcotest.(check (pair bool bool)) (what ^ ": no snapshot after finish") (false, false)
        (files path))
    (* The step, the ([PATH], [PATH.next]) it leaves, and which snapshot
       (the first or the second) that is. *)
    [ ("written", (true, false), 1); ("published", (true, true), 2); ("removed", (false, true), 2) ]

let test_drive_killed_at_each_step () =
  let c = Lazy.force compiled in
  drive_killed_at_each_step (module Pipeline.Conv) Config.default c.conv;
  drive_killed_at_each_step (module Pipeline.Block) Config.default c.block

(* --- streamed output ---------------------------------------------------- *)

let test_sink_bounded_retention () =
  let capped = Output.Sink.create () in
  Output.Sink.set_cap capped 8;
  let full = Output.Sink.create () in
  for i = 1 to 1000 do
    Output.Sink.push capped (Output.Oint i);
    Output.Sink.push full (Output.Oint i)
  done;
  Alcotest.(check int) "count stays exact" 1000 (Output.Sink.count capped);
  Alcotest.(check bool) "marked truncated" true (Output.Sink.truncated capped);
  Alcotest.(check bool) "full sink not truncated" false (Output.Sink.truncated full);
  Alcotest.(check int) "retention bounded" 8 (List.length (Output.Sink.items capped));
  let expected = List.init 8 (fun i -> Output.Oint (i + 1)) in
  Alcotest.(check bool) "prefix kept" true (Output.Sink.items capped = expected);
  Alcotest.(check int64)
    "rolling hash independent of cap"
    (Output.Sink.hash full) (Output.Sink.hash capped)

let test_session_out_cap () =
  (* Retention after a capped paper-style run is the cap, not the output
     length — the invariant that keeps RSS independent of op count. *)
  let c = Lazy.force compiled in
  let art = Pipeline.Conv.prepare ~exec:Compile.Interp c.conv in
  let s = Pipeline.Conv.session_artifact Config.default art in
  Pipeline.Conv.set_out_cap s 4;
  let _, out = Pipeline.Conv.finish s in
  let _, out_full = Pipeline.Conv.run_artifact Config.default art in
  Alcotest.(check int) "retained items = cap" 4 (List.length out.Output.items);
  Alcotest.(check bool) "uncapped run keeps more" true
    (List.length out_full.Output.items > 4);
  Alcotest.(check bool) "capped prefix matches uncapped prefix" true
    (out.Output.items = List.filteri (fun i _ -> i < 4) out_full.Output.items);
  Alcotest.(check int) "exit value unchanged" out_full.Output.ret out.Output.ret

let suite =
  [
    Alcotest.test_case "codec roundtrip" `Quick test_codec_roundtrip;
    Alcotest.test_case "codec section mismatch" `Quick test_codec_section_mismatch;
    Alcotest.test_case "conv session roundtrip" `Quick test_conv_session_roundtrip;
    Alcotest.test_case "conv session roundtrip (trace cache)" `Quick
      test_conv_session_roundtrip_tc;
    Alcotest.test_case "block session roundtrip" `Quick test_block_session_roundtrip;
    Alcotest.test_case "session roundtrip (perfect pred)" `Quick
      test_session_roundtrip_perfect;
    Alcotest.test_case "cross-backend session roundtrip" `Quick
      test_cross_backend_roundtrip;
    Alcotest.test_case "template checkpoint identity" `Quick
      test_template_checkpoint;
    Alcotest.test_case "cross-backend session roundtrip (trace cache)" `Quick
      test_cross_backend_roundtrip_tc;
    Alcotest.test_case "snapshot header validation" `Quick
      test_snapshot_header_validation;
    Alcotest.test_case "drive resume" `Quick test_drive_resume;
    Alcotest.test_case "drive deadline" `Quick test_drive_deadline;
    Alcotest.test_case "damaged snapshot rejected at a byte" `Quick
      test_snapshot_damage_rejected;
    Alcotest.test_case "drive crash+resume (compiled)" `Quick
      test_drive_crash_compiled;
    Alcotest.test_case "drive crash+resume (cross-backend)" `Quick
      test_drive_crash_cross_backend;
    Alcotest.test_case "drive killed at each write step" `Quick
      test_drive_killed_at_each_step;
    Alcotest.test_case "sink bounded retention" `Quick test_sink_bounded_retention;
    Alcotest.test_case "session out cap" `Quick test_session_out_cap;
  ]
