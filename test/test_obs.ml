(* Observability layer: registry semantics, the null probe's identity
   contract, the Chrome-trace exporter's validated output, and — the
   load-bearing property — that probe event counts reconcile exactly
   with the aggregate Metrics of the same run, for both pipelines. *)

module Config = Bisa_timing.Config
module Metrics = Bisa_timing.Metrics
module Pipeline = Bisa_timing.Pipeline
module Probe = Bisa_obs.Probe
module Registry = Bisa_obs.Registry
module Span = Bisa_obs.Span
module Trace = Bisa_obs.Trace

(* Small but branchy: loops, calls, a trap-prone array walk — enough to
   exercise predictions, redirects, and (on the block core) squashes. *)
let source =
  {|
int data[64];
int sum(int n) {
  int i; int s = 0;
  for (i = 0; i < n; i = i + 1) { s = s + data[i]; }
  return s;
}
int main() {
  int i; int acc = 0;
  for (i = 0; i < 64; i = i + 1) { data[i] = (i * 37) & 63; }
  for (i = 0; i < 40; i = i + 1) {
    if (data[i] > 31) { acc = acc + sum(i & 15); }
    else { acc = acc - data[i]; }
  }
  print_int(acc);
  return 0;
}
|}

let compiled = lazy (Bisa_compiler.Compiler.compile source)

let conv_cfg =
  { Config.default with trace_cache = Some Bisa_uarch.Trace_cache.default_config }

(* The sample prepared for one pipeline and run under [cfg]. *)
type run = ?probe:Probe.t -> Config.t -> Metrics.t

let conv : run =
 fun ?probe cfg ->
  fst
    (Pipeline.Conv.run_artifact ?probe cfg
       (Pipeline.Conv.prepare (Lazy.force compiled).conv))

let block : run =
 fun ?probe cfg ->
  fst
    (Pipeline.Block.run_artifact ?probe cfg
       (Pipeline.Block.prepare (Lazy.force compiled).block))

let run_traced ?sample ?max_events (run : run) cfg =
  let r = Trace.recorder ?sample ?max_events () in
  (r, run ~probe:(Trace.probe r) cfg)

(* --- registry --- *)

let test_registry () =
  let reg = Registry.create () in
  let a = Registry.counter reg "alpha" in
  let b = Registry.counter reg "beta" in
  Registry.incr a;
  Registry.add a 10;
  Registry.set b 7;
  Alcotest.(check int) "value" 11 (Registry.value a);
  (* interning returns the same cell, not a fresh zero *)
  Registry.incr (Registry.counter reg "alpha");
  Alcotest.(check int) "reinterned" 12 (Registry.value a);
  Alcotest.(check (option int)) "find" (Some 7) (Registry.find reg "beta");
  Alcotest.(check (option int)) "find missing" None (Registry.find reg "gamma");
  Alcotest.(check (list (pair string int)))
    "counters sorted" [ ("alpha", 12); ("beta", 7) ] (Registry.counters reg);
  let h = Registry.histogram reg "sizes" in
  Bisa_base.Stats.Histogram.add h 3;
  let h' = Registry.histogram reg "sizes" in
  Bisa_base.Stats.Histogram.add h' 3;
  Alcotest.(check int) "histogram interned" 2 (Bisa_base.Stats.Histogram.total h)

(* --- null probe --- *)

let test_null_probe () =
  Alcotest.(check bool) "null is null" true (Probe.is_null Probe.null);
  Alcotest.(check bool) "of_option None" true (Probe.is_null (Probe.of_option None));
  let r = Trace.recorder () in
  let p = Trace.probe r in
  Alcotest.(check bool) "recorder probe is live" false (Probe.is_null p);
  Alcotest.(check bool) "of_option Some" false (Probe.is_null (Probe.of_option (Some p)))

(* --- metrics invariance: observing a run must not change it --- *)

let fingerprint (m : Metrics.t) =
  Printf.sprintf "%d/%d/%d/%d/%d/%d/%d/%d/%d/%d/%d/%d/%d/%d" m.cycles m.retired_ops
    m.retired_blocks m.fetch_units m.squashed_blocks m.squashed_ops m.mispredicts
    m.fault_squash_redirects m.icache_accesses m.icache_misses m.dcache_accesses
    m.dcache_misses m.tc_hits m.tc_served_ops

let test_probe_invariance () =
  List.iter
    (fun (name, (run : run), cfg) ->
      let bare = run cfg in
      let _, traced = run_traced run cfg in
      Alcotest.(check string) name (fingerprint bare) (fingerprint traced))
    [
      ("conv", conv, conv_cfg);
      ("block", block, Config.default);
    ]

(* --- reconciliation: event counts == aggregate metrics, by name --- *)

(* Counter names shared between the probe recorder and Metrics.to_registry;
   every one must agree exactly (sampling thins only the export stream). *)
let shared_counters =
  [
    "fetch_units"; "retired_blocks"; "retired_ops"; "squashed_blocks";
    "squashed_ops"; "mispredicts"; "fault_squash_redirects"; "icache_accesses";
    "icache_misses"; "dcache_accesses"; "dcache_misses"; "tc_hits";
    "tc_served_ops";
  ]

let check_reconciles name (r : Trace.t) (m : Metrics.t) =
  let mreg = Registry.create () in
  Metrics.to_registry m mreg;
  List.iter
    (fun c ->
      let probe_v = Option.value ~default:(-1) (Registry.find (Trace.registry r) c) in
      let metric_v = Option.value ~default:(-2) (Registry.find mreg c) in
      Alcotest.(check int) (name ^ "/" ^ c) metric_v probe_v)
    shared_counters

let test_reconciliation () =
  let r, m = run_traced conv conv_cfg in
  check_reconciles "conv" r m;
  (* trace-cache activity must actually be observed on this config *)
  Alcotest.(check bool) "conv sees tc lookups" true
    (Option.value ~default:0 (Registry.find (Trace.registry r) "tc_lookups") > 0);
  let r, m = run_traced block Config.default in
  check_reconciles "block" r m;
  Alcotest.(check bool) "block sees btb lookups" true
    (Option.value ~default:0 (Registry.find (Trace.registry r) "btb_lookups") > 0)

(* --- the exporter's golden contract, checked on real output --- *)

let test_chrome_trace_valid () =
  List.iter
    (fun (name, run, cfg) ->
      let r, m = run_traced run cfg in
      match Trace.validate (Trace.to_chrome_json ~process_name:"test" r) with
      | Error e -> Alcotest.failf "%s: invalid trace: %s" name e
      | Ok st ->
        Alcotest.(check int) (name ^ " matched B/E") st.begins st.ends;
        Alcotest.(check int) (name ^ " one span per fetch unit") m.fetch_units st.begins;
        Alcotest.(check bool) (name ^ " has counter samples") true (st.counter_events > 0);
        Alcotest.(check bool)
          (name ^ " nothing dropped")
          true
          (Trace.dropped r = 0))
    [
      ("conv", conv, conv_cfg);
      ("block", block, Config.default);
    ]

let test_validate_rejects () =
  List.iter
    (fun (name, bad) ->
      match Trace.validate bad with
      | Ok _ -> Alcotest.failf "validator accepted %s" name
      | Error _ -> ())
    [
      ("garbage", "not json");
      ("no traceEvents", {|{"foo": []}|});
      ( "unbalanced begin",
        {|{"traceEvents":[{"name":"u","cat":"fetch","ph":"B","ts":1,"pid":1,"tid":0}]}|} );
      ( "non-monotonic ts",
        {|{"traceEvents":[{"name":"u","cat":"fetch","ph":"B","ts":5,"pid":1,"tid":0},{"name":"u","cat":"fetch","ph":"E","ts":4,"pid":1,"tid":0}]}|}
      );
      ( "field order",
        {|{"traceEvents":[{"cat":"fetch","name":"u","ph":"B","ts":1,"pid":1,"tid":0},{"name":"u","cat":"fetch","ph":"E","ts":2,"pid":1,"tid":0}]}|}
      );
    ]

(* --- sampling thins the export stream, never the counters --- *)

let test_sampling () =
  let full, m_full = run_traced ~sample:1 block Config.default in
  let thin, m_thin = run_traced ~sample:8 block Config.default in
  Alcotest.(check string) "metrics identical" (fingerprint m_full) (fingerprint m_thin);
  Alcotest.(check (list (pair string int)))
    "counters exact under sampling" (Trace.counts full) (Trace.counts thin);
  let events t =
    match Trace.validate (Trace.to_chrome_json t) with
    | Ok st -> st.events
    | Error e -> Alcotest.failf "invalid trace: %s" e
  in
  let ef = events full and et = events thin in
  Alcotest.(check bool)
    (Printf.sprintf "thinned stream is smaller (%d vs %d)" et ef)
    true
    (et < ef / 4)

let test_max_events_drops () =
  let r, _ = run_traced ~max_events:16 block Config.default in
  Alcotest.(check bool) "drop counter advanced" true (Trace.dropped r > 0);
  (* a capped trace must still satisfy the exporter contract *)
  match Trace.validate (Trace.to_chrome_json r) with
  | Ok st -> Alcotest.(check int) "capped trace balanced" st.begins st.ends
  | Error e -> Alcotest.failf "capped trace invalid: %s" e

(* --- occupancy timeline --- *)

let test_timeline () =
  let r, _ = run_traced block Config.default in
  let chart = Trace.occupancy_timeline ~width:40 ~height:6 r in
  Alcotest.(check bool) "timeline non-empty" true (String.length chart > 0);
  Alcotest.(check bool) "timeline is multi-line" true (String.contains chart '\n')

(* --- phase spans --- *)

let test_spans () =
  let s = Span.create () in
  let v = Span.time (Some s) "phase-a" (fun () -> Sys.opaque_identity (1 + 1)) in
  Alcotest.(check int) "value through Some" 2 v;
  Alcotest.(check int) "value through None" 3 (Span.time None "ignored" (fun () -> 3));
  let raised =
    try
      ignore (Span.time (Some s) "phase-b" (fun () -> failwith "boom"));
      false
    with Failure _ -> true
  in
  Alcotest.(check bool) "re-raises" true raised;
  ignore (Span.time (Some s) "phase-c" (fun () -> ()));
  Alcotest.(check (list string))
    "recorded in order, failed span dropped" [ "phase-a"; "phase-c" ]
    (List.map fst (Span.list s));
  Alcotest.(check bool) "total accumulates" true (Span.total s >= 0.0);
  Alcotest.(check bool) "render mentions phases" true
    (String.length (Span.render s) > 0)

let suite =
  [
    Alcotest.test_case "registry counters and histograms" `Quick test_registry;
    Alcotest.test_case "null probe identity" `Quick test_null_probe;
    Alcotest.test_case "tracing does not perturb metrics" `Quick test_probe_invariance;
    Alcotest.test_case "event counts reconcile with metrics" `Quick test_reconciliation;
    Alcotest.test_case "chrome trace validates (golden contract)" `Quick
      test_chrome_trace_valid;
    Alcotest.test_case "validator rejects malformed traces" `Quick test_validate_rejects;
    Alcotest.test_case "sampling thins export, not counters" `Quick test_sampling;
    Alcotest.test_case "max-events cap drops but stays valid" `Quick
      test_max_events_drops;
    Alcotest.test_case "occupancy timeline renders" `Quick test_timeline;
    Alcotest.test_case "phase spans" `Quick test_spans;
  ]
