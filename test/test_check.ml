(* Robustness suite: the differential fuzzer, decoder mutation fuzzing,
   and the fault-injection campaign — fixed seeds so the suite is
   deterministic.  One test deliberately wires in a buggy engine to prove
   the oracle catches and shrinks real semantic bugs. *)

module Gen = Bisa_check.Gen
module Oracle = Bisa_check.Oracle
module Decode_fuzz = Bisa_check.Decode_fuzz
module Faults = Bisa_check.Faults
module Output = Bisa_sim.Output
module Compiler = Bisa_compiler.Compiler

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
  for (i = 0; i < 40; i = i + 1) {
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

let sample () = Compiler.compile sample_src

(* 200 seeded programs through all five executions — the PR's headline
   acceptance criterion. *)
let test_differential_fuzz () =
  let r = Oracle.fuzz ~seed:42 ~count:200 () in
  (match r.failure with
  | Some f ->
    Alcotest.failf "divergence (shrunk, %d evals): %s\n%s" f.shrink_evals f.reason
      f.source
  | None -> ());
  Alcotest.(check int) "all 200 programs checked" 200 (r.tested + r.skipped);
  if r.skipped > 20 then
    Alcotest.failf "generator quality regressed: %d/200 programs skipped" r.skipped

(* The generator itself is deterministic per seed — required for the
   fixed-seed smoke in `dune runtest` to mean anything. *)
let test_generator_deterministic () =
  let render seed =
    Gen.render (Gen.generate (Bisa_base.Rng.create seed))
  in
  Alcotest.(check string) "same seed, same program" (render 7) (render 7);
  if render 7 = render 8 then Alcotest.fail "different seeds produced the same program"

(* A deliberately-buggy engine: conv, but the first printed integer is
   off by one.  The fuzzer must flag it and shrink the counterexample. *)
let test_injected_bug_is_caught_and_shrunk () =
  let buggy =
    {
      Oracle.name = "buggy-conv";
      run =
        (fun c ->
          let out, _ = Bisa_sim.Conv_exec.run c.Compiler.conv () in
          let items =
            match out.Output.items with
            | Output.Oint n :: rest -> Output.Oint (n + 1) :: rest
            | items -> items
          in
          { out with Output.items });
    }
  in
  let r = Oracle.fuzz ~seed:42 ~count:200 ~engines:[ buggy ] () in
  match r.failure with
  | None -> Alcotest.fail "fuzzer missed a deliberately-injected semantic bug"
  | Some f ->
    if not (Gen.size f.program <= 40) then
      Alcotest.failf "shrinking left a large counterexample (size %d):\n%s"
        (Gen.size f.program) f.source;
    (* The shrunk program must still reproduce the failure. *)
    (match Oracle.run_program ~engines:[ buggy ] f.program with
    | Oracle.Failed _ -> ()
    | Oracle.Agree -> Alcotest.fail "shrunk counterexample no longer fails"
    | Oracle.Skipped m -> Alcotest.failf "shrunk counterexample skipped: %s" m)

(* 1000 mutants per format: decode or Malformed-with-offset, never a
   crash, hang, or unbounded allocation. *)
let test_decode_fuzz () =
  let c = sample () in
  let check fmt name img seed =
    match Decode_fuzz.run fmt ~seed ~count:1000 img with
    | Error e -> Alcotest.failf "%s: %s" name e
    | Ok r ->
      Alcotest.(check int) (name ^ ": every mutant accounted for") r.mutants
        (r.decoded + r.rejected);
      if r.rejected = 0 then
        Alcotest.failf "%s: no mutant was rejected — the mutator is too tame" name
  in
  check Decode_fuzz.Conv "conv" (Bisa_isa.Encode.conv_to_bytes c.Compiler.conv) 42;
  check Decode_fuzz.Block "block" (Bisa_isa.Encode.block_to_bytes c.Compiler.block) 43

(* Chaos injection across both pipelines: functional results unchanged,
   runs terminate within budget, and the faults actually fired. *)
let test_fault_injection () =
  match Faults.campaign ~seeds:[ 1; 2; 3 ] (sample ()) with
  | Error e -> Alcotest.fail e
  | Ok r ->
    Alcotest.(check int) "both pipelines, three seeds" 6 r.runs;
    if r.injections = 0 then
      Alcotest.fail "chaos config fired no injections — the hooks are dead"

(* Injection must also hold on a program with heavier control flow than
   the sample: a generated one. *)
let test_fault_injection_generated () =
  let rng = Bisa_base.Rng.create 2024 in
  let c = Compiler.compile (Gen.render (Gen.generate rng)) in
  match Faults.campaign ~seeds:[ 11; 12 ] c with
  | Error e -> Alcotest.fail e
  | Ok r -> Alcotest.(check int) "both pipelines, two seeds" 4 r.runs

(* The one located-rejection rule: a rejection counts only with the
   component asked for and a byte offset within the input. *)
let test_located () =
  let module Diag = Bisa_base.Diag in
  let input = "abcd" in
  let at offset = Diag.at_byte ~offset ~section:"code" in
  let verdict d = Decode_fuzz.located ~component:"encode" input d in
  Alcotest.(check (result bool string)) "located at the end of the input" (Ok false)
    (verdict (Diag.error ~loc:(at 4) ~component:"encode" "truncated"));
  List.iter
    (fun (what, d) ->
      match verdict d with
      | Ok _ -> Alcotest.failf "%s: accepted" what
      | Error _ -> ())
    [
      ("no location", Diag.error ~component:"encode" "truncated");
      ("another component", Diag.error ~loc:(at 1) ~component:"proto" "truncated");
      ("past the end", Diag.error ~loc:(at 5) ~component:"encode" "truncated");
    ]

(* A campaign's outcomes come in mutant order, and its finding is the
   lowest failing mutant, at every worker count. *)
let test_campaign_order () =
  let module Rng = Bisa_base.Rng in
  let draw rng = Rng.int rng 1_000_000 in
  let draws = List.init 60 (fun i -> draw (Rng.derive 3 i)) in
  let bad = List.filter (fun v -> v mod 5 = 0) draws in
  Alcotest.(check bool) "two mutants fail" true (List.length bad >= 2);
  let first = List.hd bad in
  let i = Option.get (List.find_index (( = ) first) draws) in
  let picky rng =
    let v = draw rng in
    if v mod 5 = 0 then Error (string_of_int v) else Ok v
  in
  List.iter
    (fun workers ->
      Bisa_base.Pool.run ~workers @@ fun pool ->
      Alcotest.(check (result (list int) string)) "outcomes in mutant order" (Ok draws)
        (Decode_fuzz.campaign ~pool ~seed:3 ~count:60 (fun rng -> Ok (draw rng)));
      Alcotest.(check (result (list int) string)) "lowest failing mutant"
        (Error (Printf.sprintf "mutant %d (seed 3): %d" i first))
        (Decode_fuzz.campaign ~pool ~seed:3 ~count:60 picky))
    [ 1; 2 ]

let suite =
  [
    Alcotest.test_case "differential fuzz, 200 programs" `Quick test_differential_fuzz;
    Alcotest.test_case "generator is deterministic" `Quick test_generator_deterministic;
    Alcotest.test_case "injected bug caught and shrunk" `Quick
      test_injected_bug_is_caught_and_shrunk;
    Alcotest.test_case "decode fuzz, 1000 mutants per format" `Quick test_decode_fuzz;
    Alcotest.test_case "fault injection campaign" `Quick test_fault_injection;
    Alcotest.test_case "fault injection on generated program" `Quick
      test_fault_injection_generated;
    Alcotest.test_case "located rejections" `Quick test_located;
    Alcotest.test_case "campaign order and first failure" `Quick test_campaign_order;
  ]
