(* Microarchitecture tests: cache, BTB, RAS, and both predictors. *)

module Cache = Bisa_uarch.Cache
module Btb = Bisa_uarch.Btb
module Ras = Bisa_uarch.Ras
module Conv_pred = Bisa_uarch.Conv_pred

let small_cache () =
  Cache.create { Cache.size_bytes = 256; assoc = 2; line_bytes = 32 }
(* 256B, 2-way, 32B lines -> 4 sets. *)

let test_cache_hit_miss () =
  let c = small_cache () in
  Alcotest.(check bool) "cold miss" false (Cache.access c 0);
  Alcotest.(check bool) "hit" true (Cache.access c 0);
  Alcotest.(check bool) "same line" true (Cache.access c 31);
  Alcotest.(check bool) "next line misses" false (Cache.access c 32);
  Alcotest.(check int) "accesses" 4 (Cache.accesses c);
  Alcotest.(check int) "misses" 2 (Cache.misses c)

let test_cache_lru () =
  let c = small_cache () in
  (* Three lines mapping to set 0 (stride = sets * line = 128). *)
  ignore (Cache.access c 0);
  ignore (Cache.access c 128);
  ignore (Cache.access c 0);    (* refresh line 0 *)
  ignore (Cache.access c 256);  (* evicts 128, the LRU way *)
  Alcotest.(check bool) "line 0 still present" true (Cache.access c 0);
  Alcotest.(check bool) "line 128 evicted" false (Cache.access c 128)

let test_cache_range () =
  let c = small_cache () in
  let misses = Cache.access_range c 0 64 in
  Alcotest.(check int) "two lines missed" 2 misses;
  Alcotest.(check int) "no new miss" 0 (Cache.access_range c 0 64);
  (* Range crossing a line boundary touches both lines. *)
  let c2 = small_cache () in
  Alcotest.(check int) "boundary crossing" 2 (Cache.access_range c2 30 4)

let test_cache_reset () =
  let c = small_cache () in
  ignore (Cache.access c 0);
  Cache.reset_stats c;
  Alcotest.(check int) "reset" 0 (Cache.accesses c)

(* [Cache] against a reference LRU written here: per set, the resident
   lines, most recently used first.  Seeded random streams drive [access],
   [access_range] and [evict] on power-of-two set counts (mask path) and
   on others (mod/div path); every hit/miss verdict and the final counters
   must agree. *)
let test_cache_reference_lru () =
  let module Rng = Bisa_base.Rng in
  let check_geometry (size, assoc, line) =
    let name = Printf.sprintf "%dB/%d-way/%dB" size assoc line in
    let c = Cache.create { Cache.size_bytes = size; assoc; line_bytes = line } in
    let sets = size / (assoc * line) in
    let model = Array.make sets [] in
    let accesses = ref 0 and misses = ref 0 in
    let touch l =
      let s = l mod sets in
      let hit = List.mem l model.(s) in
      model.(s) <- List.filteri (fun i _ -> i < assoc) (l :: List.filter (( <> ) l) model.(s));
      incr accesses;
      if not hit then incr misses;
      hit
    in
    let rng = Rng.create (size + assoc) in
    (* Mostly a working set four times the cache, now and then a far line. *)
    let addr () = if Rng.chance rng 0.9 then Rng.int rng (4 * size) else Rng.int rng (1 lsl 40) in
    for i = 1 to 20_000 do
      let a = addr () in
      match Rng.int rng 8 with
      | 0 | 1 ->
        let len = Rng.int rng (3 * line) in
        let want = ref 0 in
        for l = a / line to (a + Int.max 0 (len - 1)) / line do
          if not (touch l) then incr want
        done;
        let got = Cache.access_range c a len in
        if got <> !want then
          Alcotest.failf "%s: access_range #%d (%d, %d): %d misses, model %d" name i a len got
            !want
      | 2 ->
        let l = a / line in
        model.(l mod sets) <- List.filter (( <> ) l) model.(l mod sets);
        Cache.evict c a
      | _ ->
        let want = touch (a / line) in
        let got = Cache.access c a in
        if got <> want then Alcotest.failf "%s: access #%d (%d): hit %b, model %b" name i a got want
    done;
    Alcotest.(check int) (name ^ " accesses") !accesses (Cache.accesses c);
    Alcotest.(check int) (name ^ " misses") !misses (Cache.misses c)
  in
  (* 8, 128 and 32 sets; 24 and 12 sets. *)
  List.iter check_geometry
    [ (512, 2, 32); (16 * 1024, 4, 32); (1024, 1, 32); (3 * 1024, 4, 32); (6 * 1024, 8, 64) ]

(* [access] indexes its way arrays unsafely, so a geometry with no set, or
   with one-byte lines (a line number that can go negative), is refused. *)
let test_cache_degenerate_geometry () =
  let refused name cfg =
    Alcotest.check_raises name (Invalid_argument "Cache.create: degenerate geometry") (fun () ->
        ignore (Cache.create cfg))
  in
  refused "no set" { Cache.size_bytes = 0; assoc = 4; line_bytes = 32 };
  refused "smaller than one set" { Cache.size_bytes = 64; assoc = 4; line_bytes = 32 };
  refused "no way" { Cache.size_bytes = 1024; assoc = 0; line_bytes = 32 };
  refused "one-byte lines" { Cache.size_bytes = 1024; assoc = 4; line_bytes = 1 }

let test_btb () =
  let b = Btb.create ~sets:4 ~ways:2 in
  Alcotest.(check (option int)) "cold" None (Btb.find b 12);
  Btb.insert b 12 99;
  Alcotest.(check (option int)) "found" (Some 99) (Btb.find b 12);
  Btb.insert b 12 100;
  Alcotest.(check (option int)) "overwrite" (Some 100) (Btb.find b 12);
  (* Conflict eviction: keys 4, 12, 20 all map to set 0 with 2 ways. *)
  Btb.insert b 4 1;
  ignore (Btb.find b 12);
  Btb.insert b 20 2;
  Alcotest.(check (option int)) "LRU (key 4) evicted" None (Btb.find b 4);
  Alcotest.(check (option int)) "key 12 survives" (Some 100) (Btb.find b 12)

let test_ras () =
  let r = Ras.create ~depth:3 in
  Alcotest.(check int) "empty pops -1" (-1) (Ras.pop_id r);
  Ras.push r 1;
  Ras.push r 2;
  Alcotest.(check int) "lifo" 2 (Ras.pop_id r);
  Alcotest.(check int) "lifo2" 1 (Ras.pop_id r);
  (* Overflow wraps: deepest entry lost. *)
  List.iter (Ras.push r) [ 1; 2; 3; 4 ];
  Alcotest.(check int) "top" 4 (Ras.pop_id r);
  Alcotest.(check int) "next" 3 (Ras.pop_id r);
  Alcotest.(check int) "next2" 2 (Ras.pop_id r);
  Alcotest.(check int) "wrapped away" (-1) (Ras.pop_id r)

let test_conv_pred_learns_bias () =
  let p = Conv_pred.create Conv_pred.default_config in
  (* An always-taken branch: the history register churns through ~14
     warmup contexts (one fresh counter each), then settles. *)
  let late_wrong = ref 0 in
  for i = 1 to 200 do
    match Conv_pred.on_branch p ~pc:64 ~taken:true ~target:640 with
    | Conv_pred.Correct -> ()
    | _ -> if i > 100 then incr late_wrong
  done;
  Alcotest.(check int) "perfect after warmup" 0 !late_wrong;
  Alcotest.(check int) "predictions counted" 200 (Conv_pred.predictions p)

let test_conv_pred_learns_pattern () =
  let p = Conv_pred.create Conv_pred.default_config in
  (* Periodic T,T,N pattern: global history captures it. *)
  let wrong = ref 0 in
  for i = 0 to 299 do
    let taken = i mod 3 <> 2 in
    match Conv_pred.on_branch p ~pc:128 ~taken ~target:1280 with
    | Conv_pred.Correct -> ()
    | _ -> incr wrong
  done;
  Alcotest.(check bool)
    (Printf.sprintf "pattern learned (%d wrong)" !wrong)
    true (!wrong < 30)

let test_conv_pred_ras () =
  let p = Conv_pred.create Conv_pred.default_config in
  ignore (Conv_pred.on_call p ~pc:10 ~target:100 ~return_to:11);
  ignore (Conv_pred.on_call p ~pc:110 ~target:200 ~return_to:111);
  Alcotest.(check bool) "return matches" true
    (Conv_pred.on_return p ~pc:210 ~target:111 = Conv_pred.Correct);
  Alcotest.(check bool) "return mismatch detected" true
    (Conv_pred.on_return p ~pc:120 ~target:999 = Conv_pred.Ras_miss)

let test_conv_pred_indirect () =
  let p = Conv_pred.create Conv_pred.default_config in
  Alcotest.(check bool) "cold indirect wrong" true
    (Conv_pred.on_indirect p ~pc:50 ~target:500 <> Conv_pred.Correct);
  Alcotest.(check bool) "repeat correct" true
    (Conv_pred.on_indirect p ~pc:50 ~target:500 = Conv_pred.Correct);
  Alcotest.(check bool) "target change wrong" true
    (Conv_pred.on_indirect p ~pc:50 ~target:600 <> Conv_pred.Correct)

(* Block predictor: build a real program and check it learns a biased
   region choice. *)
let test_block_pred_on_program () =
  let src =
    {|
int main() {
  int i;
  int acc = 0;
  for (i = 0; i < 500; i = i + 1) {
    if (i % 4 == 0) { acc = acc + 7; } else { acc = acc + 1; }
  }
  print_int(acc);
  return 0;
}
|}
  in
  let c = Bisa_compiler.Compiler.compile src in
  let prog = c.block in
  let pred = Bisa_uarch.Block_pred.create Bisa_uarch.Block_pred.default_config prog in
  let exec = Bisa_sim.Block_exec.create prog in
  (* Predictor-driven walk mirroring the pipeline: fetch the prediction
     when it is architecturally acceptable, train on every committed
     transition (training must survive squashes, or the predictor could
     never learn from its mistakes). *)
  let last_committed = ref None in
  let last_pred = ref None in
  let forced = ref false in
  let commits = ref 0 and squashes = ref 0 and late_squashes = ref 0 in
  let rec go () =
    if not (Bisa_sim.Block_exec.halted exec) then begin
      let req = Bisa_sim.Block_exec.required exec in
      let fetch =
        if !forced then begin
          forced := false;
          req
        end
        else
          match !last_pred with
          | Some (Some p) when p = req || Bisa_isa.Block_prog.in_group prog ~rep:req p ->
            p
          | _ -> req
      in
      match Bisa_sim.Block_exec.step ~fetch exec with
      | None -> ()
      | Some s ->
        if s.squashed then begin
          incr squashes;
          if !commits > 700 then incr late_squashes;
          forced := true;
          last_pred := None
        end
        else begin
          incr commits;
          (match !last_committed with
          | Some p -> Bisa_uarch.Block_pred.update pred ~block:p ~actual:s.block
          | None -> ());
          last_committed := Some s.block;
          last_pred := Some (Bisa_uarch.Block_pred.predict pred s.block)
        end;
        go ()
    end
  in
  go ();
  Alcotest.(check bool) "enough commits" true (!commits > 400);
  (* The i%4 pattern is history-learnable: once warm, fault squashes must
     be rare. *)
  Alcotest.(check bool)
    (Printf.sprintf "learned (%d late squashes, %d total squashes, %d commits)"
       !late_squashes !squashes !commits)
    true
    (float_of_int !late_squashes < 0.05 *. float_of_int !commits)

let suite =
  [
    Alcotest.test_case "cache hit/miss" `Quick test_cache_hit_miss;
    Alcotest.test_case "cache lru" `Quick test_cache_lru;
    Alcotest.test_case "cache range" `Quick test_cache_range;
    Alcotest.test_case "cache reset" `Quick test_cache_reset;
    Alcotest.test_case "cache matches reference LRU" `Quick test_cache_reference_lru;
    Alcotest.test_case "cache degenerate geometry" `Quick test_cache_degenerate_geometry;
    Alcotest.test_case "btb" `Quick test_btb;
    Alcotest.test_case "ras" `Quick test_ras;
    Alcotest.test_case "conv pred bias" `Quick test_conv_pred_learns_bias;
    Alcotest.test_case "conv pred pattern" `Quick test_conv_pred_learns_pattern;
    Alcotest.test_case "conv pred ras" `Quick test_conv_pred_ras;
    Alcotest.test_case "conv pred indirect" `Quick test_conv_pred_indirect;
    Alcotest.test_case "block pred learns" `Quick test_block_pred_on_program;
  ]
