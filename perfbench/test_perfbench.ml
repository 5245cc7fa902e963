(* Unit tests of the benchmark's own logic: statistics, seeded inputs,
   argument parsing, the metric catalogue against BENCHMARK.json, and the
   span recorder's Chrome output. *)

open Perfbench

let flt = Alcotest.float 1e-9

(* --- a reader for BENCHMARK.json and the result line ----------------------- *)

type json = Str of string | Num of float | Bool of bool | Arr of json list | Obj of (string * json) list

let parse s =
  let pos = ref 0 in
  let peek () = s.[!pos] in
  let rec ws () =
    if !pos < String.length s && String.contains " \n\r\t" (peek ()) then begin
      incr pos;
      ws ()
    end
  in
  let expect c =
    ws ();
    if peek () <> c then failwith (Printf.sprintf "expected %c at %d" c !pos);
    incr pos
  in
  let str () =
    expect '"';
    let start = !pos in
    while peek () <> '"' do
      incr pos
    done;
    incr pos;
    String.sub s start (!pos - start - 1)
  in
  let rec seq close item =
    ws ();
    if peek () = close then (incr pos; [])
    else
      let x = item () in
      ws ();
      if peek () = ',' then (incr pos; x :: seq close item) else (expect close; [ x ])
  in
  let rec value () =
    ws ();
    match peek () with
    | '"' -> Str (str ())
    | '[' -> incr pos; Arr (seq ']' value)
    | '{' ->
      incr pos;
      Obj
        (seq '}' (fun () ->
             let k = str () in
             expect ':';
             (k, value ())))
    | 't' -> pos := !pos + 4; Bool true
    | 'f' -> pos := !pos + 5; Bool false
    | _ ->
      let start = !pos in
      while !pos < String.length s && String.contains "-+.0123456789eE" (peek ()) do
        incr pos
      done;
      Num (float_of_string (String.sub s start (!pos - start)))
  in
  value ()

let benchmark_json () =
  let ic = open_in_bin "../BENCHMARK.json" in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  match parse s with Obj fields -> fields | _ -> failwith "BENCHMARK.json is not an object"

let field k = function Obj f -> List.assoc k f | _ -> failwith "not an object"
let str = function Str s -> s | _ -> failwith "not a string"
let arr = function Arr l -> l | _ -> failwith "not an array"

(* --- tests ------------------------------------------------------------------ *)

let percentile_rule () =
  List.iter
    (fun (n, level) -> Alcotest.(check int) (Printf.sprintf "n=%d" n) level (Stat.tail_level n))
    [ (1, 500); (19, 500); (20, 500); (99, 500); (100, 900); (999, 900); (1000, 990); (10040, 990) ];
  Alcotest.(check string) "name" "p99" (Stat.level_name 990);
  Alcotest.(check string) "name" "p90" (Stat.level_name 900)

let quantiles () =
  Alcotest.check flt "median odd" 3. (Stat.median [ 5.; 1.; 3. ]);
  Alcotest.check flt "median even" 2.5 (Stat.median [ 4.; 1.; 3.; 2. ]);
  Alcotest.check flt "q1 inclusive" 1.75 (Stat.quantile [ 1.; 2.; 3.; 4. ] 0.25);
  Alcotest.check flt "max" 4. (Stat.quantile [ 1.; 2.; 3.; 4. ] 1.);
  let xs = List.init 100 (fun i -> float_of_int (i + 1)) in
  let l = Stat.tail_level (List.length xs) in
  Alcotest.(check int) "100 samples: p90" 900 l;
  Alcotest.check flt "p90 of 1..100" 90.1 (Stat.quantile xs (float_of_int l /. 1000.));
  Alcotest.check_raises "empty" (Invalid_argument "Stat.quantile: empty sample") (fun () ->
      ignore (Stat.median []))

let zipf () =
  let a = Stat.zipf_ranks ~seed:7 ~keys:100 ~count:5000 in
  Alcotest.(check (array int)) "same seed" a (Stat.zipf_ranks ~seed:7 ~keys:100 ~count:5000);
  Alcotest.(check bool) "other seed differs" false (a = Stat.zipf_ranks ~seed:8 ~keys:100 ~count:5000);
  Alcotest.(check bool) "in range" true (Array.for_all (fun k -> k >= 0 && k < 100) a);
  let hits = Array.make 100 0 in
  Array.iter (fun k -> hits.(k) <- hits.(k) + 1) a;
  (* Zipf(1) over 100 ranks: rank 0 draws 1/H(100) ~ 19%, rank 1 half that. *)
  Alcotest.(check bool) "rank 0 ~19%" true (hits.(0) > 800 && hits.(0) < 1100);
  Alcotest.(check bool) "rank 1 ~ half of rank 0" true (2 * hits.(1) > hits.(0) * 3 / 4 && 2 * hits.(1) < hits.(0) * 5 / 4)

let gen_sources () =
  let a = W_toolchain.sources ~seed:3 20 in
  Alcotest.(check (array string)) "same seed" a (W_toolchain.sources ~seed:3 20);
  Alcotest.(check bool) "other seed differs" false (a = W_toolchain.sources ~seed:4 20);
  Alcotest.(check bool) "prefix-stable" true (Array.sub a 0 5 = W_toolchain.sources ~seed:3 5)

let args () =
  let ok = function Ok (t : Cli.t) -> t | Error e -> Alcotest.fail e in
  let t =
    ok (Cli.parse [ "--workload"; "serve"; "--seed"; "9"; "--seconds"; "12"; "--trace"; "1" ])
  in
  Alcotest.(check string) "workload" "serve" t.workload;
  Alcotest.(check int) "seed" 9 t.seed;
  Alcotest.check flt "seconds" 12. t.seconds;
  Alcotest.(check bool) "trace" true t.trace;
  Alcotest.(check bool) "full" true (t.profile = Cli.Full);
  let d = ok (Cli.parse [ "--workload"; "report"; "--profile"; "smoke"; "--bisad"; "x" ]) in
  Alcotest.(check bool) "defaults" true
    (d.seed = 1 && d.seconds = 30. && (not d.trace) && d.profile = Cli.Smoke && d.bisad = "x");
  List.iter
    (fun argv ->
      Alcotest.(check bool) (String.concat " " argv) true (Result.is_error (Cli.parse argv)))
    [
      [];
      [ "--workload"; "nope" ];
      [ "--workload"; "report"; "--trace"; "2" ];
      [ "--workload"; "report"; "--seed" ];
      [ "--workload"; "report"; "--seconds"; "0" ];
      [ "--workload"; "report"; "--frobnicate"; "1" ];
    ]

let catalogue () =
  let b = benchmark_json () in
  Alcotest.(check (list string)) "workloads" Spec.workloads
    (List.map (fun w -> str (field "name" w)) (arr (List.assoc "workloads" b)));
  let check_list key (metrics : Spec.metric list) =
    let recorded =
      List.map
        (fun x -> (str (field "name" x), str (field "unit" x), str (field "better" x)))
        (arr (List.assoc key b))
    in
    Alcotest.(check (list (triple string string string)))
      key
      (List.map
         (fun (x : Spec.metric) ->
           (x.name, x.unit_, match x.better with Spec.Lower -> "lower" | Spec.Higher -> "higher"))
         metrics)
      recorded
  in
  check_list "end_to_end" Spec.end_to_end;
  check_list "per_layer" Spec.per_layer

let printer () =
  List.iter
    (fun metrics ->
      let values = List.mapi (fun i x -> (x, 0.5 +. float_of_int i)) metrics in
      let json = Spec.result_json ~correct:true ~attempted:3 ~failed:0 values in
      (match parse json with
      | Obj f ->
        Alcotest.(check (list string)) "keys" [ "correct"; "attempted"; "failed"; "metrics" ] (List.map fst f);
        let ms = match List.assoc "metrics" f with Obj ms -> ms | _ -> Alcotest.fail "metrics" in
        List.iter
          (fun ((x : Spec.metric), v) ->
            let e = List.assoc x.name ms in
            Alcotest.(check string) (x.name ^ " unit") x.unit_ (str (field "unit" e));
            Alcotest.check flt (x.name ^ " value") v
              (match field "value" e with Num n -> n | _ -> Alcotest.fail "value"))
          values
      | _ -> Alcotest.fail "not an object");
      List.iter
        (fun ((x : Spec.metric), v) ->
          Alcotest.(check string) "line" (Printf.sprintf "%s %g %s" x.name v x.unit_) (Spec.line x v))
        values)
    [ Spec.end_to_end; Spec.per_layer ];
  Alcotest.(check bool) "all digits" true
    (let j = Spec.result_json ~correct:true ~attempted:1 ~failed:0 [ (Spec.find "wall_s", 1. /. 3.) ] in
     let needle = "0.33333333333333331" in
     let rec has i = i + String.length needle <= String.length j && (String.sub j i (String.length needle) = needle || has (i + 1)) in
     has 0)

let trace () =
  let t = Tracer.create () in
  let tr = Some t in
  Tracer.span tr ~layer:"bench" "outer" (fun () ->
      let outer = Tracer.current tr in
      Tracer.span tr ~layer:"compiler" "compile" (fun () ->
          Tracer.phases tr ~layer:"compiler" ~t0:(Unix.gettimeofday ()) [ ("a", 0.); ("b", 0.) ]);
      Domain.join (Domain.spawn (fun () -> Tracer.span tr ~outer ~req:4 ~layer:"wire" "helper" ignore)));
  let spans = Tracer.spans t in
  Alcotest.(check int) "spans" 5 (List.length spans);
  Alcotest.(check bool) "nested" true (Result.is_ok (Tracer.check_nesting spans));
  (match Bisa_obs.Trace.validate (Tracer.to_chrome_json t) with
  | Ok s -> Alcotest.(check int) "begins" 5 s.begins
  | Error e -> Alcotest.fail e);
  let self = Tracer.self_times spans in
  let outer = List.find (fun ((s : Tracer.span), _) -> s.name = "outer") self in
  let compile = List.find (fun ((s : Tracer.span), _) -> s.name = "compile") self in
  Alcotest.(check bool) "self excludes same-domain children" true
    (snd outer <= (fst outer).t1 -. (fst outer).t0 -. ((fst compile).t1 -. (fst compile).t0) +. 1e-9)

let () =
  Alcotest.run "perfbench"
    [
      ( "perfbench",
        [
          Alcotest.test_case "percentile rule" `Quick percentile_rule;
          Alcotest.test_case "quantiles" `Quick quantiles;
          Alcotest.test_case "zipf keys are seeded" `Quick zipf;
          Alcotest.test_case "generated sources are seeded" `Quick gen_sources;
          Alcotest.test_case "argument parsing" `Quick args;
          Alcotest.test_case "catalogue matches BENCHMARK.json" `Quick catalogue;
          Alcotest.test_case "printer emits every metric with its unit" `Quick printer;
          Alcotest.test_case "trace nests and validates" `Quick trace;
        ] );
    ]
