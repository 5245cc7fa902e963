(* Unit tests for bisa_base: PRNG, statistics, tables, graph algorithms. *)

open Bisa_base

let test_rng_determinism () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.next a) (Rng.next b)
  done

let test_rng_bounds () =
  let r = Rng.create 7 in
  for _ = 1 to 1000 do
    let v = Rng.int r 13 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 13);
    let w = Rng.int_in r 5 9 in
    Alcotest.(check bool) "in closed range" true (w >= 5 && w <= 9)
  done

let test_rng_split_independent () =
  let a = Rng.create 1 in
  let b = Rng.split a in
  Alcotest.(check bool) "split streams differ" true (Rng.next a <> Rng.next b)

let test_rng_shuffle_permutes () =
  let r = Rng.create 3 in
  let a = Array.init 50 (fun i -> i) in
  Rng.shuffle r a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "same elements" (Array.init 50 (fun i -> i)) sorted

let test_mean () =
  let m = Stats.Mean.create () in
  List.iter (Stats.Mean.add m) [ 1.0; 2.0; 3.0; 4.0 ];
  Alcotest.(check (float 1e-9)) "mean" 2.5 (Stats.Mean.mean m);
  Alcotest.(check (float 1e-9)) "min" 1.0 (Stats.Mean.min m);
  Alcotest.(check (float 1e-9)) "max" 4.0 (Stats.Mean.max m);
  Alcotest.(check int) "count" 4 (Stats.Mean.count m)

let test_mean_weighted () =
  let m = Stats.Mean.create () in
  Stats.Mean.add_n m 10.0 3;
  Stats.Mean.add_n m 20.0 1;
  Alcotest.(check (float 1e-9)) "weighted mean" 12.5 (Stats.Mean.mean m)

let test_histogram () =
  let h = Stats.Histogram.create ~buckets:8 in
  List.iter (Stats.Histogram.add h) [ 0; 1; 1; 2; 7; 9; -3 ];
  Alcotest.(check int) "clamped high" 2 (Stats.Histogram.count h 7);
  Alcotest.(check int) "clamped low" 2 (Stats.Histogram.count h 0);
  Alcotest.(check int) "total" 7 (Stats.Histogram.total h)

let test_histogram_percentile () =
  let h = Stats.Histogram.create ~buckets:10 in
  for v = 0 to 9 do
    Stats.Histogram.add h v
  done;
  Alcotest.(check int) "median" 4 (Stats.Histogram.percentile h 0.5)

let test_geomean () =
  Alcotest.(check (float 1e-9)) "geomean" 2.0 (Stats.geomean [ 1.0; 2.0; 4.0 ]);
  Alcotest.(check (float 1e-9)) "empty" 0.0 (Stats.geomean [])

let test_table_render () =
  let t =
    Table.create ~title:"T" ~headers:[ ("a", Table.Left); ("b", Table.Right) ]
  in
  Table.add_row t [ "x"; "1" ];
  Table.add_row t [ "yy"; "22" ];
  let s = Table.to_string t in
  Alcotest.(check bool) "has title" true (String.length s > 0 && s.[0] = 'T');
  Alcotest.(check bool) "mentions row" true
    (String.length s > 10 && String.index_opt s 'y' <> None)

let test_table_cells () =
  Alcotest.(check string) "thousands" "1,234,567" (Table.cell_int 1_234_567);
  Alcotest.(check string) "negative" "-1,000" (Table.cell_int (-1000));
  Alcotest.(check string) "small" "42" (Table.cell_int 42);
  Alcotest.(check string) "percent" "12.3%" (Table.cell_percent 12.34)

let test_table_mismatched_row () =
  let t = Table.create ~title:"T" ~headers:[ ("a", Table.Left) ] in
  Alcotest.check_raises "row arity" (Invalid_argument "Table.add_row: cell count does not match headers")
    (fun () -> Table.add_row t [ "x"; "y" ])

(* A diamond with a loop back edge: 0 -> 1 -> {2,3} -> 4 -> 1, 4 -> 5. *)
let diamond_loop () =
  Digraph.create ~nodes:6
    ~succ:(function
      | 0 -> [ 1 ]
      | 1 -> [ 2; 3 ]
      | 2 -> [ 4 ]
      | 3 -> [ 4 ]
      | 4 -> [ 1; 5 ]
      | _ -> [])
    ~entry:0

let test_digraph_rpo () =
  let g = diamond_loop () in
  let order = Digraph.rpo g in
  Alcotest.(check int) "all reachable" 6 (Array.length order);
  Alcotest.(check int) "entry first" 0 order.(0);
  let idx = Digraph.rpo_index g in
  Alcotest.(check bool) "1 before 2" true (idx.(1) < idx.(2));
  Alcotest.(check bool) "2 before 4" true (idx.(2) < idx.(4))

let test_digraph_back_edges () =
  let g = diamond_loop () in
  Alcotest.(check bool) "4->1 is back" true (Digraph.is_back_edge g 4 1);
  Alcotest.(check bool) "0->1 is not" false (Digraph.is_back_edge g 0 1);
  Alcotest.(check bool) "1->2 is not" false (Digraph.is_back_edge g 1 2);
  Alcotest.(check int) "exactly one back edge" 1 (List.length (Digraph.back_edges g))

let test_digraph_dominators () =
  let g = diamond_loop () in
  Alcotest.(check bool) "1 dominates 4" true (Digraph.dominates g 1 4);
  Alcotest.(check bool) "2 does not dominate 4" false (Digraph.dominates g 2 4);
  Alcotest.(check bool) "0 dominates all" true (Digraph.dominates g 0 5);
  let idom = Digraph.idom g in
  Alcotest.(check int) "idom of 4 is 1" 1 idom.(4)

let test_digraph_natural_loop () =
  let g = diamond_loop () in
  let members = Digraph.natural_loop g (4, 1) in
  Alcotest.(check (list int)) "loop body" [ 1; 2; 3; 4 ] members

let test_digraph_unreachable () =
  let g =
    Digraph.create ~nodes:4
      ~succ:(function 0 -> [ 1 ] | 3 -> [ 0 ] | _ -> [])
      ~entry:0
  in
  let reach = Digraph.reachable g in
  Alcotest.(check bool) "3 unreachable" false reach.(3);
  Alcotest.(check bool) "1 reachable" true reach.(1)

let test_textplot () =
  let s =
    Textplot.grouped_bars ~title:"plot" ~unit_label:"u" ~groups:[ "g1"; "g2" ]
      ~series:
        [ { Textplot.label = "a"; values = [ 1.0; 2.0 ] };
          { Textplot.label = "b"; values = [ 0.5; 1.5 ] } ]
      ()
  in
  Alcotest.(check bool) "contains group" true
    (Astring_free.contains_substring s "g1");
  Alcotest.(check bool) "contains label" true (Astring_free.contains_substring s "a")

(* A path in a fresh directory, removed with whatever is left in it when
   the check ends. *)
let with_tmp_target f =
  let dir = Filename.temp_file "bisa_atomic" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  Fun.protect ~finally:(fun () -> Fs.rm_rf dir) (fun () -> f (Filename.concat dir "out.json"))

let no_temp_residue path =
  Sys.readdir (Filename.dirname path)
  |> Array.for_all (fun f -> f = Filename.basename path)

let test_atomic_write () =
  with_tmp_target @@ fun path ->
  Atomic_file.write_string path "hello";
  Alcotest.(check string) "content" "hello" (Fs.read_file path);
  Alcotest.(check bool) "no temp residue" true (no_temp_residue path)

exception Killed

let test_atomic_mid_write_kill () =
  with_tmp_target @@ fun path ->
  Atomic_file.write_string path "previous";
  (* Die in the widest window: payload fully written, rename not yet done.
     The previous file must survive untouched and the temp file must go. *)
  Atomic_file.crash_after_write_hook := Some (fun () -> raise Killed);
  Fun.protect
    ~finally:(fun () -> Atomic_file.crash_after_write_hook := None)
    (fun () ->
      Alcotest.check_raises "kill propagates" Killed (fun () ->
          Atomic_file.write_string path "half-written update"));
  Alcotest.(check string) "previous content intact" "previous" (Fs.read_file path);
  Alcotest.(check bool) "no temp residue" true (no_temp_residue path)

let test_atomic_concurrent_writers () =
  (* Two domains hammering the same path: the pid+counter temp naming
     must keep them on distinct temp files, so the final file is always
     exactly one writer's complete payload, with no residue. *)
  with_tmp_target @@ fun path ->
  let payload tag = String.init 4096 (fun i -> Char.chr ((tag + i) land 0x3f + 32)) in
  let writer tag () =
    for _ = 1 to 50 do
      Atomic_file.write_string path (payload tag)
    done
  in
  let d1 = Domain.spawn (writer 1) in
  let d2 = Domain.spawn (writer 2) in
  Domain.join d1;
  Domain.join d2;
  let got = Fs.read_file path in
  Alcotest.(check bool)
    "file is one writer's complete payload" true
    (got = payload 1 || got = payload 2);
  Alcotest.(check bool) "no temp residue" true (no_temp_residue path)

let test_atomic_writer_raises () =
  with_tmp_target @@ fun path ->
  Alcotest.check_raises "writer exception propagates" Killed (fun () ->
      Atomic_file.write path (fun oc ->
          output_string oc "partial";
          raise Killed));
  Alcotest.(check bool) "target never created" false (Sys.file_exists path);
  Alcotest.(check bool) "no temp residue" true (no_temp_residue path)

let test_fs_tree () =
  with_tmp_target @@ fun path ->
  let root = Filename.dirname path in
  let deep = Filename.concat (Filename.concat root "a") "b" in
  Fs.mkdir_p deep;
  Fs.mkdir_p deep;
  Atomic_file.write_string (Filename.concat deep "f") "x";
  Alcotest.(check string) "file inside created parents" "x"
    (Fs.read_file (Filename.concat deep "f"));
  (match Fs.read_file deep with
  | _ -> Alcotest.fail "read a directory as a file"
  | exception Sys_error _ -> ());
  Fs.rm_rf root;
  Alcotest.(check bool) "tree removed" false (Sys.file_exists root);
  (* Removing a path that is already gone is a no-op. *)
  Fs.rm_rf root

(* --- codec: the hash and varint contracts ---------------------------------- *)

(* The closure-based FNV-1a that made every program hash, checkpoint and
   campaign header and spool file name so far, kept as the reference
   model for the unboxed loop. *)
let fnv1a64_model s =
  let h = ref 0xCBF29CE484222325L in
  String.iter
    (fun c ->
      h := Int64.logxor !h (Int64.of_int (Char.code c));
      h := Int64.mul !h 0x100000001B3L)
    s;
  !h

let hex = Printf.sprintf "%016Lx"

(* Ints whose decimal or varint forms change length around them. *)
let edge_ints =
  [ 0; 1; -1; 9; -9; 10; -10; min_int; max_int; min_int + 1; max_int - 1 ]
  @ List.concat_map
      (fun k ->
        let p = 1 lsl k in
        [ p; p + 1; p - 1; -p; -p + 1; -p - 1 ])
      (List.init (Sys.int_size - 1) Fun.id)

let test_fnv1a64 () =
  List.iter
    (fun (s, want) -> Alcotest.(check string) (Printf.sprintf "%S" s) want (hex (Codec.fnv1a64 s)))
    [ ("", "cbf29ce484222325"); ("a", "af63dc4c8601ec8c"); ("foobar", "85944171f73967e8") ];
  let rng = Rng.create 21 in
  for i = 0 to 199 do
    (* lengths 0-8 first, then up to 8 KB; bytes cover 0-255 *)
    let n = if i <= 8 then i else Rng.int rng 8193 in
    let s = String.init n (fun _ -> Char.chr (Rng.int rng 256)) in
    let want = fnv1a64_model s in
    Alcotest.(check int64) (Printf.sprintf "fnv1a64 of %d bytes" n) want (Codec.fnv1a64 s);
    (* the same bytes streamed in random pieces *)
    let f = Codec.Fnv.create () in
    let pos = ref 0 in
    while !pos < n do
      let k = min (n - !pos) (1 + Rng.int rng 64) in
      Codec.Fnv.string f (String.sub s !pos k);
      pos := !pos + k
    done;
    Alcotest.(check int64) (Printf.sprintf "streamed %d bytes" n) want (Codec.Fnv.value f)
  done;
  let ints = edge_ints @ List.init 1000 (fun _ -> Int64.to_int (Rng.next rng) asr Rng.int rng 63) in
  List.iter
    (fun n ->
      let f = Codec.Fnv.create () in
      Codec.Fnv.string f "x";
      Codec.Fnv.int f n;
      Codec.Fnv.int f (-n);
      Alcotest.(check int64) (string_of_int n)
        (fnv1a64_model ("x" ^ string_of_int n ^ string_of_int (-n)))
        (Codec.Fnv.value f);
      let v = Int64.of_int n in
      Alcotest.(check string) "hex64" (hex v) (Codec.hex64 v))
    ints;
  List.iter
    (fun v -> Alcotest.(check string) "hex64 edge" (hex v) (Codec.hex64 v))
    [ Int64.min_int; Int64.max_int; -1L; 0L; 0x8000_0000_0000_0001L ];
  Alcotest.(check string) "hash_hex" "85944171f73967e8" (Codec.hash_hex "foobar")

(* The Int64 varint writer every snapshot, spool entry and campaign file
   so far was written with, kept as the reference model. *)
let u64_model b v =
  let v = ref v in
  let continue_ = ref true in
  while !continue_ do
    let low = Int64.to_int (Int64.logand !v 0x7FL) in
    v := Int64.shift_right_logical !v 7;
    if Int64.equal !v 0L then begin
      Buffer.add_char b (Char.chr low);
      continue_ := false
    end
    else Buffer.add_char b (Char.chr (low lor 0x80))
  done

let i64_model b v = u64_model b Int64.(logxor (shift_left v 1) (shift_right v 63))

let test_varint_writer () =
  let rng = Rng.create 3 in
  let ints =
    edge_ints
    @ List.init 200_000 (fun _ -> Int64.to_int (Rng.next rng) asr Rng.int rng 63)
  in
  let i64s =
    [ Int64.min_int; Int64.max_int ]
    @ List.concat_map
        (fun k ->
          let p = Int64.shift_left 1L k in
          Int64.[ p; succ p; pred p; neg p; succ (neg p); pred (neg p) ])
        (List.init 64 Fun.id)
    @ List.init 10_000 (fun _ -> Int64.shift_right (Rng.next rng) (Rng.int rng 64))
  in
  let floats =
    [ 0.0; -0.0; 1.0; -1.5; nan; infinity; neg_infinity; max_float; min_float; epsilon_float ]
    @ List.init 10_000 (fun _ -> Int64.float_of_bits (Rng.next rng))
  in
  (* Edge values one at a time, so a failure names its value. *)
  List.iter
    (fun v ->
      let w = Codec.W.create () and b = Buffer.create 16 in
      Codec.W.int w v;
      i64_model b (Int64.of_int v);
      Alcotest.(check string) (string_of_int v) (Buffer.contents b) (Codec.W.contents w))
    edge_ints;
  let w = Codec.W.create () and b = Buffer.create 4096 in
  List.iter
    (fun v ->
      Codec.W.int w v;
      i64_model b (Int64.of_int v))
    ints;
  List.iter
    (fun v ->
      Codec.W.i64 w v;
      i64_model b v)
    i64s;
  List.iter
    (fun v ->
      Codec.W.float w v;
      u64_model b (Int64.bits_of_float v))
    floats;
  Alcotest.(check bool) "ints, i64s and floats byte-identical" true
    (String.equal (Buffer.contents b) (Codec.W.contents w));
  let r = Codec.R.of_string (Codec.W.contents w) in
  List.iter (fun v -> if Codec.R.int r <> v then Alcotest.failf "int %d read back" v) ints;
  List.iter (fun v -> if Codec.R.i64 r <> v then Alcotest.failf "i64 %Ld read back" v) i64s;
  List.iter
    (fun v ->
      if Int64.bits_of_float (Codec.R.float r) <> Int64.bits_of_float v then
        Alcotest.failf "float %h read back" v)
    floats;
  Alcotest.(check bool) "all read" true (Codec.R.at_end r)

(* The Int64 varint reader every snapshot, spool entry, campaign file and
   request was read with so far, kept as the reference model: its values,
   its diagnostics, and where it leaves the read position when it raises
   (Proto locates a bad payload there). *)
type model_reader = { ms : string; mutable mpos : int }

let model_corrupt fmt =
  Printf.ksprintf
    (fun m -> raise (Diag.Fail (Diag.error ~component:"codec" ("corrupt snapshot: " ^ m))))
    fmt

let model_byte r =
  if r.mpos >= String.length r.ms then model_corrupt "truncated at byte %d" r.mpos;
  let c = Char.code r.ms.[r.mpos] in
  r.mpos <- r.mpos + 1;
  c

let model_u64 r =
  let rec go shift acc =
    if shift > 63 then model_corrupt "varint overruns 64 bits at byte %d" r.mpos;
    let c = model_byte r in
    let acc = Int64.logor acc (Int64.shift_left (Int64.of_int (c land 0x7F)) shift) in
    if c land 0x80 = 0 then acc else go (shift + 7) acc
  in
  go 0 0L

let model_i64 r =
  let v = model_u64 r in
  Int64.(logxor (shift_right_logical v 1) (neg (logand v 1L)))

(* Each way to read a varint, on the codec's reader and on the model,
   with the value as an int64 so the outcomes compare. *)
let varint_readers =
  [|
    ( "int",
      (fun r -> Int64.of_int (Codec.R.int r)),
      fun m -> Int64.of_int (Int64.to_int (model_i64 m)) );
    ("i64", Codec.R.i64, model_i64);
    ( "float",
      (fun r -> Int64.bits_of_float (Codec.R.float r)),
      fun m -> Int64.bits_of_float (Int64.float_of_bits (model_u64 m)) );
    ("bool", (fun r -> if Codec.R.bool r then 1L else 0L), fun m ->
      if Int64.to_int (model_i64 m) <> 0 then 1L else 0L);
  |]

(* Read [s] until a read fails (at the latest, one past its end), the
   reader for each varint chosen by [pick]; every value or Diag, and the
   position after it, must be the model's. *)
let check_reads what s pick =
  let r = Codec.R.of_string s and m = { ms = s; mpos = 0 } in
  let outcome read pos x =
    match read x with v -> Ok (v, pos x) | exception Diag.Fail d -> Error (d, pos x)
  in
  let rec go i =
    let name, read, model = varint_readers.(pick i) in
    let got = outcome read Codec.R.pos r and want = outcome model (fun m -> m.mpos) m in
    if got <> want then
      Alcotest.failf "%s: varint %d (%s) read differently from the model at byte %d" what i
        name (Codec.R.pos r);
    match got with Ok _ -> go (i + 1) | Error _ -> ()
  in
  go 0

let test_varint_reader () =
  let rng = Rng.create 5 in
  (* A well-formed stream: 200,000 seeded ints and the edges as ints, the
     64-bit edges and seeded values as i64s, seeded floats. *)
  let w = Codec.W.create () and kinds = ref [] in
  let put k f v =
    f w v;
    kinds := k :: !kinds
  in
  List.iter (put 0 Codec.W.int)
    (edge_ints @ List.init 200_000 (fun _ -> Int64.to_int (Rng.next rng) asr Rng.int rng 63));
  List.iter (put 1 Codec.W.i64)
    ([ Int64.min_int; Int64.max_int ]
    @ List.concat_map
        (fun k ->
          let p = Int64.shift_left 1L k in
          Int64.[ p; succ p; pred p; neg p; succ (neg p); pred (neg p) ])
        (List.init 64 Fun.id)
    @ List.init 10_000 (fun _ -> Int64.shift_right (Rng.next rng) (Rng.int rng 64)));
  List.iter (put 2 Codec.W.float)
    ([ 0.0; -0.0; 1.0; -1.5; nan; infinity; neg_infinity; max_float; min_float ]
    @ List.init 10_000 (fun _ -> Int64.float_of_bits (Rng.next rng)));
  List.iter (put 3 Codec.W.bool) [ true; false ];
  let kinds = Array.of_list (List.rev !kinds) in
  let stream = Codec.W.contents w in
  check_reads "well-formed stream" stream (fun i -> kinds.(i mod Array.length kinds));
  (* The same bytes through every reader, so each reads foreign widths. *)
  Array.iteri
    (fun k (name, _, _) -> check_reads ("stream as " ^ name) stream (fun _ -> k))
    varint_readers;
  (* Overlong and 10-byte forms: zero-padded groups, a tenth group whose
     bits past 63 are dropped, and an eleventh byte that overruns. *)
  let ten last = String.make 9 '\xff' ^ String.make 1 (Char.chr last) in
  let shapes =
    [ "\x80\x00"; "\x80\x80\x80\x00"; "\xff\x00"; "\x81\x80\x80\x80\x80\x80\x80\x80\x80\x00" ]
    @ List.init 128 ten
    @ [ ten 0x80 ^ "\x00"; ten 0xff ^ "\x01"; String.make 11 '\x80'; String.make 20 '\xff' ]
  in
  List.iter
    (fun s ->
      Array.iteri
        (fun k (name, _, _) -> check_reads (Printf.sprintf "%S as %s" s name) s (fun _ -> k))
        varint_readers)
    shapes;
  (* Every prefix of those, and of the stream's first 4 KB: truncation. *)
  let head = String.sub stream 0 4096 in
  List.iter
    (fun s ->
      for n = 0 to String.length s - 1 do
        let k = n mod Array.length varint_readers in
        check_reads (Printf.sprintf "%d-byte prefix" n) (String.sub s 0 n) (fun _ -> k)
      done)
    (head :: shapes);
  (* Seeded random bytes, continuation bits set about three times in four,
     so long, overlong and overrunning varints all occur. *)
  for i = 1 to 20_000 do
    let n = Rng.int rng 40 in
    let s =
      String.init n (fun _ ->
          let b = Rng.int rng 256 in
          Char.chr (if Rng.int rng 4 = 0 then b land 0x7F else b lor 0x80))
    in
    let picks = Array.init (n + 1) (fun _ -> Rng.int rng (Array.length varint_readers)) in
    check_reads (Printf.sprintf "random string %d" i) s (fun j -> picks.(j))
  done

(* A declared length the input cannot hold is rejected before anything
   of that length is allocated, and as a codec Diag, never as an
   exception from [Array.make] or [String.sub]. *)
let test_lengths_bounded_by_input () =
  let words () =
    Gc.minor ();
    let s = Gc.quick_stat () in
    s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words
  in
  let readers =
    [
      ("int_array", fun r -> ignore (Codec.R.int_array r : int array));
      ("float_array", fun r -> ignore (Codec.R.float_array r : float array));
      ("array", fun r -> ignore (Codec.R.array r Codec.R.bool : bool array));
      ("string", fun r -> ignore (Codec.R.string r : string));
    ]
  in
  List.iter
    (fun (what, n) ->
      let w = Codec.W.create () in
      Codec.W.int w n;
      Codec.W.int w 7;
      let input = Codec.W.contents w in
      List.iter
        (fun (name, read) ->
          let at = Printf.sprintf "%s, %s" what name in
          let before = words () in
          (match read (Codec.R.of_string input) with
          | () -> Alcotest.failf "%s: read" at
          | exception Diag.Fail d ->
            Alcotest.(check string) (at ^ ": component") "codec" d.Diag.component
          | exception e -> Alcotest.failf "%s: raised %s" at (Printexc.to_string e));
          let used = words () -. before in
          if used > 1_000. then Alcotest.failf "%s: allocated %.0f words" at used)
        readers)
    [
      ("5-byte input", 5_000_000);
      ("Sys.max_array_length + 1", Sys.max_array_length + 1);
      ("max_int", max_int);
    ]

(* A sealed body reads back; a located reader names its component and
   section; a reader built without a section fails as it always has. *)
let test_envelope () =
  let body = Codec.W.create () in
  Codec.W.string body "payload";
  let sealed = Codec.seal ~magic:"TESTMAGC" ~version:3 ~id:"cell-1" body in
  let id, r =
    Codec.unseal ~component:"test" ~magic:"TESTMAGC" ~version:3 ~id:(( = ) "cell-1") sealed
  in
  Alcotest.(check string) "identity" "cell-1" id;
  Alcotest.(check string) "body" "payload" (Codec.R.string r);
  Alcotest.(check bool) "at end" true (Codec.R.at_end r);
  let rejects what ?(magic = "TESTMAGC") ?(version = 3) ?(id = "cell-1") s want =
    match Codec.unseal ~component:"test" ~magic ~version ~id:(( = ) id) s with
    | _ -> Alcotest.failf "%s: accepted" what
    | exception Diag.Fail d ->
      Alcotest.(check string) (what ^ ": component") "test" d.Diag.component;
      (match d.Diag.loc with
      | Diag.Byte { section = "envelope"; offset } ->
        Alcotest.(check int) (what ^ ": offset") want offset
      | _ -> Alcotest.failf "%s: not located in the envelope: %s" what (Diag.render d))
  in
  let n = String.length sealed in
  rejects "other magic" ~magic:"OTHERMAG" sealed 9;
  rejects "other version" ~version:4 sealed 10;
  rejects "other identity" ~id:"cell-2" sealed 10;
  rejects "truncated" (String.sub sealed 0 (n - 1)) (n - 8);
  rejects "trailing byte" (sealed ^ "x") (n - 8);
  let flipped = Bytes.of_string sealed in
  Bytes.set flipped (n - 1) 'X';
  rejects "changed body" (Bytes.to_string flipped) (n - 8);
  let r = Codec.R.of_string ~component:"test" ~section:"head" "\x02" in
  ignore (Codec.R.int r : int);
  (match Codec.R.int r with
  | _ -> Alcotest.fail "read past the end"
  | exception Diag.Fail d ->
    Alcotest.(check bool) "located" true
      (d = Diag.error ~component:"test" ~loc:(Diag.at_byte ~offset:1 ~section:"head")
             "truncated"));
  match Codec.R.int (Codec.R.of_string "") with
  | _ -> Alcotest.fail "read past the end"
  | exception Diag.Fail d ->
    Alcotest.(check bool) "unlocated" true
      (d = Diag.error ~component:"codec" "corrupt snapshot: truncated at byte 0")

(* --- sealed files: one write-and-read path ----------------------------------- *)

let seal_body s =
  let w = Codec.W.create () in
  Codec.W.string w s;
  w

let write_sealed path s =
  Codec.write_sealed ~magic:"TESTMAGC" ~version:3 ~id:"cell-1" path (seal_body s)

(* The body of the copy [read_sealed] takes, if any. *)
let read_sealed path =
  Codec.read_sealed ~component:"test" ~magic:"TESTMAGC" ~version:3 ~id:(( = ) "cell-1") path
  |> Option.map (fun (_, r) -> Codec.R.string r)

(* Run [f] with both write hooks observing (or killing) every step. *)
let with_write_hooks ~written ~step f =
  Atomic_file.crash_after_write_hook := Some written;
  Codec.publish_hook := Some step;
  Fun.protect
    ~finally:(fun () ->
      Atomic_file.crash_after_write_hook := None;
      Codec.publish_hook := None)
    f

(* No rename of a sealed write lands on an existing file: [PATH.next] is
   absent when the temp file is renamed to it, and [PATH] is absent when
   [PATH.next] is renamed to it, for a first write, for rewrites, and
   for the handover of a [PATH.next] a killed write left.  A write that
   renames over the live file fails here. *)
let test_sealed_fresh_names () =
  with_tmp_target @@ fun path ->
  (* Each step, with whether [PATH.next] (at "written", before the temp
     file's rename) or [PATH] (after) exists. *)
  let observed writes =
    let steps = ref [] in
    let note step target = steps := (step, Sys.file_exists target) :: !steps in
    with_write_hooks
      ~written:(fun () -> note "written" (path ^ ".next"))
      ~step:(function
        | Codec.Published -> note "published" path
        | Codec.Removed -> note "removed" path)
      (fun () -> List.iter (write_sealed path) writes);
    List.rev !steps
  in
  Alcotest.(check (list (pair string bool)))
    "every rename's target was absent"
    (List.concat_map
       (fun old -> [ ("written", false); ("published", old); ("removed", false) ])
       [ false; true; true ])
    (observed [ "one"; "two"; "three" ]);
  (* A write killed after publishing leaves [PATH.next] beside [PATH]:
     the next write hands it over before publishing under its name. *)
  (try
     with_write_hooks ~written:ignore
       ~step:(function Codec.Published -> raise Exit | Codec.Removed -> ())
       (fun () -> write_sealed path "killed")
   with Exit -> ());
  Alcotest.(check (list (pair string bool)))
    "a leftover .next is handed over first"
    [ ("removed", false); ("written", false); ("published", true); ("removed", false) ]
    (observed [ "four" ]);
  Alcotest.(check (option string)) "newest copy reads back" (Some "four") (read_sealed path);
  Alcotest.(check bool) "no residue" true (no_temp_residue path)

exception Killed_at of string

(* A kill at each step leaves the newest published copy findable; a
   [.next] that does not unseal gives way to an older copy, and with no
   older copy its failure names it. *)
let test_sealed_newest_copy () =
  with_tmp_target @@ fun path ->
  let next = path ^ ".next" in
  Alcotest.(check (option string)) "no copy" None (read_sealed path);
  write_sealed path "old";
  let killed_at point =
    with_write_hooks
      ~written:(fun () -> if point = "written" then raise (Killed_at point))
      ~step:(function
        | Codec.Published when point = "published" -> raise (Killed_at point)
        | Codec.Removed when point = "removed" -> raise (Killed_at point)
        | _ -> ())
      (fun () ->
        match write_sealed path "new" with
        | () -> Alcotest.failf "%s: the kill did not fire" point
        | exception Killed_at _ -> ());
    (Sys.file_exists path, Sys.file_exists next, read_sealed path)
  in
  Alcotest.(check (triple bool bool (option string)))
    "killed before .next: the old copy" (true, false, Some "old") (killed_at "written");
  Alcotest.(check (triple bool bool (option string)))
    "killed after .next: the new copy" (true, true, Some "new") (killed_at "published");
  write_sealed path "old";
  Alcotest.(check (triple bool bool (option string)))
    "killed after the remove: .next alone" (false, true, Some "new") (killed_at "removed");
  write_sealed path "newer";
  Alcotest.(check (option string)) "a later write hands over" (Some "newer") (read_sealed path);
  Alcotest.(check bool) "and leaves no .next" false (Sys.file_exists next);
  let oc = open_out_bin next in
  output_string oc "torn";
  close_out oc;
  Alcotest.(check (option string)) "a torn .next gives way" (Some "newer") (read_sealed path);
  Sys.remove path;
  (match read_sealed path with
  | _ -> Alcotest.fail "a torn .next alone was accepted"
  | exception Diag.Fail d ->
    Alcotest.(check bool) "the failure names .next" true
      (String.starts_with ~prefix:(next ^ ": ") d.Diag.message));
  Codec.remove_sealed path;
  Alcotest.(check (list string)) "removed, every copy" []
    (Array.to_list (Sys.readdir (Filename.dirname path)))

(* Two domains writing one sealed path leave one writer's complete copy
   and nothing else, as two atomic writers do. *)
let test_sealed_concurrent_writers () =
  with_tmp_target @@ fun path ->
  let payload tag = String.init 4096 (fun i -> Char.chr ((tag + i) land 0x3f + 32)) in
  let writer tag () =
    for _ = 1 to 50 do
      write_sealed path (payload tag)
    done
  in
  let d1 = Domain.spawn (writer 1) in
  let d2 = Domain.spawn (writer 2) in
  Domain.join d1;
  Domain.join d2;
  let got = read_sealed path in
  Alcotest.(check bool)
    "file is one writer's complete copy" true
    (got = Some (payload 1) || got = Some (payload 2));
  Alcotest.(check bool) "no residue" true (no_temp_residue path)

let test_sealed_names () =
  with_tmp_target @@ fun path ->
  let dir = Filename.dirname path in
  List.iter
    (fun f -> close_out (open_out (Filename.concat dir f)))
    [ "b.resp.next"; "a.resp"; "b.resp"; "c.resp.next"; "d.tmp" ];
  Alcotest.(check (list string)) "each name once, .next under its own"
    [ "a.resp"; "b.resp"; "c.resp"; "d.tmp" ] (Codec.sealed_names dir)

let suite =
  [
    Alcotest.test_case "rng determinism" `Quick test_rng_determinism;
    Alcotest.test_case "rng bounds" `Quick test_rng_bounds;
    Alcotest.test_case "rng split" `Quick test_rng_split_independent;
    Alcotest.test_case "rng shuffle" `Quick test_rng_shuffle_permutes;
    Alcotest.test_case "mean" `Quick test_mean;
    Alcotest.test_case "mean weighted" `Quick test_mean_weighted;
    Alcotest.test_case "histogram" `Quick test_histogram;
    Alcotest.test_case "histogram percentile" `Quick test_histogram_percentile;
    Alcotest.test_case "geomean" `Quick test_geomean;
    Alcotest.test_case "table render" `Quick test_table_render;
    Alcotest.test_case "table cells" `Quick test_table_cells;
    Alcotest.test_case "table arity" `Quick test_table_mismatched_row;
    Alcotest.test_case "digraph rpo" `Quick test_digraph_rpo;
    Alcotest.test_case "digraph back edges" `Quick test_digraph_back_edges;
    Alcotest.test_case "digraph dominators" `Quick test_digraph_dominators;
    Alcotest.test_case "digraph natural loop" `Quick test_digraph_natural_loop;
    Alcotest.test_case "digraph unreachable" `Quick test_digraph_unreachable;
    Alcotest.test_case "textplot" `Quick test_textplot;
    Alcotest.test_case "atomic write" `Quick test_atomic_write;
    Alcotest.test_case "atomic mid-write kill" `Quick test_atomic_mid_write_kill;
    Alcotest.test_case "atomic writer raises" `Quick test_atomic_writer_raises;
    Alcotest.test_case "atomic concurrent writers" `Quick test_atomic_concurrent_writers;
    Alcotest.test_case "fs tree" `Quick test_fs_tree;
    Alcotest.test_case "fnv1a64 matches vectors and reference model" `Quick test_fnv1a64;
    Alcotest.test_case "varint writer matches reference model" `Quick test_varint_writer;
    Alcotest.test_case "varint reader matches reference model" `Quick test_varint_reader;
    Alcotest.test_case "lengths bounded by the input" `Quick test_lengths_bounded_by_input;
    Alcotest.test_case "sealed envelope" `Quick test_envelope;
    Alcotest.test_case "sealed write renames onto fresh names only" `Quick
      test_sealed_fresh_names;
    Alcotest.test_case "sealed read takes the newest copy" `Quick test_sealed_newest_copy;
    Alcotest.test_case "sealed concurrent writers" `Quick test_sealed_concurrent_writers;
    Alcotest.test_case "sealed names list .next copies once" `Quick test_sealed_names;
  ]
