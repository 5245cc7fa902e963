open Bigarray

(* Random read-modify-writes over a 4 MB array (twice the per-core L2)
   and replacements and lookups in a small hash table: the kind of work
   that slows down when neighbours contend for the host's caches and
   memory.  The array is a bigarray outside the OCaml heap and the table
   holds immediate values, so once allocated they leave the heap and its
   collector's pacing as they were. *)
let bits = 19
let keys = 8192

(* One state per domain, so domains can time the kernel at once. *)
let state =
  Domain.DLS.new_key (fun () ->
      let a = Array1.create int c_layout (1 lsl bits) in
      Array1.fill a 0;
      (a, Hashtbl.create keys))

let kernel () =
  let (a : (int, int_elt, c_layout) Array1.t), tbl = Domain.DLS.get state in
  let x = ref 0x2545F491 and acc = ref 0 in
  for i = 1 to 1_000_000 do
    x := !x lxor (!x lsl 13);
    x := !x lxor (!x lsr 7);
    x := !x lxor (!x lsl 17);
    let j = !x land ((1 lsl bits) - 1) in
    let v = Array1.unsafe_get a j in
    if v land 1 = 0 then Array1.unsafe_set a j (v + i) else acc := !acc + v;
    if i land 7 = 0 then Hashtbl.replace tbl (j land (keys - 1)) !acc
    else if i land 7 = 4 then
      match Hashtbl.find_opt tbl (j land (keys - 1)) with Some v -> acc := !acc + v | None -> ()
  done;
  !acc

let sample () =
  let t0 = Unix.gettimeofday () in
  ignore (Sys.opaque_identity (kernel ()));
  Unix.gettimeofday () -. t0

(* Every domain of the pool takes one task; each starts its kernel only
   once all have started, so the kernels run side by side.  The pool must
   be idle, or the tasks would wait for its other work. *)
let sample_on pool =
  let n = Bisa_base.Pool.workers pool in
  let started = Atomic.make 0 in
  let timed () =
    Atomic.incr started;
    while Atomic.get started < n do
      Domain.cpu_relax ()
    done;
    sample ()
  in
  List.fold_left ( +. ) 0. (Bisa_base.Pool.map_list pool timed (List.init n ignore)) /. float_of_int n

let reference = 0.03
