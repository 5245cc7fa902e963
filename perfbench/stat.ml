module Rng = Bisa_base.Rng

let quantile xs q =
  match List.sort compare xs with
  | [] -> invalid_arg "Stat.quantile: empty sample"
  | sorted ->
    let a = Array.of_list sorted in
    let pos = q *. float_of_int (Array.length a - 1) in
    let i = int_of_float pos in
    if i >= Array.length a - 1 then a.(Array.length a - 1)
    else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median xs = quantile xs 0.5

(* Levels in tenths of a percent, so "ten samples beyond" is exact
   integer arithmetic: n * (1000 - level) / 1000 >= 10.  p99.9 is left
   out: on serve, the one workload with enough operations for it, it
   falls among the 20 cold requests of a pass, whose order turns on how
   the two callers' requests interleave in the daemon, and over ten runs
   it spread by 15-28% of its median where p99 spread by 7-10%. *)
let tail_level n =
  match List.find_opt (fun l -> n * (1000 - l) >= 10_000) [ 990; 900; 500 ] with
  | Some l -> l
  | None -> 500

let level_name l = Printf.sprintf "p%d" (l / 10)

let zipf_ranks ~seed ~keys ~count =
  let rng = Rng.create seed in
  let cdf = Array.make keys 0. in
  let acc = ref 0. in
  for k = 0 to keys - 1 do
    acc := !acc +. (1. /. float_of_int (k + 1));
    cdf.(k) <- !acc
  done;
  Array.init count (fun _ ->
      let u = Rng.float rng !acc in
      (* First rank whose cumulative weight exceeds u. *)
      let lo = ref 0 and hi = ref (keys - 1) in
      while !lo < !hi do
        let mid = (!lo + !hi) / 2 in
        if cdf.(mid) > u then hi := mid else lo := mid + 1
      done;
      !lo)
