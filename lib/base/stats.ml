module Mean = struct
  type t = {
    mutable count : int;
    mutable total : float;
    mutable vmin : float;
    mutable vmax : float;
  }

  let create () = { count = 0; total = 0.0; vmin = infinity; vmax = neg_infinity }

  let add_n t v n =
    t.count <- t.count + n;
    t.total <- t.total +. (v *. float_of_int n);
    if v < t.vmin then t.vmin <- v;
    if v > t.vmax then t.vmax <- v

  let add t v = add_n t v 1
  let count t = t.count
  let total t = t.total
  let mean t = if t.count = 0 then 0.0 else t.total /. float_of_int t.count
  let min t = t.vmin
  let max t = t.vmax
end

module Histogram = struct
  type t = { counts : int array; mutable total : int }

  let create ~buckets =
    assert (buckets > 0);
    { counts = Array.make buckets 0; total = 0 }

  let clamp t v =
    if v < 0 then 0
    else if v >= Array.length t.counts then Array.length t.counts - 1
    else v

  let add t v =
    let i = clamp t v in
    t.counts.(i) <- t.counts.(i) + 1;
    t.total <- t.total + 1

  let count t v = t.counts.(clamp t v)
  let total t = t.total

  let mean t =
    if t.total = 0 then 0.0
    else begin
      let sum = ref 0 in
      Array.iteri (fun i c -> sum := !sum + (i * c)) t.counts;
      float_of_int !sum /. float_of_int t.total
    end

  let percentile t p =
    if t.total = 0 then 0
    else begin
      let target = p *. float_of_int t.total in
      let rec scan i acc =
        if i >= Array.length t.counts - 1 then i
        else
          let acc = acc + t.counts.(i) in
          if float_of_int acc >= target then i else scan (i + 1) acc
      in
      scan 0 0
    end

  let iter t f = Array.iteri (fun i c -> if c > 0 then f i c) t.counts

  let save t w =
    Codec.W.int_array w t.counts;
    Codec.W.int w t.total

  let load t r =
    let counts = Codec.R.int_array r in
    if Array.length counts <> Array.length t.counts then
      invalid_arg "Histogram.load: bucket count mismatch";
    Array.blit counts 0 t.counts 0 (Array.length counts);
    t.total <- Codec.R.int r
end

let ratio num den = if den = 0 then 0.0 else float_of_int num /. float_of_int den

let geomean = function
  | [] -> 0.0
  | vs ->
    let n = List.length vs in
    let log_sum = List.fold_left (fun acc v -> acc +. log v) 0.0 vs in
    exp (log_sum /. float_of_int n)
