type item = Oint of int | Oflt of float

type t = { ret : int; items : item list }

(* Floats compare by their bits, except that any NaN matches any NaN:
   [=] would equate 0.0 with -0.0 and tell a NaN from itself. *)
let equal_item i j =
  match (i, j) with
  | Oint x, Oint y -> x = y
  | Oflt x, Oflt y ->
    Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
    || (Float.is_nan x && Float.is_nan y)
  | Oint _, Oflt _ | Oflt _, Oint _ -> false

let equal a b = a.ret = b.ret && List.equal equal_item a.items b.items

let item_to_string = function
  | Oint v -> string_of_int v
  | Oflt v -> Printf.sprintf "%.17g" v

let to_string t =
  Printf.sprintf "ret=%d [%s]" t.ret (String.concat "; " (List.map item_to_string t.items))

(* Bounded accumulation for paper-scale streamed runs: past [cap] retained
   items the sink keeps only the running count and a rolling content hash,
   so a 100M-op run's output costs O(cap) memory while interrupted and
   uninterrupted runs can still be compared digest-for-digest. *)
module Sink = struct
  type sink = {
    mutable cap : int;
    mutable kept_rev : item list;
    mutable kept : int;
    mutable count : int;
    mutable hash : int64;
  }

  let fnv_prime = 0x100000001B3L

  let create () = { cap = max_int; kept_rev = []; kept = 0; count = 0; hash = 0xCBF29CE484222325L }

  let set_cap t cap =
    if cap < 0 then invalid_arg "Output.Sink.set_cap: negative cap";
    t.cap <- cap

  let mix t bits =
    t.hash <- Int64.mul (Int64.logxor t.hash bits) fnv_prime

  let push t item =
    t.count <- t.count + 1;
    (match item with
    | Oint v ->
      mix t 1L;
      mix t (Int64.of_int v)
    | Oflt v ->
      mix t 2L;
      mix t (Int64.bits_of_float v));
    if t.kept < t.cap then begin
      t.kept_rev <- item :: t.kept_rev;
      t.kept <- t.kept + 1
    end

  let count t = t.count
  let hash t = t.hash
  let truncated t = t.count > t.kept
  let items t = List.rev t.kept_rev

  let save t w =
    Bisa_base.Codec.W.section w "output";
    Bisa_base.Codec.W.int w t.cap;
    Bisa_base.Codec.W.int w t.count;
    Bisa_base.Codec.W.i64 w t.hash;
    Bisa_base.Codec.W.int w t.kept;
    List.iter
      (function
        | Oint v ->
          Bisa_base.Codec.W.int w 1;
          Bisa_base.Codec.W.int w v
        | Oflt v ->
          Bisa_base.Codec.W.int w 2;
          Bisa_base.Codec.W.float w v)
      t.kept_rev

  let load t r =
    Bisa_base.Codec.R.section r "output";
    t.cap <- Bisa_base.Codec.R.int r;
    t.count <- Bisa_base.Codec.R.int r;
    t.hash <- Bisa_base.Codec.R.i64 r;
    t.kept <- Bisa_base.Codec.R.int r;
    let rec go n acc =
      if n = 0 then acc
      else begin
        let item =
          match Bisa_base.Codec.R.int r with
          | 1 -> Oint (Bisa_base.Codec.R.int r)
          | 2 -> Oflt (Bisa_base.Codec.R.float r)
          | k -> invalid_arg (Printf.sprintf "Output.Sink.load: bad item tag %d" k)
        in
        go (n - 1) (item :: acc)
      end
    in
    (* kept_rev is stored newest-first and read back in that order. *)
    t.kept_rev <- List.rev (go t.kept [])
end
