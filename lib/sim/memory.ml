(* 4096 words (32KB) per page. *)
let page_bits = 12
let page_words = 1 lsl page_bits
let page_mask = page_words - 1

type page = { ints : int array; mutable flts : float array option }

(* Two tiers of pages.  Every address of the linker's layout (the data
   segment from 16 MB up, the stack below 64 MB) has a page key below
   [flat_keys], and those pages sit in a flat table indexed by key, so the
   lookup on every simulated load and store is one array read.  Any other
   address (an out-of-layout pointer) falls back to a hashtable.  Keys are
   word indices shifted right, so they are never negative. *)
let flat_keys = 0x4_000_000 lsr (3 + page_bits)

type t = {
  flat : page array;  (** [no_page] = not yet touched *)
  wild : (int, page) Hashtbl.t;  (** every other key *)
}

let no_page = { ints = [||]; flts = None }

let create () = { flat = Array.make flat_keys no_page; wild = Hashtbl.create 8 }

exception Unaligned of int

let[@inline] check_aligned addr = if addr land 7 <> 0 then raise (Unaligned addr)

let[@inline] word_index addr =
  check_aligned addr;
  addr lsr 3

let new_page () = { ints = Array.make page_words 0; flts = None }

(* The first touch of a flat page, or any wild page. *)
let page_miss t key =
  if key < flat_keys then begin
    let p = new_page () in
    Array.unsafe_set t.flat key p;
    p
  end
  else
    match Hashtbl.find_opt t.wild key with
    | Some p -> p
    | None ->
      let p = new_page () in
      Hashtbl.add t.wild key p;
      p

(* [key] is non-negative, so [key < flat_keys] bounds the flat read. *)
let[@inline] page_of t wi =
  let key = wi lsr page_bits in
  let p = if key < flat_keys then Array.unsafe_get t.flat key else no_page in
  if p != no_page then p else page_miss t key

(* [wi land page_mask] < page_words by construction, so the bounds
   check would always pass — these accesses sit on the simulator's
   hottest path. *)
let load t addr =
  let wi = word_index addr in
  Array.unsafe_get (page_of t wi).ints (wi land page_mask)

let store t addr v =
  let wi = word_index addr in
  Array.unsafe_set (page_of t wi).ints (wi land page_mask) v

let flts_of p =
  match p.flts with
  | Some a -> a
  | None ->
    let a = Array.make page_words 0.0 in
    p.flts <- Some a;
    a

let loadf t addr =
  let wi = word_index addr in
  let p = page_of t wi in
  match p.flts with
  | Some a -> Array.unsafe_get a (wi land page_mask)
  | None -> 0.0

let storef t addr v =
  let wi = word_index addr in
  Array.unsafe_set (flts_of (page_of t wi)) (wi land page_mask) v

let footprint_words t =
  let n = Array.fold_left (fun n p -> if p != no_page then n + 1 else n) 0 t.flat in
  (n + Hashtbl.length t.wild) * page_words

(* Pages are checkpointed in ascending key order so equal memory states
   produce identical snapshot bytes regardless of insertion history. *)
let save_state t w =
  Bisa_base.Codec.W.section w "memory";
  let pages = ref (Hashtbl.fold (fun k p acc -> (k, p) :: acc) t.wild []) in
  Array.iteri (fun k p -> if p != no_page then pages := (k, p) :: !pages) t.flat;
  let pages = List.sort (fun (a, _) (b, _) -> Int.compare a b) !pages in
  Bisa_base.Codec.W.int w (List.length pages);
  List.iter
    (fun (key, p) ->
      Bisa_base.Codec.W.int w key;
      Bisa_base.Codec.W.int_array w p.ints;
      Bisa_base.Codec.W.option w Bisa_base.Codec.W.float_array p.flts)
    pages

let load_state t r =
  Bisa_base.Codec.R.section r "memory";
  Array.fill t.flat 0 flat_keys no_page;
  Hashtbl.reset t.wild;
  let n = Bisa_base.Codec.R.int r in
  for _ = 1 to n do
    let key = Bisa_base.Codec.R.int r in
    let ints = Bisa_base.Codec.R.int_array r in
    let flts = Bisa_base.Codec.R.option r Bisa_base.Codec.R.float_array in
    if Array.length ints <> page_words then invalid_arg "Memory.load: page size mismatch";
    let p = { ints; flts } in
    if key >= 0 && key < flat_keys then t.flat.(key) <- p
    else Hashtbl.replace t.wild key p
  done
