type config = { size_bytes : int; assoc : int; line_bytes : int }

let kb n = n * 1024
let of_kb n = { size_bytes = kb n; assoc = 4; line_bytes = 32 }
let config_16k = of_kb 16
let config_32k = of_kb 32
let config_64k = of_kb 64

let null_hook ~addr:_ ~hit:_ = ()

type t = {
  assoc : int;
  sets : int;
  line_shift : int;
  (* All standard geometries have a power-of-two set count, for which
     set/tag extraction is a mask and a shift instead of an integer
     division; [set_shift = -1] falls back to mod/div. *)
  set_mask : int;
  set_shift : int;
  tags : int array;  (** sets * assoc; -1 = invalid *)
  lru : int array;  (** larger = more recently used *)
  mutable tick : int;
  mutable n_access : int;
  mutable n_miss : int;
  mutable hook : addr:int -> hit:bool -> unit;
}

let log2i n =
  let rec go k = if 1 lsl k >= n then k else go (k + 1) in
  go 0

let create (cfg : config) =
  (* At least one set, and lines of at least two bytes so [line_shift >= 1]
     keeps every line number non-negative: [access] relies on both. *)
  if cfg.assoc < 1 || cfg.line_bytes < 2 || cfg.size_bytes < cfg.assoc * cfg.line_bytes
  then invalid_arg "Cache.create: degenerate geometry";
  if cfg.size_bytes mod (cfg.assoc * cfg.line_bytes) <> 0 then
    invalid_arg "Cache.create: size not divisible by assoc*line";
  let sets = cfg.size_bytes / (cfg.assoc * cfg.line_bytes) in
  let pow2 = sets land (sets - 1) = 0 in
  {
    assoc = cfg.assoc;
    sets;
    line_shift = log2i cfg.line_bytes;
    set_mask = (if pow2 then sets - 1 else 0);
    set_shift = (if pow2 then log2i sets else -1);
    tags = Array.make (sets * cfg.assoc) (-1);
    lru = Array.make (sets * cfg.assoc) 0;
    tick = 0;
    n_access = 0;
    n_miss = 0;
    hook = null_hook;
  }

let set_hook t h = t.hook <- h

(* [line] is non-negative ([line_shift >= 1]), so [set < sets] on both
   paths and every way index [base + i] with [i < assoc] is below
   [sets * assoc], the length of [tags] and [lru]: the scans index
   unsafely. *)
let access t addr =
  let line = addr lsr t.line_shift in
  let set = if t.set_shift >= 0 then line land t.set_mask else line mod t.sets in
  let tag = if t.set_shift >= 0 then line lsr t.set_shift else line / t.sets in
  let assoc = t.assoc in
  let base = set * assoc in
  let tags = t.tags and lru = t.lru in
  t.n_access <- t.n_access + 1;
  t.tick <- t.tick + 1;
  (* Flat way scan — a capturing local recursion would allocate a closure
     per access under classic ocamlopt, and this is the hottest uarch
     component call. *)
  let i = ref 0 in
  while !i < assoc && Array.unsafe_get tags (base + !i) <> tag do
    incr i
  done;
  let hit =
    if !i < assoc then begin
      Array.unsafe_set lru (base + !i) t.tick;
      true
    end
    else begin
      t.n_miss <- t.n_miss + 1;
      (* Evict the least recently used way. *)
      let victim = ref base in
      for j = base + 1 to base + assoc - 1 do
        if Array.unsafe_get lru j < Array.unsafe_get lru !victim then victim := j
      done;
      Array.unsafe_set tags !victim tag;
      Array.unsafe_set lru !victim t.tick;
      false
    end
  in
  if t.hook != null_hook then t.hook ~addr ~hit;
  hit

let access_range t addr len =
  assert (len >= 0);
  let first = addr lsr t.line_shift in
  let last = (addr + Int.max 0 (len - 1)) lsr t.line_shift in
  let misses = ref 0 in
  for line = first to last do
    if not (access t (line lsl t.line_shift)) then incr misses
  done;
  !misses

let evict t addr =
  let line = addr lsr t.line_shift in
  let set = if t.set_shift >= 0 then line land t.set_mask else line mod t.sets in
  let tag = if t.set_shift >= 0 then line lsr t.set_shift else line / t.sets in
  let base = set * t.assoc in
  for i = 0 to t.assoc - 1 do
    if t.tags.(base + i) = tag then begin
      t.tags.(base + i) <- -1;
      t.lru.(base + i) <- 0
    end
  done

let accesses t = t.n_access
let misses t = t.n_miss

let reset_stats t =
  t.n_access <- 0;
  t.n_miss <- 0

let lines t = t.sets * t.assoc

(* Checkpointing: tags, LRU stamps, and counters.  The hook is not
   serialized — the owner reattaches it after [load]. *)
let save t w =
  Bisa_base.Codec.W.section w "cache";
  Bisa_base.Codec.W.int w (Array.length t.tags);
  Bisa_base.Codec.W.int_array w t.tags;
  Bisa_base.Codec.W.int_array w t.lru;
  Bisa_base.Codec.W.int w t.tick;
  Bisa_base.Codec.W.int w t.n_access;
  Bisa_base.Codec.W.int w t.n_miss

let load t r =
  Bisa_base.Codec.R.section r "cache";
  let n = Bisa_base.Codec.R.int r in
  if n <> Array.length t.tags then invalid_arg "Cache.load: geometry mismatch";
  let tags = Bisa_base.Codec.R.int_array r in
  let lru = Bisa_base.Codec.R.int_array r in
  Array.blit tags 0 t.tags 0 n;
  Array.blit lru 0 t.lru 0 n;
  t.tick <- Bisa_base.Codec.R.int r;
  t.n_access <- Bisa_base.Codec.R.int r;
  t.n_miss <- Bisa_base.Codec.R.int r
