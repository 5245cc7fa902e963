module Reg = Bisa_isa.Reg

(* Functional-unit issue calendar: per-cycle slot counters in a tagged
   ring.  In-flight issue activity spans far less than the ring, so a tag
   mismatch simply means the slot is from a dead cycle. *)
let ring_bits = 15
let ring_size = 1 lsl ring_bits
let ring_mask = ring_size - 1

type t = {
  cfg : Config.t;
  fu_count : int;  (** [cfg.fu_count], hoisted out of the inner loop *)
  reg_ready : int array;
  fu_count_at : int array;
  fu_tag : int array;
  (* Store-completion map (addr -> completion of last committed store):
     open-addressed with linear probing, power-of-two capacity, key -1 =
     empty.  Addresses are byte offsets >= 0 and mostly sequential, so
     identity hashing probes O(1). *)
  mutable sm_key : int array;
  mutable sm_val : int array;
  mutable sm_n : int;
  mutable sm_mask : int;
  (* Per-unit completion scratch: [comp.(k)] is the completion time of
     slot [lo + k] of the unit in flight.  Pre-scheduled [use_def] links
     index it directly, so there is no per-unit register overlay to clear
     — dead entries are simply never read. *)
  mutable comp : int array;
  (* Per-unit store overlay: a unit holds at most issue-width stores, so a
     linear-scan pair of arrays beats any hashing. *)
  mutable ls_addr : int array;
  mutable ls_time : int array;
  mutable ls_n : int;
  (* Retirement window as a ring of (retire_time, op_count), oldest first;
     capacity is always a power of two. *)
  mutable win_retire : int array;
  mutable win_count : int array;
  mutable win_mask : int;
  mutable win_head : int;
  mutable win_len : int;
  mutable window_ops : int;
  mutable last_retire_time : int;
  (* Results of the most recent [run_unit], read through accessors — the
     hot path returns nothing so it allocates nothing. *)
  mutable u_resolve : int;
  mutable u_retire : int;
  dcache : Bisa_uarch.Cache.t option;
}

let sm_init_cap = 8192

let create (cfg : Config.t) =
  {
    cfg;
    fu_count = cfg.fu_count;
    reg_ready = Array.make Reg.flat_count 0;
    fu_count_at = Array.make ring_size 0;
    fu_tag = Array.make ring_size (-1);
    sm_key = Array.make sm_init_cap (-1);
    sm_val = Array.make sm_init_cap 0;
    sm_n = 0;
    sm_mask = sm_init_cap - 1;
    comp = Array.make 64 0;
    ls_addr = Array.make 32 0;
    ls_time = Array.make 32 0;
    ls_n = 0;
    win_retire = Array.make 64 0;
    win_count = Array.make 64 0;
    win_mask = 63;
    win_head = 0;
    win_len = 0;
    window_ops = 0;
    last_retire_time = 0;
    u_resolve = 0;
    u_retire = 0;
    dcache = Option.map Bisa_uarch.Cache.create cfg.dcache;
  }

let dcache t = t.dcache

(* Store map: [sm_find] yields 0 for absent addresses (the map only ever
   holds positive completion times), [sm_bump] keeps the max. *)

let sm_find t addr =
  let mask = t.sm_mask in
  let keys = t.sm_key in
  let i = ref (addr land mask) in
  let k = ref (Array.unsafe_get keys !i) in
  while !k <> addr && !k >= 0 do
    i := (!i + 1) land mask;
    k := Array.unsafe_get keys !i
  done;
  if !k = addr then Array.unsafe_get t.sm_val !i else 0

let sm_grow t =
  let old_key = t.sm_key and old_val = t.sm_val in
  let cap = 2 * Array.length old_key in
  let mask = cap - 1 in
  let keys = Array.make cap (-1) and vals = Array.make cap 0 in
  for i = 0 to Array.length old_key - 1 do
    let k = old_key.(i) in
    if k >= 0 then begin
      let j = ref (k land mask) in
      while keys.(!j) >= 0 do
        j := (!j + 1) land mask
      done;
      keys.(!j) <- k;
      vals.(!j) <- old_val.(i)
    end
  done;
  t.sm_key <- keys;
  t.sm_val <- vals;
  t.sm_mask <- mask

let rec sm_bump t addr v =
  let mask = t.sm_mask in
  let keys = t.sm_key in
  let i = ref (addr land mask) in
  let k = ref (Array.unsafe_get keys !i) in
  while !k <> addr && !k >= 0 do
    i := (!i + 1) land mask;
    k := Array.unsafe_get keys !i
  done;
  if !k = addr then begin
    if v > Array.unsafe_get t.sm_val !i then Array.unsafe_set t.sm_val !i v
  end
  else if 2 * (t.sm_n + 1) > Array.length keys then begin
    sm_grow t;
    sm_bump t addr v
  end
  else begin
    Array.unsafe_set keys !i addr;
    Array.unsafe_set t.sm_val !i v;
    t.sm_n <- t.sm_n + 1
  end

let win_pop t =
  t.window_ops <- t.window_ops - t.win_count.(t.win_head);
  t.win_head <- (t.win_head + 1) land t.win_mask;
  t.win_len <- t.win_len - 1

let win_push t retire count =
  let cap = Array.length t.win_retire in
  if t.win_len = cap then begin
    let nr = Array.make (2 * cap) 0 and nc = Array.make (2 * cap) 0 in
    for i = 0 to t.win_len - 1 do
      let j = (t.win_head + i) land t.win_mask in
      nr.(i) <- t.win_retire.(j);
      nc.(i) <- t.win_count.(j)
    done;
    t.win_retire <- nr;
    t.win_count <- nc;
    t.win_mask <- (2 * cap) - 1;
    t.win_head <- 0
  end;
  let i = (t.win_head + t.win_len) land t.win_mask in
  t.win_retire.(i) <- retire;
  t.win_count.(i) <- count;
  t.win_len <- t.win_len + 1

let admit t ~want ~op_count =
  let time = ref want in
  while t.win_len > 0 && t.win_retire.(t.win_head) <= !time do
    win_pop t
  done;
  (* Wait for the oldest unit to retire until there is room.  An empty
     window that still does not fit means the unit alone exceeds capacity
     (cannot happen with issue-width blocks); admit it regardless. *)
  while
    t.win_len > 0
    && (t.win_len >= t.cfg.window_blocks
       || t.window_ops + op_count > t.cfg.window_ops)
  do
    let oldest = t.win_retire.(t.win_head) in
    if oldest > !time then time := oldest;
    while t.win_len > 0 && t.win_retire.(t.win_head) <= !time do
      win_pop t
    done
  done;
  !time

let grow_ls t =
  let cap = Array.length t.ls_addr in
  let na = Array.make (2 * cap) 0 and nt = Array.make (2 * cap) 0 in
  Array.blit t.ls_addr 0 na 0 cap;
  Array.blit t.ls_time 0 nt 0 cap;
  t.ls_addr <- na;
  t.ls_time <- nt

(* The issue path.  Every op of a unit, body or terminator, goes through
   the same [@inline] steps: operand readiness, FU-calendar booking and,
   when committing, the last-writer publish.

   [imax] is [max] without a branch: times are cycle counts, far from the
   ends of the int range, so [a - b] cannot overflow and its sign picks
   the larger. *)
let sign_shift = Sys.int_size - 1

let[@inline] imax a b =
  let d = a - b in
  a - (d land (d asr sign_shift))

let[@inline] latency info = (info lsr Predecode.info_lat_shift) land 15

(* Operand readiness: [ready], raised to each use's producer completion.
   A producer is in flight in this unit iff its slot is in [lo, lo+len)
   (for a body op [use_def >= lo] implies the upper bound; the
   terminator's in-flight producers are confined to the executed body),
   and then its completion is in [comp]; otherwise the register's last
   committed writer holds it. *)
let[@inline] operands_ready t (tp : Predecode.t) ~lo ~len info ready =
  let ulo =
    (info lsr Predecode.info_off_shift)
    + ((info lsr Predecode.info_nd_shift) land Predecode.info_cnt_mask)
  in
  let nu = (info lsr Predecode.info_nu_shift) land Predecode.info_cnt_mask in
  let ready = ref ready in
  for j = ulo to ulo + nu - 1 do
    let d = Array.unsafe_get tp.use_def j in
    let v =
      if d >= lo && d - lo < len then Array.unsafe_get t.comp (d - lo)
      else Array.unsafe_get t.reg_ready (Array.unsafe_get tp.regs j)
    in
    ready := imax !ready v
  done;
  !ready

(* The calendar's slow path: step past every full cycle, then book the
   first one with a free unit.  The fast path
   below falls back to it only when cycle [c] is full (rare at the default
   sixteen units), or when [fu_count] < 1, where the walk books one op
   per cycle. *)
let book_full t c =
  let fu_tag = t.fu_tag and fu_count_at = t.fu_count_at in
  let c = ref c in
  let ci = ref (!c land ring_mask) in
  while
    Array.unsafe_get fu_tag !ci = !c
    && Array.unsafe_get fu_count_at !ci >= t.fu_count
  do
    incr c;
    ci := !c land ring_mask
  done;
  if Array.unsafe_get fu_tag !ci = !c then
    Array.unsafe_set fu_count_at !ci (Array.unsafe_get fu_count_at !ci + 1)
  else begin
    Array.unsafe_set fu_tag !ci !c;
    Array.unsafe_set fu_count_at !ci 1
  end;
  !c

(* FU-calendar booking: the first cycle at or after [c] with a free unit.
   A ring slot whose tag is not [c] belongs to a dead cycle and holds no
   bookings for [c]; the tag test is arithmetic ([live] is -1 on a match,
   else 0), so the count of cycle [c] is one masked load.  Booking writes
   the tag and the count either way, so the ring (and a snapshot of it)
   does not depend on which path booked. *)
let[@inline] book t c =
  let ci = c land ring_mask in
  let x = Array.unsafe_get t.fu_tag ci lxor c in
  let live = lnot ((x lor -x) asr sign_shift) in
  let n = Array.unsafe_get t.fu_count_at ci land live in
  if n < t.fu_count then begin
    Array.unsafe_set t.fu_tag ci c;
    Array.unsafe_set t.fu_count_at ci (n + 1);
    c
  end
  else book_full t c

(* Last-writer publish: a def reaches the scoreboard only if no later slot
   of the unit, up to [hi], writes the same register again. *)
let[@inline] publish t (tp : Predecode.t) ~hi info complete =
  let off = info lsr Predecode.info_off_shift in
  let nd = (info lsr Predecode.info_nd_shift) land Predecode.info_cnt_mask in
  for j = off to off + nd - 1 do
    let dn = Array.unsafe_get tp.def_next j in
    if dn < 0 || dn > hi then begin
      let r = Array.unsafe_get tp.regs j in
      Array.unsafe_set t.reg_ready r (imax (Array.unsafe_get t.reg_ready r) complete)
    end
  done

(* Issue one op no earlier than [floor] (the cycle after dispatch, or a
   load or store's last store to its address if later): its operands
   ready, then a unit booked.  Returns the issue cycle. *)
let[@inline] issue t tp ~lo ~len info floor =
  book t (operands_ready t tp ~lo ~len info floor)

(* Memory ordering: the completion of the last store to [addr], committed
   (the store map) or earlier in this unit (store-to-load forwarding). *)
let store_done t addr =
  let sd = ref (sm_find t addr) in
  for i = 0 to t.ls_n - 1 do
    if Array.unsafe_get t.ls_addr i = addr then sd := imax !sd (Array.unsafe_get t.ls_time i)
  done;
  !sd

let load_penalty t addr =
  match t.dcache with
  | Some c -> if Bisa_uarch.Cache.access c addr then 0 else t.cfg.l2_latency
  | None -> 0

(* Record a unit-local store in the overlay, one entry per address. *)
let buffer_store t addr complete =
  let found = ref false in
  let i = ref 0 in
  while (not !found) && !i < t.ls_n do
    if t.ls_addr.(!i) = addr then begin
      t.ls_time.(!i) <- complete;
      found := true
    end;
    incr i
  done;
  if not !found then begin
    if t.ls_n = Array.length t.ls_addr then grow_ls t;
    t.ls_addr.(t.ls_n) <- addr;
    t.ls_time.(t.ls_n) <- complete;
    t.ls_n <- t.ls_n + 1
  end

(* One fetch unit: template slots [lo, lo+len) of [tp] (plus slot [term]
   when [term >= 0]), with the k-th body op's memory address supplied as
   [mem_addrs.(mem_off + k)].

   The walk reads the pre-scheduled facts: the packed [info] word
   supplies operand counts, latency and memory kind; a use's producer is
   in flight in this very unit iff [use_def >= lo] (slots of a unit are
   consecutive), in which case its completion is read straight out of
   [comp]; a def publishes to the global scoreboard iff it is the unit's
   last writer, decided by [def_next] falling outside the unit.  Nothing
   is recomputed per dynamic op and nothing is allocated.

   Bounds discipline: the slot range, [term] and the [mem_addrs] span are
   validated here once; register indexes were validated at predecode-build
   time; [use_def]/[def_next] entries are slot indexes by construction;
   [comp] is sized to [len] below.  Everything after the entry checks may
   therefore index unsafely. *)
let run_unit t ~dispatch ~commit (tp : Predecode.t) ~lo ~len ~term
    ~(mem_addrs : int array) ~mem_off =
  let nslots = Array.length tp.Predecode.info in
  if
    lo < 0 || len < 0
    || lo + len > nslots
    || term >= nslots
    || mem_off < 0
    || mem_off + len > Array.length mem_addrs
  then invalid_arg "Engine.run_unit: slot range out of bounds";
  if len > Array.length t.comp then begin
    let cap = ref (Array.length t.comp) in
    while !cap < len do
      cap := 2 * !cap
    done;
    t.comp <- Array.make !cap 0
  end;
  t.ls_n <- 0;
  let info_tab = tp.Predecode.info in
  let dmin = dispatch + 1 in
  (* Highest slot this unit executes: its defs shadow earlier in-unit defs
     of the same register up to here. *)
  let hi = if term >= 0 then term else lo + len - 1 in
  let retire = ref dispatch in
  if
    Array.unsafe_get tp.Predecode.mem_prefix (lo + len)
    = Array.unsafe_get tp.Predecode.mem_prefix lo
  then
    (* No memory op in the unit: no store-map probes, no per-op address
       test, no dcache. *)
    for k = 0 to len - 1 do
      let info = Array.unsafe_get info_tab (lo + k) in
      let complete = issue t tp ~lo ~len info dmin + latency info in
      Array.unsafe_set t.comp k complete;
      if commit then publish t tp ~hi info complete;
      retire := imax !retire complete
    done
  else
    for k = 0 to len - 1 do
      let info = Array.unsafe_get info_tab (lo + k) in
      let addr = Array.unsafe_get mem_addrs (mem_off + k) in
      let kind = if addr >= 0 then info land Predecode.info_mem_mask else 0 in
      let floor = if kind <> 0 then imax dmin (store_done t addr) else dmin in
      let c = issue t tp ~lo ~len info floor in
      let complete =
        c + latency info + if kind = Predecode.mem_load then load_penalty t addr else 0
      in
      Array.unsafe_set t.comp k complete;
      if commit then publish t tp ~hi info complete;
      if kind = Predecode.mem_store then buffer_store t addr complete;
      retire := imax !retire complete
    done;
  (* Terminator slot: never a memory op (the table classifies terminators
     mem-none, and direct callers' terminators carried no address either). *)
  let resolve =
    if term >= 0 then begin
      let info = Array.unsafe_get info_tab term in
      let complete = issue t tp ~lo ~len info dmin + latency info in
      if commit then publish t tp ~hi info complete;
      retire := imax !retire complete;
      complete
    end
    else if len > 0 then Array.unsafe_get t.comp (len - 1)
    else dispatch
  in
  if commit then
    for i = 0 to t.ls_n - 1 do
      sm_bump t t.ls_addr.(i) t.ls_time.(i)
    done;
  let nops = if term >= 0 then len + 1 else len in
  (* In-order retirement: monotonic times. *)
  let retire_time = imax !retire t.last_retire_time in
  t.last_retire_time <- retire_time;
  win_push t retire_time nops;
  t.window_ops <- t.window_ops + nops;
  t.u_resolve <- resolve;
  t.u_retire <- retire_time

let unit_resolve t = t.u_resolve
let unit_retire t = t.u_retire
let last_retire t = t.last_retire_time
let occupancy t = t.window_ops

(* Checkpointing.  Per-unit scratch ([comp], the store-overlay arrays)
   lives only inside [run_unit], so it needs no serialization — and the
   pre-scheduled template is derived state, rebuilt from the program on
   load.  Everything that carries timing state across units is captured:
   register-ready times, the issue calendar, the store-completion map
   (sorted by address for deterministic bytes), the retirement window, and
   the data cache. *)
let save t w =
  let module W = Bisa_base.Codec.W in
  W.section w "engine";
  W.int_array w t.reg_ready;
  W.int_array w t.fu_count_at;
  W.int_array w t.fu_tag;
  let pairs = ref [] in
  for i = 0 to Array.length t.sm_key - 1 do
    if t.sm_key.(i) >= 0 then pairs := (t.sm_key.(i), t.sm_val.(i)) :: !pairs
  done;
  (* Keys are distinct, so the key alone orders the pairs. *)
  let pairs = List.sort (fun (a, _) (b, _) -> Int.compare a b) !pairs in
  W.int w (List.length pairs);
  List.iter
    (fun (k, v) ->
      W.int w k;
      W.int w v)
    pairs;
  W.int w t.win_len;
  for i = 0 to t.win_len - 1 do
    let j = (t.win_head + i) land t.win_mask in
    W.int w t.win_retire.(j);
    W.int w t.win_count.(j)
  done;
  W.int w t.window_ops;
  W.int w t.last_retire_time;
  match t.dcache with
  | None -> W.bool w false
  | Some c ->
    W.bool w true;
    Bisa_uarch.Cache.save c w

let load t r =
  let module R = Bisa_base.Codec.R in
  R.section r "engine";
  let blit_exact src dst name =
    if Array.length src <> Array.length dst then
      invalid_arg ("Engine.load: " ^ name ^ " size mismatch");
    Array.blit src 0 dst 0 (Array.length dst)
  in
  blit_exact (R.int_array r) t.reg_ready "reg_ready";
  blit_exact (R.int_array r) t.fu_count_at "fu_count_at";
  blit_exact (R.int_array r) t.fu_tag "fu_tag";
  Array.fill t.sm_key 0 (Array.length t.sm_key) (-1);
  t.sm_n <- 0;
  let n = R.int r in
  for _ = 1 to n do
    let k = R.int r in
    let v = R.int r in
    sm_bump t k v
  done;
  let len = R.int r in
  if len > Array.length t.win_retire then begin
    let cap = ref (Array.length t.win_retire) in
    while !cap < len do
      cap := 2 * !cap
    done;
    t.win_retire <- Array.make !cap 0;
    t.win_count <- Array.make !cap 0;
    t.win_mask <- !cap - 1
  end;
  t.win_head <- 0;
  t.win_len <- len;
  for i = 0 to len - 1 do
    t.win_retire.(i) <- R.int r;
    t.win_count.(i) <- R.int r
  done;
  t.window_ops <- R.int r;
  t.last_retire_time <- R.int r;
  (match (R.bool r, t.dcache) with
  | true, Some c -> Bisa_uarch.Cache.load c r
  | false, None -> ()
  | _ -> invalid_arg "Engine.load: dcache presence mismatch");
  (* Reset per-unit scratch: it is dead between units by construction. *)
  t.ls_n <- 0;
  t.u_resolve <- 0;
  t.u_retire <- 0
