(* Flat append-only store buffer: entries live in parallel arrays in
   program order, so a block's stores cost no allocation at all in steady
   state.  Loads scan newest-first (backwards); a cross-typed hit keeps
   the historical semantics of the list representation: the int view of a
   buffered float store is 0, and vice versa. *)
type t = {
  mutable kind : Bytes.t; (* '\000' = int entry, '\001' = float entry *)
  mutable addr : int array;
  mutable ival : int array;
  mutable fval : float array;
  mutable n : int;
}

let init_cap = 16

let create () =
  {
    kind = Bytes.make init_cap '\000';
    addr = Array.make init_cap 0;
    ival = Array.make init_cap 0;
    fval = Array.make init_cap 0.0;
    n = 0;
  }

let clear t = t.n <- 0

let grow t =
  let cap = Array.length t.addr in
  let kind = Bytes.make (2 * cap) '\000' in
  Bytes.blit t.kind 0 kind 0 cap;
  t.kind <- kind;
  let addr = Array.make (2 * cap) 0 in
  Array.blit t.addr 0 addr 0 cap;
  t.addr <- addr;
  let ival = Array.make (2 * cap) 0 in
  Array.blit t.ival 0 ival 0 cap;
  t.ival <- ival;
  let fval = Array.make (2 * cap) 0.0 in
  Array.blit t.fval 0 fval 0 cap;
  t.fval <- fval

let store t addr v =
  if t.n = Array.length t.addr then grow t;
  let i = t.n in
  Bytes.unsafe_set t.kind i '\000';
  Array.unsafe_set t.addr i addr;
  Array.unsafe_set t.ival i v;
  t.n <- i + 1

let storef t addr v =
  if t.n = Array.length t.addr then grow t;
  let i = t.n in
  Bytes.unsafe_set t.kind i '\001';
  Array.unsafe_set t.addr i addr;
  Array.unsafe_set t.fval i v;
  t.n <- i + 1

let load t mem addr =
  let rec scan i =
    if i < 0 then Memory.load mem addr
    else if Array.unsafe_get t.addr i = addr then
      if Bytes.unsafe_get t.kind i = '\000' then Array.unsafe_get t.ival i
      else 0 (* int view of a float store *)
    else scan (i - 1)
  in
  scan (t.n - 1)

let loadf t mem addr =
  let rec scan i =
    if i < 0 then Memory.loadf mem addr
    else if Array.unsafe_get t.addr i = addr then
      if Bytes.unsafe_get t.kind i = '\001' then Array.unsafe_get t.fval i
      else 0.0 (* float view of an int store *)
    else scan (i - 1)
  in
  scan (t.n - 1)

(* Every address is checked before any store is written: a committing
   block with an unaligned store traps with none of its stores in memory.
   A squashed block's stores never execute, so they never trap. *)
let flush t mem =
  for i = 0 to t.n - 1 do
    Memory.check_aligned (Array.unsafe_get t.addr i)
  done;
  for i = 0 to t.n - 1 do
    if Bytes.unsafe_get t.kind i = '\000' then
      Memory.store mem (Array.unsafe_get t.addr i) (Array.unsafe_get t.ival i)
    else Memory.storef mem (Array.unsafe_get t.addr i) (Array.unsafe_get t.fval i)
  done;
  t.n <- 0

let size t = t.n
