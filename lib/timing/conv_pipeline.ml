module Conv_prog = Bisa_isa.Conv_prog
module Conv_exec = Bisa_sim.Conv_exec
module Cache = Bisa_uarch.Cache
module Conv_pred = Bisa_uarch.Conv_pred
module Trace_cache = Bisa_uarch.Trace_cache

(* Peekable packet stream over the functional executor, so the trace-cache
   front end can confirm a stored trace against the blocks actually coming
   next.  A ring buffer of packets: probing N packets ahead is O(N) array
   reads, with no per-probe list rebuilding. *)
module Stream = struct
  type t = {
    exec : Conv_exec.t;
    body : Conv_exec.body;
    mutable buf : Conv_exec.packet array;
    mutable head : int;
    mutable len : int;
  }

  let dummy : Conv_exec.packet =
    { start = 0; count = 0; mem_addrs = [||]; term = Conv_exec.Khalt; next = 0 }

  let create body exec = { exec; body; buf = Array.make 16 dummy; head = 0; len = 0 }

  let push t p =
    let cap = Array.length t.buf in
    if t.len = cap then begin
      let bigger = Array.make (2 * cap) dummy in
      for i = 0 to t.len - 1 do
        bigger.(i) <- t.buf.((t.head + i) mod cap)
      done;
      t.buf <- bigger;
      t.head <- 0
    end;
    t.buf.((t.head + t.len) mod Array.length t.buf) <- p;
    t.len <- t.len + 1

  let refill t n =
    while t.len < n && not (Conv_exec.halted t.exec) do
      match Conv_exec.step ~body:t.body t.exec with Some p -> push t p | None -> ()
    done

  let pop t =
    refill t 1;
    if t.len = 0 then None
    else begin
      let p = t.buf.(t.head) in
      t.head <- (t.head + 1) mod Array.length t.buf;
      t.len <- t.len - 1;
      Some p
    end

  let available t = t.len
  let get t i = t.buf.((t.head + i) mod Array.length t.buf)

  let drop t n =
    t.head <- (t.head + n) mod Array.length t.buf;
    t.len <- t.len - n

  (* Checkpointing: the buffered-but-unconsumed packets (a trace-cache
     probe may refill several ahead of the front end). *)
  let term_save w (k : Conv_exec.term_kind) =
    let module W = Bisa_base.Codec.W in
    match k with
    | Conv_exec.Kbr taken ->
      W.int w 0;
      W.bool w taken
    | Conv_exec.Kjmp -> W.int w 1
    | Conv_exec.Kcall -> W.int w 2
    | Conv_exec.Kret -> W.int w 3
    | Conv_exec.Kjr -> W.int w 4
    | Conv_exec.Khalt -> W.int w 5
    | Conv_exec.Kfall -> W.int w 6

  let term_load r : Conv_exec.term_kind =
    match Bisa_base.Codec.R.int r with
    | 0 -> Conv_exec.Kbr (Bisa_base.Codec.R.bool r)
    | 1 -> Conv_exec.Kjmp
    | 2 -> Conv_exec.Kcall
    | 3 -> Conv_exec.Kret
    | 4 -> Conv_exec.Kjr
    | 5 -> Conv_exec.Khalt
    | 6 -> Conv_exec.Kfall
    | k -> invalid_arg (Printf.sprintf "Conv_pipeline: bad term tag %d" k)

  let save t w =
    let module W = Bisa_base.Codec.W in
    W.section w "conv_stream";
    W.int w t.len;
    for i = 0 to t.len - 1 do
      let p = get t i in
      W.int w p.Conv_exec.start;
      W.int w p.Conv_exec.count;
      W.int_array w p.Conv_exec.mem_addrs;
      term_save w p.Conv_exec.term;
      W.int w p.Conv_exec.next
    done

  let load t r =
    let module R = Bisa_base.Codec.R in
    R.section r "conv_stream";
    t.head <- 0;
    t.len <- 0;
    let n = R.int r in
    for _ = 1 to n do
      let start = R.int r in
      let count = R.int r in
      let mem_addrs = R.int_array r in
      let term = term_load r in
      let next = R.int r in
      push t { Conv_exec.start; count; mem_addrs; term; next }
    done
end

(* Trace-fill window: the last [keep] fetched packets as (start, count)
   pairs in a small ring — most recent at [hd]. *)
module Recent = struct
  type t = {
    starts : int array;
    counts : int array;
    mutable hd : int;
    mutable n : int;
  }

  let create keep = { starts = Array.make keep 0; counts = Array.make keep 0; hd = 0; n = 0 }

  let push t start count =
    let keep = Array.length t.starts in
    t.hd <- (t.hd + 1) mod keep;
    t.starts.(t.hd) <- start;
    t.counts.(t.hd) <- count;
    if t.n < keep then t.n <- t.n + 1

  let clear t = t.n <- 0

  (* Oldest-first start list plus total op count of the window. *)
  let window t =
    let keep = Array.length t.starts in
    let total = ref 0 and starts = ref [] in
    for i = 0 to t.n - 1 do
      (* i = 0 is the most recent; prepending walks oldest to the head. *)
      let j = (t.hd - i + (2 * keep)) mod keep in
      total := !total + t.counts.(j);
      starts := t.starts.(j) :: !starts
    done;
    (!starts, !total)

  let save t w =
    let module W = Bisa_base.Codec.W in
    W.section w "conv_recent";
    W.int_array w t.starts;
    W.int_array w t.counts;
    W.int w t.hd;
    W.int w t.n

  let load t r =
    let module R = Bisa_base.Codec.R in
    R.section r "conv_recent";
    let starts = R.int_array r in
    let counts = R.int_array r in
    if Array.length starts <> Array.length t.starts then
      invalid_arg "Conv_pipeline: recent-window size mismatch";
    Array.blit starts 0 t.starts 0 (Array.length starts);
    Array.blit counts 0 t.counts 0 (Array.length counts);
    t.hd <- R.int r;
    t.n <- R.int r
end

(* One in-flight timing simulation, advanced a fetch unit at a time.  All
   loop state of the original monolithic run loop lives here so a run can
   be suspended between steps, checkpointed, and resumed exactly. *)
type session = {
  cfg : Config.t;
  prog : Conv_prog.t;
  pd : Predecode.t;
  m : Metrics.t;
  engine : Engine.t;
  exec : Conv_exec.t;
  (* The body [exec] steps through, chosen once: the threaded code when
     the session has it, else the interpreter.  Without a trace cache,
     [step] steps it in place; with one, through the stream's packet
     records. *)
  body : Conv_exec.body;
  stream : Stream.t;
  icache : Cache.t option;
  tc : Trace_cache.t option;
  pred : Conv_pred.t;
  recent : Recent.t;
  probe : Bisa_obs.Probe.t;
  tracing : bool;
  inj : Bisa_uarch.Inject.t option;
  mutable next_fetch : int;
  mutable running : bool;
}

let session ?(probe = Bisa_obs.Probe.null) (cfg : Config.t) ~tables ~code
    (prog : Conv_prog.t) : session =
  let engine = Engine.create cfg in
  let exec = Conv_exec.create prog in
  Conv_exec.set_budget exec cfg.op_budget;
  let body =
    match code with
    | Some c -> Bisa_sim.Compile.Conv.bind c exec
    | None -> Conv_exec.interp exec
  in
  let icache = Option.map Cache.create cfg.icache in
  let tc = Option.map Trace_cache.create cfg.trace_cache in
  let pred = Conv_pred.create cfg.conv_pred in
  (* One branch decides all event emission: with the null probe nothing
     in the stepping path behaves (or allocates) differently. *)
  let tracing = not (Bisa_obs.Probe.is_null probe) in
  if tracing then begin
    Option.iter (fun c -> Cache.set_hook c probe.Bisa_obs.Probe.icache_access) icache;
    Option.iter
      (fun c -> Cache.set_hook c probe.Bisa_obs.Probe.dcache_access)
      (Engine.dcache engine);
    Conv_pred.set_btb_hook pred probe.Bisa_obs.Probe.btb_lookup
  end;
  let recent =
    Recent.create (match cfg.trace_cache with Some c -> c.max_blocks | None -> 3)
  in
  {
    cfg;
    prog;
    pd = tables;
    m = Metrics.create ();
    engine;
    exec;
    body;
    stream = Stream.create body exec;
    icache;
    tc;
    pred;
    recent;
    probe;
    tracing;
    inj = cfg.inject;
    next_fetch = 0;
    running = true;
  }

(* Process one packet fetched at [fc]; [from_tc] packets are supplied by
   the trace cache (no icache access).  The packet arrives as scalars so
   records from the stream and the executor's step fields share this one
   path.  Returns whether its prediction was correct. *)
let process_packet s ~from_tc ~start ~count ~(mem_addrs : int array) ~term ~next =
  let cfg = s.cfg and m = s.m and probe = s.probe and tracing = s.tracing in
  (* Trace-supplied followers ride the fetch cycle of the trace's first
     packet. *)
  let fc = ref (if from_tc then Int.max 0 (s.next_fetch - 1) else s.next_fetch) in
  (match s.icache with
  | Some c when not from_tc ->
    let addr = Conv_prog.insn_addr start in
    let misses = Cache.access_range c addr (count * Conv_prog.bytes_per_insn) in
    if misses > 0 then fc := !fc + (misses * cfg.l2_latency);
    (* Injected transient fault: the line we just fetched drops out, so
       the next visit pays a fresh miss. *)
    (match s.inj with
    | Some i when Bisa_uarch.Inject.evict_line i -> Cache.evict c addr
    | _ -> ())
  | _ -> ());
  m.fetch_units <- m.fetch_units + 1;
  if tracing then probe.Bisa_obs.Probe.unit_start ~cycle:!fc ~addr:start ~ops:count;
  let last_resolve = ref 0 in
  let first_dispatch = ref (-1) in
  let last_unit_retire = ref 0 in
  (* Chunks of at most [cfg.issue_width] ops, one fetch cycle apart: [lo]
     is the chunk's first op, [cyc] its fetch cycle. *)
  let lo = ref 0 and cyc = ref !fc in
  while !lo < count do
    let len = Int.min cfg.issue_width (count - !lo) in
    let dispatch =
      Engine.admit s.engine ~want:(!cyc + cfg.decode_depth) ~op_count:len
    in
    Engine.run_unit s.engine ~dispatch ~commit:true s.pd ~lo:(start + !lo) ~len
      ~term:(-1) ~mem_addrs ~mem_off:!lo;
    last_resolve := Engine.unit_resolve s.engine;
    if tracing then begin
      if !first_dispatch < 0 then first_dispatch := dispatch;
      last_unit_retire := Engine.unit_retire s.engine;
      probe.Bisa_obs.Probe.occupancy ~cycle:!last_unit_retire
        ~ops:(Engine.occupancy s.engine)
    end;
    m.retired_ops <- m.retired_ops + len;
    s.next_fetch <- Int.max (!cyc + 1) (dispatch - cfg.decode_depth + 1);
    lo := !lo + cfg.issue_width;
    incr cyc
  done;
  if not from_tc then s.next_fetch <- Int.max s.next_fetch (!fc + 1);
  m.retired_blocks <- m.retired_blocks + 1;
  if tracing then
    probe.Bisa_obs.Probe.unit_retire ~dispatch:!first_dispatch
      ~resolve:!last_resolve ~retire:!last_unit_retire ~ops:count ~committed:true;
  Bisa_base.Stats.Histogram.add m.block_sizes count;
  let branch_pc = start + count - 1 in
  (* Injected BTB corruption: a bogus target for this pc.  The predictor
     only compares BTB contents against the architectural target, so the
     worst case is a Wrong_target verdict below. *)
  (match s.inj with
  | Some i when Bisa_uarch.Inject.corrupt_btb i ->
    Conv_pred.inject_btb s.pred ~pc:branch_pc
      ~target:(Bisa_uarch.Inject.rand_int i (Array.length s.prog.insns))
  | _ -> ());
  let verdict =
    match cfg.predictor with
    | Config.Perfect -> Conv_pred.Correct
    | Config.Real -> begin
      match term with
      | Conv_exec.Kbr taken ->
        Conv_pred.on_branch s.pred ~pc:branch_pc ~taken ~target:next
      | Conv_exec.Kjmp -> Conv_pred.on_jump s.pred ~pc:branch_pc ~target:next
      | Conv_exec.Kcall ->
        Conv_pred.on_call s.pred ~pc:branch_pc ~target:next
          ~return_to:(branch_pc + 1)
      | Conv_exec.Kret -> Conv_pred.on_return s.pred ~pc:branch_pc ~target:next
      | Conv_exec.Kjr -> Conv_pred.on_indirect s.pred ~pc:branch_pc ~target:next
      | Conv_exec.Khalt | Conv_exec.Kfall -> Conv_pred.Correct
    end
  in
  (* Injected forced misprediction: the front end redirects even though
     the predictor was right — pure timing cost. *)
  let forced_miss =
    match s.inj with Some i -> Bisa_uarch.Inject.flip_direction i | None -> false
  in
  if
    tracing
    && cfg.predictor = Config.Real
    && (match term with
       | Conv_exec.Khalt | Conv_exec.Kfall -> false
       | _ -> true)
  then
    probe.Bisa_obs.Probe.predict ~pc:branch_pc ~correct:(verdict = Conv_pred.Correct);
  let ok = verdict = Conv_pred.Correct && not forced_miss in
  if not ok then begin
    m.mispredicts <- m.mispredicts + 1;
    s.next_fetch <- Int.max s.next_fetch (!last_resolve + cfg.redirect_penalty);
    if tracing then
      probe.Bisa_obs.Probe.redirect ~cycle:!last_resolve ~until:s.next_fetch
        ~cause:Bisa_obs.Probe.Mispredict
  end;
  (* Trace fill: remember this packet, and record the longest recent
     window that fits a trace-cache entry. *)
  (match s.tc with
  | Some tc_ ->
    Recent.push s.recent start count;
    let starts, total = Recent.window s.recent in
    Trace_cache.fill tc_ ~starts ~total_ops:total;
    (* Injected trace corruption: a bogus successor sequence keyed at
       this packet.  Lookups validate traces against the real upcoming
       packets, so a corrupt entry never gets served. *)
    (match s.inj with
    | Some i when Bisa_uarch.Inject.corrupt_trace i ->
      Trace_cache.corrupt tc_ ~start
        ~succs:[ Bisa_uarch.Inject.rand_int i (Array.length s.prog.insns) ]
    | _ -> ());
    (* A redirect breaks trace continuity. *)
    if not ok then Recent.clear s.recent
  | None -> ());
  ok

let process_record s ~from_tc (p : Conv_exec.packet) =
  process_packet s ~from_tc ~start:p.start ~count:p.count ~mem_addrs:p.mem_addrs
    ~term:p.term ~next:p.next

let stop s =
  s.running <- false;
  false

(* One front-end iteration: fetch the next packet (serving a whole trace
   when the trace cache confirms one) and run it through the engine.
   Returns false once the program has halted and the stream is drained. *)
let step s =
  if not s.running then false
  else
    match s.tc with
    | None ->
      (* Nothing looks ahead, so nothing is ever buffered: step in place,
         with no packet record and no address copy. *)
      let x = s.exec in
      if Conv_exec.step_into s.body x then begin
        ignore
          (process_packet s ~from_tc:false ~start:(Conv_exec.last_start x)
             ~count:(Conv_exec.last_count x) ~mem_addrs:(Conv_exec.last_addrs x)
             ~term:(Conv_exec.last_term x) ~next:(Conv_exec.last_next x));
        true
      end
      else stop s
    | Some tc_ -> begin
      match Stream.pop s.stream with
      | None -> stop s
      | Some p0 ->
        (* Try to serve a whole trace this cycle. *)
        let followers =
          match Trace_cache.lookup tc_ ~start:p0.start with
          | Some succs ->
            let n = List.length succs in
            Stream.refill s.stream n;
            let matches =
              Stream.available s.stream >= n
              &&
              let total = ref p0.count and ok = ref true in
              List.iteri
                (fun i ss ->
                  let p = Stream.get s.stream i in
                  if p.Conv_exec.start <> ss then ok := false
                  else total := !total + p.Conv_exec.count)
                succs;
              !ok && !total <= s.cfg.issue_width
            in
            if matches then begin
              let fl = List.init n (Stream.get s.stream) in
              Stream.drop s.stream n;
              fl
            end
            else []
          | None -> []
        in
        if s.tracing then
          s.probe.Bisa_obs.Probe.tc_lookup ~start:p0.start ~hit:(followers <> []);
        let ok0 = process_record s ~from_tc:false p0 in
        if followers <> [] then begin
          s.m.tc_hits <- s.m.tc_hits + 1;
          (* Followers ride the same fetch cycle unless an earlier packet
             of the group mispredicted, which demotes the rest to normal
             fetches at the redirected time. *)
          let tc_mode = ref ok0 in
          List.iter
            (fun p ->
              if !tc_mode then begin
                s.m.tc_served_ops <- s.m.tc_served_ops + p.Conv_exec.count;
                if s.tracing then
                  s.probe.Bisa_obs.Probe.tc_serve ~ops:p.Conv_exec.count
              end;
              let ok = process_record s ~from_tc:!tc_mode p in
              if not ok then tc_mode := false)
            followers
        end;
        true
    end

let ops s = Conv_exec.dyn_insns s.exec

let set_out_cap s n = Conv_exec.set_out_cap s.exec n

let finish s =
  while step s do
    ()
  done;
  let m = s.m in
  m.cycles <- Engine.last_retire s.engine;
  (match s.icache with
  | Some c ->
    m.icache_accesses <- Cache.accesses c;
    m.icache_misses <- Cache.misses c
  | None -> ());
  (match Engine.dcache s.engine with
  | Some c ->
    m.dcache_accesses <- Cache.accesses c;
    m.dcache_misses <- Cache.misses c
  | None -> ());
  (m, Conv_exec.output s.exec)

(* Checkpointing: everything the loop carries between [step]s.  The
   program, predecode tables and configuration are NOT serialized — the
   snapshot header binds them by hash and [restore] requires a session
   built from the same inputs. *)
let save s w =
  let module W = Bisa_base.Codec.W in
  W.section w "conv_session";
  W.int w s.next_fetch;
  W.bool w s.running;
  Conv_exec.save s.exec w;
  Stream.save s.stream w;
  Recent.save s.recent w;
  Engine.save s.engine w;
  W.option w (fun w c -> Cache.save c w) s.icache;
  W.option w (fun w t -> Trace_cache.save t w) s.tc;
  Conv_pred.save s.pred w;
  W.option w (fun w i -> Bisa_uarch.Inject.save i w) s.inj;
  Metrics.save s.m w

let restore s r =
  let module R = Bisa_base.Codec.R in
  R.section r "conv_session";
  s.next_fetch <- R.int r;
  s.running <- R.bool r;
  Conv_exec.load s.exec r;
  Stream.load s.stream r;
  Recent.load s.recent r;
  Engine.load s.engine r;
  let opt_side name saved live f =
    match (saved, live) with
    | true, Some x -> f x
    | false, None -> ()
    | _ -> invalid_arg ("Conv_pipeline.restore: " ^ name ^ " presence mismatch")
  in
  opt_side "icache" (R.bool r) s.icache (fun c -> Cache.load c r);
  opt_side "trace cache" (R.bool r) s.tc (fun t -> Trace_cache.load t r);
  Conv_pred.load s.pred r;
  opt_side "injector" (R.bool r) s.inj (fun i -> Bisa_uarch.Inject.load i r);
  Metrics.load s.m r
