(* The bisad request engine: every request the daemon serves lands here,
   against a content-addressed artifact cache.

   Three cache layers, all exactly-once under concurrency (Pool.Once
   cells — one requester computes, the rest block on the cell):

     - loaded programs    compiled MiniC keyed by the source hash,
                          workloads by name and scale; each holds one
                          executable per ISA with its content hash,
                          computed once as it loads
     - prepared artifacts keyed by (program hash, exec backend) — the
                          Pipeline.Artifact bundle: verified witness,
                          predecode tables, optional threaded code
     - finished results   keyed by program hash x Config.fingerprint x
                          exec backend x request shape (mode, out_cap)

   A source or workload request reads the stored program hash to build
   its result key, so a hit never re-encodes or re-hashes the executable;
   a source hit still hashes the request's source text (streamed, with
   no copy and no allocation), and only a workload hit costs nothing
   that grows with the program.  A .cbin/.bbin binary is not held: each
   request decodes and hashes it.  Artifacts are prepared only on a
   miss.  Trust is decided once, at artifact preparation
   ([Pipeline.prepare] runs the verifier); replays are pure, which is
   what makes the result cache sound.  A failed compile stays
   poisoned in its cell, but a failed run caches nothing.  Finished
   results are additionally spooled to disk through Atomic_file, so a
   SIGKILL loses only in-flight requests: the next start reloads finished
   responses byte-identically, up to the in-memory bound. *)

module Pool = Bisa_base.Pool
module Diag = Bisa_base.Diag
module Codec = Bisa_base.Codec
module Pipeline = Bisa_timing.Pipeline
module Metrics = Bisa_timing.Metrics
module Proto = Bisa_proto.Proto

let component = "bisad"

(* --- cached result payloads -------------------------------------------- *)

(* What a finished simulation stores: the exact strings the one-shot CLI
   would print, plus the structured bits responses are rendered from.
   [show_output] is deliberately not part of the cache key — rendering
   happens per request from the stored fields. *)
type payload =
  | Fun_r of { out : string; ops : int; ret : int; notes : string }
  | Tim_r of { out : string; summary : string }
  | Cell_r of { summary : string }

type entry = { prog_hash : int64; payload : payload }

(* A spooled entry is one atomically-written file per result, sealed
   (version 2) with the result key as its identity, under a name the key
   hashes to. *)
let spool_magic = "BISARESP"
let spool_version = 2
let spool_name key = Codec.hash_hex key ^ ".resp"

let write_entry key (e : entry) =
  let w = Codec.W.create () in
  Codec.W.i64 w e.prog_hash;
  (match e.payload with
  | Fun_r { out; ops; ret; notes } ->
    Codec.W.int w 0;
    Codec.W.string w out;
    Codec.W.int w ops;
    Codec.W.int w ret;
    Codec.W.string w notes
  | Tim_r { out; summary } ->
    Codec.W.int w 1;
    Codec.W.string w out;
    Codec.W.string w summary
  | Cell_r { summary } ->
    Codec.W.int w 2;
    Codec.W.string w summary);
  Codec.seal ~magic:spool_magic ~version:spool_version ~id:key w

(* The entry in file [name]: its key must hash to that name. *)
let read_entry ~name s =
  let key, r =
    Codec.unseal ~component ~magic:spool_magic ~version:spool_version
      ~id:(fun key -> spool_name key = name)
      s
  in
  let prog_hash = Codec.R.i64 r in
  let payload =
    match Codec.R.int r with
    | 0 ->
      let out = Codec.R.string r in
      let ops = Codec.R.int r in
      let ret = Codec.R.int r in
      let notes = Codec.R.string r in
      Fun_r { out; ops; ret; notes }
    | 1 ->
      let out = Codec.R.string r in
      let summary = Codec.R.string r in
      Tim_r { out; summary }
    | 2 -> Cell_r { summary = Codec.R.string r }
    | n -> Codec.R.fail r "unknown spooled payload tag %d" n
  in
  (key, { prog_hash; payload })

type 'a cell = 'a Pool.Once.cell

(* A program as the engine holds it: the executable and its content hash
   ([Pipeline.*.prog_hash]), the hash every artifact and result key built
   from it carries. *)
type 'p loaded = { prog : 'p; prog_hash : int64 }

(* A compiled source or workload: one executable per ISA. *)
type program = { conv : Pipeline.Conv.prog loaded; block : Pipeline.Block.prog loaded }

type t = {
  pool : Pool.t;
  spool_dir : string option;
  result_cap : int;
  lock : Mutex.t;  (* guards the tables and counters, never a computation *)
  sources : (int64, program cell) Hashtbl.t;
  workloads : (string, program cell) Hashtbl.t;
  conv_arts : (int64 * Bisa_sim.Compile.backend, Pipeline.Conv.artifact cell) Hashtbl.t;
  block_arts :
    (int64 * Bisa_sim.Compile.backend, Pipeline.Block.artifact cell) Hashtbl.t;
  results : (string, entry cell) Hashtbl.t;
  (* Insertion order of results, for FIFO eviction at [result_cap]. *)
  order : string Queue.t;
  mutable served : int;
  mutable sim_hits : int;
  mutable sim_misses : int;
  mutable spooled : int;
  mutable spool_skipped : int;
  mutable inflight_peak : int;
  log : Diag.t -> unit;
}

let hit t =
  Mutex.lock t.lock;
  t.sim_hits <- t.sim_hits + 1;
  Mutex.unlock t.lock

let miss t =
  Mutex.lock t.lock;
  t.sim_misses <- t.sim_misses + 1;
  Mutex.unlock t.lock

(* Find-or-compute with exactly-once semantics: the cell is installed
   under [t.lock] and forced outside it, so one requester computes and
   the rest block on the cell; an exception poisons it for every waiter.
   [install] also says whether this requester installed the cell — the
   one that accounts a fresh result. *)
let install t table key ~compute =
  Mutex.lock t.lock;
  let installed =
    match Hashtbl.find_opt table key with
    | Some cell -> (cell, false)
    | None ->
      let cell = Pool.Once.make compute in
      Hashtbl.add table key cell;
      (cell, true)
  in
  Mutex.unlock t.lock;
  installed

let memoize t table key ~compute = Pool.Once.force (fst (install t table key ~compute))

(* --- construction and the spool ----------------------------------------- *)

let spool_path dir key = Filename.concat dir (spool_name key)

let note_result t key entry =
  (* Called with the result freshly computed: record it for eviction and
     spool it.  The spool write is atomic, so a kill at any instant
     leaves either the whole file or nothing. *)
  Mutex.lock t.lock;
  Queue.push key t.order;
  if Queue.length t.order > t.result_cap then begin
    let victim = Queue.pop t.order in
    Hashtbl.remove t.results victim
  end;
  Mutex.unlock t.lock;
  match t.spool_dir with
  | None -> ()
  | Some dir ->
    Bisa_base.Atomic_file.write_string (spool_path dir key) (write_entry key entry);
    Mutex.lock t.lock;
    t.spooled <- t.spooled + 1;
    Mutex.unlock t.lock

let load_spool t dir =
  Bisa_base.Fs.mkdir_p dir;
  let files = Sys.readdir dir in
  Array.sort compare files;
  Array.iter
    (fun f ->
      (* Reload at most [result_cap] entries, so a restart starts inside
         the bound; a request for one left on disk recomputes it. *)
      if Filename.check_suffix f ".resp" && Queue.length t.order < t.result_cap then begin
        let path = Filename.concat dir f in
        match read_entry ~name:f (Bisa_base.Fs.read_file path) with
        | key, entry ->
          if not (Hashtbl.mem t.results key) then begin
            Hashtbl.add t.results key (Pool.Once.make (Fun.const entry));
            Queue.push key t.order;
            t.spooled <- t.spooled + 1
          end
        | exception e ->
          (* A foreign, stale or externally-corrupted file; atomic writes
             mean it cannot be a torn one of ours.  Skip it, but loudly:
             the count surfaces in Stats and each file gets one
             structured diagnostic, so spool damage is never silent. *)
          t.spool_skipped <- t.spool_skipped + 1;
          let loc, why =
            match e with
            | Diag.Fail d -> (d.Diag.loc, d.Diag.message)
            | Sys_error m -> (Diag.No_loc, m)
            | e -> (Diag.No_loc, Printexc.to_string e)
          in
          t.log
            (Diag.error ~component ~loc
               (Printf.sprintf "spool: skipped unreadable entry %s: %s" path why))
      end)
    files

let create ?(pool = Pool.sequential) ?spool_dir ?(result_cap = 4096)
    ?(log = fun (_ : Diag.t) -> ()) () =
  let t =
    {
      pool;
      spool_dir;
      result_cap;
      lock = Mutex.create ();
      sources = Hashtbl.create 64;
      workloads = Hashtbl.create 16;
      conv_arts = Hashtbl.create 64;
      block_arts = Hashtbl.create 64;
      results = Hashtbl.create 256;
      order = Queue.create ();
      served = 0;
      sim_hits = 0;
      sim_misses = 0;
      spooled = 0;
      spool_skipped = 0;
      inflight_peak = 0;
      log;
    }
  in
  Option.iter (load_spool t) spool_dir;
  t

let workers t = Pool.workers t.pool

let note_inflight t n =
  Mutex.lock t.lock;
  if n > t.inflight_peak then t.inflight_peak <- n;
  Mutex.unlock t.lock

(* Peak resident set, straight from the kernel's accounting. *)
let vm_hwm_kb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> 0
  | ic ->
    let rec go () =
      match input_line ic with
      | line ->
        if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then begin
          close_in ic;
          Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" Fun.id
        end
        else go ()
      | exception End_of_file ->
        close_in ic;
        0
    in
    go ()

let stats t : Proto.stats =
  Mutex.lock t.lock;
  let s =
    {
      Proto.served = t.served;
      sim_hits = t.sim_hits;
      sim_misses = t.sim_misses;
      artifacts = Hashtbl.length t.conv_arts + Hashtbl.length t.block_arts;
      results = Hashtbl.length t.results;
      spooled = t.spooled;
      spool_skipped = t.spool_skipped;
      inflight_peak = t.inflight_peak;
      rss_kb = vm_hwm_kb ();
    }
  in
  Mutex.unlock t.lock;
  s

(* --- program loading ----------------------------------------------------- *)

(* The only place this engine calls [Pipeline.*.prog_hash].  A compiled
   source or workload is loaded once, inside its memo cell, so a compile
   error poisons the cell and a repeat fails fast; a binary is decoded
   and loaded per request, holding nothing once the request is done. *)
let load_conv prog = { prog; prog_hash = Pipeline.Conv.prog_hash prog }
let load_block prog = { prog; prog_hash = Pipeline.Block.prog_hash prog }

let load_compiled (c : Bisa_compiler.Compiler.compiled) =
  { conv = load_conv c.conv; block = load_block c.block }

(* The program key hashes ["src:" ^ src], then ["\x00" ^ lib] for each
   library, streamed, so a hit copies no source text. *)
let compile_source t ~src ~libs =
  let h = Codec.Fnv.create () in
  Codec.Fnv.string h "src:";
  Codec.Fnv.string h src;
  List.iter
    (fun lib ->
      Codec.Fnv.string h "\x00";
      Codec.Fnv.string h lib)
    libs;
  let key = Codec.Fnv.value h in
  memoize t t.sources key ~compute:(fun () ->
      load_compiled (Bisa_compiler.Compiler.compile ~library_funcs:libs src))

let conv_prog t (src : Proto.prog_src) =
  match src with
  | Proto.Source { src; libs } -> (compile_source t ~src ~libs).conv
  | Proto.Conv_bin b -> load_conv (Bisa_isa.Encode.conv_of_bytes b)
  | Proto.Block_bin _ ->
    Diag.fail ~component "this request needs a conventional executable, got a \
                          block-structured binary"

let block_prog t (src : Proto.prog_src) =
  match src with
  | Proto.Source { src; libs } -> (compile_source t ~src ~libs).block
  | Proto.Block_bin b -> load_block (Bisa_isa.Encode.block_of_bytes b)
  | Proto.Conv_bin _ ->
    Diag.fail ~component "this request needs a block-structured executable, got \
                          a conventional binary"

(* Artifact preparation is the trust boundary: [prepare] verifies, and
   the memo makes that a per-(program, backend) one-time event.  The
   verification rejection is poisoned into the cell, so repeat requests
   for a bad program fail fast without re-verifying. *)
let conv_artifact t ~exec (l : Pipeline.Conv.prog loaded) =
  memoize t t.conv_arts (l.prog_hash, exec) ~compute:(fun () ->
      Pipeline.Conv.prepare ~exec l.prog)

let block_artifact t ~exec (l : Pipeline.Block.prog loaded) =
  memoize t t.block_arts (l.prog_hash, exec) ~compute:(fun () ->
      Pipeline.Block.prepare ~exec l.prog)

(* --- verification ------------------------------------------------------- *)

let reject what diags =
  let summary =
    Diag.error ~component
      (Printf.sprintf "verification rejected %s (%d diagnostic%s)" what
         (List.length diags)
         (if List.length diags = 1 then "" else "s"))
  in
  raise (Diag.Fail summary)

(* --- the result cache ---------------------------------------------------- *)

(* The serving cache key (DESIGN.md section 16): program content hash x
   configuration fingerprint x exec backend x request shape.  The exec
   backend is in the key even though the backends are differentially
   proven equivalent — the daemon caches rendered bytes, and equivalence
   is a property we re-check in tests, not one the cache assumes.  The
   hashes are 16 lowercase hex digits each. *)
let sim_key ~what ~isa ~prog_hash ~cfg ~exec ~mode ~out_cap =
  String.concat "|"
    [
      what;
      isa;
      Codec.hex64 prog_hash;
      Codec.hex64 (Bisa_timing.Config.fingerprint cfg);
      Bisa_sim.Compile.backend_to_string exec;
      (match mode with Proto.Timing -> "timing" | Proto.Functional -> "functional");
      (match out_cap with None -> "full" | Some n -> string_of_int n);
    ]

let find_result t key =
  Mutex.lock t.lock;
  let cell = Hashtbl.find_opt t.results key in
  Mutex.unlock t.lock;
  Option.map Pool.Once.force cell

(* --- one request path: plan, then run ------------------------------------ *)

(* A simulation under way, whichever machine runs it: [step] advances
   one fetch unit and says whether the machine is still running, [ops]
   counts the dynamic operations retired so far, and [finish] seals the
   halted machine into the payload the cache stores. *)
type run = { step : unit -> bool; ops : unit -> int; finish : unit -> payload }

(* What a Simulate or Cell request resolves to before anything is
   simulated: a rendered cache hit, or a miss whose [launch] verifies
   and builds the executor or timing session, and whose [settle] lands a
   finished run's payload in the result cache and renders it.  [handle]
   runs a miss to completion inside [settle]; [start] hands it to the
   server loop as a sliced job. *)
type plan =
  | Hit of Proto.response
  | Miss of {
      launch : unit -> run;
      settle : (unit -> payload) -> Proto.response;
    }

(* A miss settles exactly once per key: the requester that installs the
   result cell computes the payload and accounts the miss, and a raced
   duplicate (a Batch of identical requests, or a Batch overtaking a
   sliced job) waits on the cell and accounts a hit.  A run that raises
   (an op-budget runaway, a machine trap) takes its poisoned cell out of
   the table — it never entered [t.order], so it could never be evicted —
   unless a repeat has already replaced it; the next request recomputes. *)
let settle t key ~prog_hash ~render compute =
  let cell, fresh =
    install t t.results key ~compute:(fun () -> { prog_hash; payload = compute () })
  in
  match Pool.Once.force cell with
  | entry ->
    if fresh then begin
      note_result t key entry;
      miss t
    end
    else hit t;
    render ~cached:(not fresh) entry
  | exception e ->
    let bt = Printexc.get_raw_backtrace () in
    Mutex.lock t.lock;
    (match Hashtbl.find_opt t.results key with
    | Some c when c == cell -> Hashtbl.remove t.results key
    | _ -> ());
    Mutex.unlock t.lock;
    Printexc.raise_with_backtrace e bt

(* Look the key up: a hit is accounted and rendered now; a miss becomes
   a plan that settles under the same key. *)
let resolve t key ~prog_hash ~render launch =
  match find_result t key with
  | Some entry ->
    hit t;
    Hit (render ~cached:true entry)
  | None -> Miss { launch; settle = settle t key ~prog_hash ~render }

(* A timing session over a prepared artifact; [payload] seals its
   metrics and output. *)
let timing_run (type a) (module P : Pipeline.S with type artifact = a) config (art : a)
    ~out_cap payload =
  let s = P.session_artifact config art in
  Option.iter (P.set_out_cap s) out_cap;
  {
    step = (fun () -> P.step s);
    ops = (fun () -> P.ops s);
    finish = (fun () -> payload (P.finish s));
  }

let functional_payload ~out ~ops ~trap =
  Fun_r
    {
      out = Bisa_sim.Output.to_string out;
      ops;
      ret = out.Bisa_sim.Output.ret;
      notes = (match trap with None -> "" | Some d -> Diag.render d ^ "\n");
    }

(* The functional executors, stepped under the request's backend. *)
let conv_functional prog ~exec ~budget ~out_cap =
  let module E = Bisa_sim.Conv_exec in
  let e = E.create prog in
  E.set_budget e budget;
  Option.iter (E.set_out_cap e) out_cap;
  let step =
    match exec with
    | Bisa_sim.Compile.Interp -> fun () -> E.step e <> None
    | Bisa_sim.Compile.Compiled ->
      let module C = Bisa_sim.Compile.Conv in
      let ce = C.bind (C.compile_trusted prog) e in
      fun () -> C.step ce <> None
  in
  let ops () = E.dyn_insns e in
  let finish () =
    functional_payload ~out:(E.output e) ~ops:(ops ())
      ~trap:(Option.map E.machine_trap_diag (E.machine_trap e))
  in
  { step; ops; finish }

let block_functional prog ~exec ~budget ~out_cap =
  let module E = Bisa_sim.Block_exec in
  let e = E.create prog in
  E.set_budget e budget;
  Option.iter (E.set_out_cap e) out_cap;
  let step =
    match exec with
    | Bisa_sim.Compile.Interp -> fun () -> E.step e <> None
    | Bisa_sim.Compile.Compiled ->
      let module C = Bisa_sim.Compile.Block in
      let ce = C.bind (C.compile_trusted prog) e in
      fun () -> C.step ce <> None
  in
  let ops () = E.retired_ops e in
  let finish () =
    functional_payload ~out:(E.output e) ~ops:(ops ())
      ~trap:(Option.map E.machine_trap_diag (E.machine_trap e))
  in
  { step; ops; finish }

let key_clash what =
  Diag.fail ~component "%s cache entry has another request's payload (key clash)" what

let plan_sim (type p a) t
    (module P : Pipeline.S with type prog = p and type artifact = a)
    ~(artifact : exec:Bisa_sim.Compile.backend -> p loaded -> a) ~functional
    (l : p loaded) ~mode ~exec ~(cfg : Proto.sim_cfg) ~show_output =
  let config = Proto.to_config cfg in
  let key =
    sim_key ~what:"sim" ~isa:P.isa ~prog_hash:l.prog_hash ~cfg:config ~exec ~mode
      ~out_cap:cfg.out_cap
  in
  let render ~cached e =
    match e.payload with
    | Fun_r { out; ops; ret; notes } ->
      Proto.Sim
        {
          stdout = Proto.render_functional ~show_output ~out ~ops ~ret;
          notes;
          prog_hash = e.prog_hash;
          cached;
        }
    | Tim_r { out; summary } ->
      Proto.Sim
        {
          stdout = Proto.render_timing ~show_output ~out ~summary;
          notes = "";
          prog_hash = e.prog_hash;
          cached;
        }
    | Cell_r _ -> key_clash "simulate"
  in
  resolve t key ~prog_hash:l.prog_hash ~render (fun () ->
      match mode with
      | Proto.Functional ->
        (* The functional path has no artifact to hide behind, so
           verification is discharged explicitly, exactly as the
           one-shot CLI does before running. *)
        (match P.verify l.prog with [] -> () | ds -> reject "program" ds);
        functional l.prog ~exec ~budget:cfg.budget ~out_cap:cfg.out_cap
      | Proto.Timing ->
        timing_run (module P) config (artifact ~exec l) ~out_cap:cfg.out_cap
          (fun (m, out) ->
            Tim_r
              {
                out = Bisa_sim.Output.to_string out;
                summary = Metrics.summary ~name:P.descr m;
              }))

let bench_key ~bench ~scale =
  bench ^ "@" ^ (match scale with None -> "default" | Some n -> string_of_int n)

let plan_cell t ~bench ~scale ~isa ~exec ~(cfg : Proto.sim_cfg) =
  let w =
    match Bisa_workloads.Workloads.find bench with
    | w -> w
    | exception Invalid_argument _ ->
      Diag.fail ~component "no such workload: %s (workloads: %s)" bench
        (String.concat " " Bisa_workloads.Workloads.names)
  in
  let program =
    memoize t t.workloads (bench_key ~bench ~scale) ~compute:(fun () ->
        load_compiled (Bisa_workloads.Workloads.compile ?scale w))
  in
  let config = Proto.to_config cfg in
  let render ~cached e =
    match e.payload with
    | Cell_r { summary } -> Proto.Cell_done { summary; prog_hash = e.prog_hash; cached }
    | Fun_r _ | Tim_r _ -> key_clash "cell"
  in
  let go (type p a) (module P : Pipeline.S with type prog = p and type artifact = a)
      ~(artifact : exec:Bisa_sim.Compile.backend -> p loaded -> a) (l : p loaded) =
    let key =
      sim_key
        ~what:(bench_key ~bench ~scale)
        ~isa:P.isa ~prog_hash:l.prog_hash ~cfg:config ~exec ~mode:Proto.Timing
        ~out_cap:cfg.out_cap
    in
    resolve t key ~prog_hash:l.prog_hash ~render (fun () ->
        timing_run (module P) config (artifact ~exec l) ~out_cap:cfg.out_cap
          (fun (m, _out) ->
            Cell_r { summary = Metrics.summary ~name:(bench ^ "/" ^ P.isa) m }))
  in
  match isa with
  | Proto.Conv -> go (module Pipeline.Conv) ~artifact:(conv_artifact t) program.conv
  | Proto.Block -> go (module Pipeline.Block) ~artifact:(block_artifact t) program.block

(* The one place a Simulate or Cell request is resolved: key, lookup and
   hit accounting here; verification and the executor or session in the
   miss's [launch]. *)
let plan t (req : Proto.request) =
  match req with
  | Proto.Simulate { src; isa = Proto.Conv; mode; exec; cfg; show_output } ->
    plan_sim t
      (module Pipeline.Conv)
      ~artifact:(conv_artifact t) ~functional:conv_functional (conv_prog t src) ~mode
      ~exec ~cfg ~show_output
  | Proto.Simulate { src; isa = Proto.Block; mode; exec; cfg; show_output } ->
    plan_sim t
      (module Pipeline.Block)
      ~artifact:(block_artifact t) ~functional:block_functional (block_prog t src)
      ~mode ~exec ~cfg ~show_output
  | Proto.Cell { bench; scale; isa; exec; cfg } ->
    plan_cell t ~bench ~scale ~isa ~exec ~cfg
  | _ -> invalid_arg "Engine.plan: not a Simulate or Cell request"

(* Every failure a request can legitimately produce becomes a structured
   Err response; the connection (and the daemon) survives.  Anything else
   is a bug and propagates. *)
let err_of_exn : exn -> Proto.response = function
  | Bisa_compiler.Compiler.Compile_error d -> Proto.Err [ d ]
  | Bisa_isa.Encode.Malformed d -> Proto.Err [ d ]
  | Diag.Fail d -> Proto.Err [ d ]
  | Bisa_sim.Conv_exec.Runaway n -> Proto.Err [ Bisa_sim.Conv_exec.runaway_diag n ]
  | Bisa_sim.Block_exec.Runaway n -> Proto.Err [ Bisa_sim.Block_exec.runaway_diag n ]
  | Bisa_sim.Block_exec.Illegal_fetch { required; requested } ->
    Proto.Err [ Bisa_sim.Block_exec.illegal_fetch_diag ~required ~requested ]
  | Bisa_sim.Memory.Unaligned a ->
    Proto.Err
      [ Diag.error ~component (Printf.sprintf "unaligned memory access at 0x%x" a) ]
  | Sys_error msg -> Proto.Err [ Diag.error ~component msg ]
  | e -> raise e

let note_served t =
  Mutex.lock t.lock;
  t.served <- t.served + 1;
  Mutex.unlock t.lock

let handle_one t (req : Proto.request) : Proto.response =
  note_served t;
  try
    match req with
    | Proto.Ping -> Proto.Pong { server = Proto.version }
    | Proto.Stats -> Proto.Stats_r (stats t)
    | Proto.Shutdown -> Proto.Bye
    | Proto.Compile { src; isa = Proto.Conv } ->
      let l = conv_prog t src in
      let bytes = Bisa_isa.Encode.conv_to_bytes l.prog in
      Proto.Binary { isa = Proto.Conv; bytes; prog_hash = l.prog_hash }
    | Proto.Compile { src; isa = Proto.Block } ->
      let l = block_prog t src in
      let bytes = Bisa_isa.Encode.block_to_bytes l.prog in
      Proto.Binary { isa = Proto.Block; bytes; prog_hash = l.prog_hash }
    | Proto.Verify { src } ->
      (* Verify every executable the source carries, like --verify-only. *)
      let diags =
        match src with
        | Proto.Source _ ->
          Pipeline.Conv.verify (conv_prog t src).prog
          @ Pipeline.Block.verify (block_prog t src).prog
        | Proto.Conv_bin _ -> Pipeline.Conv.verify (conv_prog t src).prog
        | Proto.Block_bin _ -> Pipeline.Block.verify (block_prog t src).prog
      in
      Proto.Verdict { diags }
    | Proto.Simulate _ | Proto.Cell _ -> (
      match plan t req with
      | Hit resp -> resp
      | Miss { launch; settle } ->
        settle (fun () ->
            let run = launch () in
            while run.step () do
              ()
            done;
            run.finish ()))
    | Proto.Batch _ ->
      Diag.fail ~component "Batch must be handled by the dispatcher, not handle_one"
  with e -> err_of_exn e

(* Batch requests shard across the worker pool; sub-request order is
   preserved ([Pool.map_list]'s determinism contract), so a batch
   response is byte-identical at every -j. *)
let handle t (req : Proto.request) : Proto.response =
  match req with
  | Proto.Batch reqs -> Proto.Batch_r (Pool.map_list t.pool (handle_one t) reqs)
  | req -> handle_one t req

(* --- sliced jobs: the server loop's form of the same plan ---------------- *)

(* A launched miss the server loop advances in bounded slices between
   select rounds, so one paper-scale request never monopolizes the
   daemon.  It seals through the plan's own [settle], so it caches and
   renders exactly what [handle] would have.  Abandoning one is dropping
   it: the suspended run holds no locks, no cells, no spool state. *)
type job = { run : run; seal : unit -> Proto.response }
type started = Done of Proto.response | Job of job

let job_ops j = j.run.ops ()

(* [start] is what the server loop calls instead of [handle]: a Simulate
   or Cell miss comes back as a suspended job, everything else (and every
   failure while planning or launching — a compile error, a verification
   rejection, an unknown workload) is answered on the spot.  A [Batch]
   is still scheduled as one synchronous unit across the worker pool;
   its sub-requests are not sliced. *)
let start t (req : Proto.request) : started =
  match req with
  | Proto.Simulate _ | Proto.Cell _ -> (
    note_served t;
    try
      match plan t req with
      | Hit resp -> Done resp
      | Miss { launch; settle } ->
        let run = launch () in
        Job { run; seal = (fun () -> settle run.finish) }
    with e -> Done (err_of_exn e))
  | req -> Done (handle t req)

(* Advance one bounded slice.  A mid-flight failure (an op-budget runaway,
   a machine trap the executor surfaces as an exception) ends the job
   with the structured [Err] [handle] would answer, and caches nothing. *)
let step_job job ~slice_ops : [ `More | `Done of Proto.response ] =
  let target = job.run.ops () + slice_ops in
  let rec go () =
    if not (job.run.step ()) then `Done (job.seal ())
    else if job.run.ops () < target then go ()
    else `More
  in
  try go () with e -> `Done (err_of_exn e)

(* One slice for each of [jobs], run concurrently over the engine's pool
   (the caller's domain steps one of them), with results in [jobs]'
   order.  Distinct jobs share only what a [Batch] already shares across
   the pool: prepared artifacts, and the locked tables and cells they
   seal into. *)
let step_jobs t jobs ~slice_ops = Pool.map_list t.pool (step_job ~slice_ops) jobs
