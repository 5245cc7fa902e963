(* The bisad request engine: every request the daemon serves lands here,
   against a content-addressed artifact cache.

   Three cache layers, all exactly-once under concurrency (Pool.Once
   tables — one requester computes, the rest block on the cell):

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
   ([Pipeline.prepare] runs the verifier; a rejection answers with every
   verifier diagnostic); replays are pure, which is what makes the
   result cache sound.  A failed compile stays
   poisoned in its cell, but a failed run caches nothing.  Finished
   results are additionally spooled to disk through Codec.write_sealed,
   so a SIGKILL loses only in-flight requests: the next start reloads
   finished responses byte-identically, up to the in-memory bound. *)

module Pool = Bisa_base.Pool
module Diag = Bisa_base.Diag
module Codec = Bisa_base.Codec
module Pipeline = Bisa_timing.Pipeline
module Metrics = Bisa_timing.Metrics
module Proto = Bisa_proto.Proto

exception Rejected of Diag.t list

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

(* A spooled entry is one sealed file per result (version 2) with the
   result key as its identity, under a name the key hashes to. *)
let spool_magic = "BISARESP"
let spool_version = 2
let spool_name key = Codec.hash_hex key ^ ".resp"

let write_entry dir key (e : entry) =
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
  Codec.write_sealed ~magic:spool_magic ~version:spool_version ~id:key
    (Filename.concat dir (spool_name key))
    w

(* The entry spooled as [name]: its key must hash to that name. *)
let read_entry ~component dir name =
  Codec.read_sealed ~component ~magic:spool_magic ~version:spool_version
    ~id:(fun key -> spool_name key = name)
    (Filename.concat dir name)
  |> Option.map @@ fun (key, r) ->
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

(* A program as the engine holds it: the executable and its content hash
   ([Pipeline.*.prog_hash]), the hash every artifact and result key built
   from it carries. *)
type 'p loaded = { prog : 'p; prog_hash : int64 }

(* A compiled source or workload: one executable per ISA. *)
type program = { conv : Pipeline.Conv.prog loaded; block : Pipeline.Block.prog loaded }

type t = {
  component : string;  (* names the program answering in its diagnostics *)
  pool : Pool.t;
  spool_dir : string option;
  result_cap : int;
  lock : Mutex.t;  (* guards [order] and the counters, never a computation *)
  sources : (int64, program) Pool.Once.table;
  workloads : (string, program) Pool.Once.table;
  conv_arts : (int64 * Bisa_sim.Compile.backend, Pipeline.Conv.artifact) Pool.Once.table;
  block_arts : (int64 * Bisa_sim.Compile.backend, Pipeline.Block.artifact) Pool.Once.table;
  results : (string, entry) Pool.Once.table;
  (* Insertion order of results, for FIFO eviction at [result_cap]. *)
  order : string Queue.t;
  mutable served : int;
  mutable sim_hits : int;
  mutable sim_misses : int;
  mutable spooled : int;
  mutable spool_skipped : int;
  mutable inflight_peak : int;
  log : Diag.t -> unit;
  probe : Bisa_obs.Probe.t;  (* observes every timing session a miss launches *)
}

(* A result served: a miss if this requester computed it, else a hit. *)
let account t ~fresh =
  Mutex.lock t.lock;
  if fresh then t.sim_misses <- t.sim_misses + 1 else t.sim_hits <- t.sim_hits + 1;
  Mutex.unlock t.lock

(* --- construction and the spool ----------------------------------------- *)

let note_result t key entry =
  (* Called with the result freshly computed: record it for eviction and
     spool it.  The spool write publishes the whole file under a fresh
     name, so a kill at any instant leaves it findable or absent. *)
  Mutex.lock t.lock;
  Queue.push key t.order;
  let victim =
    if Queue.length t.order > t.result_cap then Some (Queue.pop t.order) else None
  in
  Mutex.unlock t.lock;
  Option.iter (Pool.Once.remove t.results) victim;
  match t.spool_dir with
  | None -> ()
  | Some dir ->
    write_entry dir key entry;
    Mutex.lock t.lock;
    t.spooled <- t.spooled + 1;
    Mutex.unlock t.lock

let load_spool t dir =
  Bisa_base.Fs.mkdir_p dir;
  List.iter
    (fun f ->
      (* Reload at most [result_cap] entries, so a restart starts inside
         the bound; a request for one left on disk recomputes it.  An
         entry killed in mid-handover is found under its [.next] name. *)
      if Filename.check_suffix f ".resp" && Queue.length t.order < t.result_cap then begin
        match read_entry ~component:t.component dir f with
        | None -> ()
        | Some (key, entry) ->
          (* Each name comes once, and each key must name its file. *)
          ignore (Pool.Once.find_or_add t.results key (Fun.const entry));
          Queue.push key t.order;
          t.spooled <- t.spooled + 1
        | exception e ->
          (* A foreign, stale or externally-corrupted file, or one of ours
             torn by a power loss (writes are not fsynced; a process kill
             cannot tear one).  Skip it, but loudly: the count surfaces
             in Stats and each file gets one structured diagnostic, so
             spool damage is never silent. *)
          t.spool_skipped <- t.spool_skipped + 1;
          let loc, why =
            match e with
            | Diag.Fail d -> (d.Diag.loc, d.Diag.message)
            | Sys_error m -> (Diag.No_loc, Filename.concat dir f ^ ": " ^ m)
            | e -> (Diag.No_loc, Filename.concat dir f ^ ": " ^ Printexc.to_string e)
          in
          t.log
            (Diag.error ~component:t.component ~loc ("spool: skipped unreadable entry " ^ why))
      end)
    (Codec.sealed_names dir)

let create ?(component = "bisad") ?(pool = Pool.sequential) ?spool_dir
    ?(result_cap = 4096) ?(log = fun (_ : Diag.t) -> ()) ?(probe = Bisa_obs.Probe.null) () =
  let t =
    {
      component;
      pool;
      spool_dir;
      result_cap;
      lock = Mutex.create ();
      sources = Pool.Once.table 64;
      workloads = Pool.Once.table 16;
      conv_arts = Pool.Once.table 64;
      block_arts = Pool.Once.table 64;
      results = Pool.Once.table 256;
      order = Queue.create ();
      served = 0;
      sim_hits = 0;
      sim_misses = 0;
      spooled = 0;
      spool_skipped = 0;
      inflight_peak = 0;
      log;
      probe;
    }
  in
  Option.iter (load_spool t) spool_dir;
  t

let workers t = Pool.workers t.pool

let note_inflight t n =
  Mutex.lock t.lock;
  if n > t.inflight_peak then t.inflight_peak <- n;
  Mutex.unlock t.lock

let vm_hwm_kb = Bisa_base.Fs.vm_hwm_kb

let stats t : Proto.stats =
  Mutex.lock t.lock;
  let s =
    {
      Proto.served = t.served;
      sim_hits = t.sim_hits;
      sim_misses = t.sim_misses;
      artifacts = Pool.Once.length t.conv_arts + Pool.Once.length t.block_arts;
      results = Pool.Once.length t.results;
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
  Pool.Once.memo t.sources key (fun () ->
      load_compiled (Bisa_compiler.Compiler.compile ~library_funcs:libs src))

let conv_prog t (src : Proto.prog_src) =
  match src with
  | Proto.Source { src; libs } -> (compile_source t ~src ~libs).conv
  | Proto.Conv_bin b -> load_conv (Bisa_isa.Encode.conv_of_bytes b)
  | Proto.Block_bin _ ->
    Diag.fail ~component:t.component
      "this request needs a conventional executable, got a block-structured binary"

let block_prog t (src : Proto.prog_src) =
  match src with
  | Proto.Source { src; libs } -> (compile_source t ~src ~libs).block
  | Proto.Block_bin b -> load_block (Bisa_isa.Encode.block_of_bytes b)
  | Proto.Conv_bin _ ->
    Diag.fail ~component:t.component
      "this request needs a block-structured executable, got a conventional binary"

(* Artifact preparation is the trust boundary: [prepare] verifies, and
   the memo makes that a per-(program, backend) one-time event.  [prepare]
   stops at the verifier's first diagnostic; a rejection is answered with
   all of them, so the verifier runs again only on a program it rejected.
   The rejection is poisoned into the cell, so repeat requests for a bad
   program fail fast without re-verifying. *)
let prepare (type p a) (module P : Pipeline.S with type prog = p and type artifact = a)
    ~exec (prog : p) =
  match P.prepare ~exec prog with
  | a -> a
  | exception (Diag.Fail _ as e) -> (
    match P.verify prog with [] -> raise e | ds -> raise (Rejected ds))

let conv_artifact t ~exec (l : Pipeline.Conv.prog loaded) =
  Pool.Once.memo t.conv_arts (l.prog_hash, exec) (fun () ->
      prepare (module Pipeline.Conv) ~exec l.prog)

let block_artifact t ~exec (l : Pipeline.Block.prog loaded) =
  Pool.Once.memo t.block_arts (l.prog_hash, exec) (fun () ->
      prepare (module Pipeline.Block) ~exec l.prog)

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

let find_result t key = Option.map Pool.Once.force (Pool.Once.find t.results key)

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
   result cell (whose thunk alone runs) accounts the miss, and a raced
   duplicate (a Batch of identical requests, or a Batch overtaking a
   sliced job) waits on the cell and accounts a hit.  A run that raises
   (an op-budget runaway, a machine trap) takes its poisoned cell out of
   the table — it never entered [t.order], so it could never be evicted —
   unless a repeat has already replaced it; the next request recomputes. *)
let settle t key ~prog_hash ~render compute =
  let fresh = ref false in
  let cell =
    Pool.Once.find_or_add t.results key (fun () ->
        fresh := true;
        { prog_hash; payload = compute () })
  in
  match Pool.Once.force cell with
  | entry ->
    let fresh = !fresh in
    if fresh then note_result t key entry;
    account t ~fresh;
    render t ~cached:(not fresh) entry
  | exception e ->
    let bt = Printexc.get_raw_backtrace () in
    Pool.Once.remove ~cell t.results key;
    Printexc.raise_with_backtrace e bt

(* Look the key up: a hit is accounted and rendered now; a miss becomes
   a plan that settles under the same key. *)
let resolve t key ~prog_hash ~render launch =
  match find_result t key with
  | Some entry ->
    account t ~fresh:false;
    Hit (render t ~cached:true entry)
  | None -> Miss { launch; settle = settle t key ~prog_hash ~render }

(* A timing session over a prepared artifact, observed by the engine's
   probe; [payload] seals its metrics and output. *)
let timing_run (type a) t (module P : Pipeline.S with type artifact = a) config (art : a)
    ~out_cap payload =
  let s = P.session_artifact ~probe:t.probe config art in
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

(* The functional executors, stepped through the body of the request's
   backend. *)
let conv_functional prog ~exec ~budget ~out_cap =
  let module E = Bisa_sim.Conv_exec in
  let e = E.create prog in
  E.set_budget e budget;
  Option.iter (E.set_out_cap e) out_cap;
  let body =
    match exec with
    | Bisa_sim.Compile.Interp -> E.interp e
    | Bisa_sim.Compile.Compiled ->
      let module C = Bisa_sim.Compile.Conv in
      C.bind (C.compile_trusted prog) e
  in
  let step () = E.step_into body e in
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
  let body =
    match exec with
    | Bisa_sim.Compile.Interp -> E.interp e
    | Bisa_sim.Compile.Compiled ->
      let module C = Bisa_sim.Compile.Block in
      C.bind (C.compile_trusted prog) e
  in
  let step () = E.step_into body ~fetch:(E.required e) e >= 0 in
  let ops () = E.retired_ops e in
  let finish () =
    functional_payload ~out:(E.output e) ~ops:(ops ())
      ~trap:(Option.map E.machine_trap_diag (E.machine_trap e))
  in
  { step; ops; finish }

let key_clash t what =
  Diag.fail ~component:t.component "%s cache entry has another request's payload (key clash)"
    what

let plan_sim (type p a) t
    (module P : Pipeline.S with type prog = p and type artifact = a)
    ~(artifact : exec:Bisa_sim.Compile.backend -> p loaded -> a) ~functional
    (l : p loaded) ~mode ~exec ~(cfg : Proto.sim_cfg) ~config ~show_output =
  let key =
    sim_key ~what:"sim" ~isa:P.isa ~prog_hash:l.prog_hash ~cfg:config ~exec ~mode
      ~out_cap:cfg.out_cap
  in
  let render t ~cached e =
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
    | Cell_r _ -> key_clash t "simulate"
  in
  resolve t key ~prog_hash:l.prog_hash ~render (fun () ->
      match mode with
      | Proto.Functional ->
        (* The functional path has no artifact to hide behind, so
           verification is discharged explicitly. *)
        (match P.verify l.prog with [] -> () | ds -> raise (Rejected ds));
        functional l.prog ~exec ~budget:cfg.budget ~out_cap:cfg.out_cap
      | Proto.Timing ->
        timing_run t (module P) config (artifact ~exec l) ~out_cap:cfg.out_cap
          (fun (m, out) ->
            Tim_r
              {
                out = Bisa_sim.Output.to_string out;
                summary = Metrics.summary ~name:P.descr m;
              }))

let bench_key ~bench ~scale =
  bench ^ "@" ^ (match scale with None -> "default" | Some n -> string_of_int n)

let plan_cell t ~bench ~scale ~isa ~exec ~(cfg : Proto.sim_cfg) =
  let config = Proto.to_config cfg in
  let w =
    match Bisa_workloads.Workloads.find bench with
    | w -> w
    | exception Invalid_argument _ ->
      Diag.fail ~component:t.component "no such workload: %s (workloads: %s)" bench
        (String.concat " " Bisa_workloads.Workloads.names)
  in
  let program =
    Pool.Once.memo t.workloads (bench_key ~bench ~scale) (fun () ->
        load_compiled (Bisa_workloads.Workloads.compile ?scale w))
  in
  let render t ~cached e =
    match e.payload with
    | Cell_r { summary } -> Proto.Cell_done { summary; prog_hash = e.prog_hash; cached }
    | Fun_r _ | Tim_r _ -> key_clash t "cell"
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
        timing_run t (module P) config (artifact ~exec l) ~out_cap:cfg.out_cap
          (fun (m, _out) ->
            Cell_r { summary = Metrics.summary ~name:(bench ^ "/" ^ P.isa) m }))
  in
  match isa with
  | Proto.Conv -> go (module Pipeline.Conv) ~artifact:(conv_artifact t) program.conv
  | Proto.Block -> go (module Pipeline.Block) ~artifact:(block_artifact t) program.block

(* The one place a Simulate or Cell request is resolved: the
   configuration check, key, lookup and hit accounting here; verification
   and the executor or session in the miss's [launch].  An out-of-range
   configuration is rejected before anything is compiled. *)
let plan t (req : Proto.request) =
  match req with
  | Proto.Simulate { src; isa; mode; exec; cfg; show_output } -> (
    let config = Proto.to_config cfg in
    match isa with
    | Proto.Conv ->
      plan_sim t
        (module Pipeline.Conv)
        ~artifact:(conv_artifact t) ~functional:conv_functional (conv_prog t src) ~mode
        ~exec ~cfg ~config ~show_output
    | Proto.Block ->
      plan_sim t
        (module Pipeline.Block)
        ~artifact:(block_artifact t) ~functional:block_functional (block_prog t src)
        ~mode ~exec ~cfg ~config ~show_output)
  | Proto.Cell { bench; scale; isa; exec; cfg } ->
    plan_cell t ~bench ~scale ~isa ~exec ~cfg
  | _ -> invalid_arg "Engine.plan: not a Simulate or Cell request"

(* The toolchain's failure exceptions, each as the diagnostics it
   carries: the one mapping behind the engine's Err replies and every
   CLI's failure line. *)
let diags_of_exn ~component = function
  | Bisa_compiler.Compiler.Compile_error d | Bisa_isa.Encode.Malformed d | Diag.Fail d ->
    Some [ d ]
  | Rejected ds -> Some ds
  | Bisa_sim.Conv_exec.Runaway n -> Some [ Bisa_sim.Conv_exec.runaway_diag n ]
  | Bisa_sim.Block_exec.Runaway n -> Some [ Bisa_sim.Block_exec.runaway_diag n ]
  | Bisa_sim.Block_exec.Illegal_fetch { required; requested } ->
    Some [ Bisa_sim.Block_exec.illegal_fetch_diag ~required ~requested ]
  | Bisa_sim.Memory.Unaligned a ->
    Some [ Diag.errorf ~component "unaligned memory access at 0x%x" a ]
  | Sys_error msg -> Some [ Diag.error ~component msg ]
  | _ -> None

(* Every failure a request can legitimately produce becomes a structured
   Err response; the connection (and the daemon) survives.  Anything else
   is a bug and propagates. *)
let err_of_exn ~component e =
  match diags_of_exn ~component e with Some ds -> Proto.Err ds | None -> raise e

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
      Diag.fail ~component:t.component "Batch must be handled by the dispatcher, not handle_one"
  with e -> err_of_exn ~component:t.component e

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
type job = { run : run; seal : unit -> Proto.response; component : string }
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
        Job { run; seal = (fun () -> settle run.finish); component = t.component }
    with e -> Done (err_of_exn ~component:t.component e))
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
  try go () with e -> `Done (err_of_exn ~component:job.component e)

(* One slice for each of [jobs], run concurrently over the engine's pool
   (the caller's domain steps one of them), with results in [jobs]'
   order.  Distinct jobs share only what a [Batch] already shares across
   the pool: prepared artifacts, and the locked tables and cells they
   seal into. *)
let step_jobs t jobs ~slice_ops = Pool.map_list t.pool (step_job ~slice_ops) jobs
