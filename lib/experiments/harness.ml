module Workloads = Bisa_workloads.Workloads
module Config = Bisa_timing.Config
module Cache = Bisa_uarch.Cache
module Pool = Bisa_base.Pool

let verbose = ref false

(* One mutex for all progress lines so interleaved domain logs stay
   line-atomic. *)
let log_lock = Mutex.create ()

let log fmt =
  Printf.ksprintf
    (fun s ->
      if !verbose then begin
        Mutex.lock log_lock;
        Printf.eprintf "%s\n%!" s;
        Mutex.unlock log_lock
      end)
    fmt

(* Split [xs] into consecutive groups of [n] (the grid results of one
   benchmark); the length must divide evenly. *)
let chunks n xs =
  if n <= 0 then invalid_arg "Harness.chunks: group size must be positive";
  let rec take k acc = function
    | rest when k = 0 -> (List.rev acc, rest)
    | x :: rest -> take (k - 1) (x :: acc) rest
    | [] -> invalid_arg "Harness.chunks: ragged grid"
  in
  let rec go = function
    | [] -> []
    | xs ->
      let group, rest = take n [] xs in
      group :: go rest
  in
  go xs

type t = {
  scale : int option;
  campaign : Campaign.t option;
  base : Config.t;
  sweep : (string * Cache.config) list;
  pool : Pool.t;
  (* Which functional-executor backend every harness-routed timing run
     uses.  Not part of the run-cache key: the backends are
     differentially tested equivalent, so metrics do not depend on it. *)
  exec : Bisa_sim.Compile.backend;
  compiled_cache : (string, Bisa_compiler.Compiler.compiled) Pool.Once.table;
  run_cache : (string * string * int64, Bisa_timing.Metrics.t) Pool.Once.table;
  (* Artifacts (program witness + predecode tables + code handle +
     content hash): the form every timing run consumes, prepared once per
     program and shared by every grid configuration and worker domain
     that simulates it. *)
  art_conv_cache : (string, Bisa_timing.Pipeline.Conv.artifact) Pool.Once.table;
  art_block_cache : (string, Bisa_timing.Pipeline.Block.artifact) Pool.Once.table;
  mutable on_compute : string -> unit;
}

let create ?scale ?(paper_caches = false) ?(pool = Pool.sequential)
    ?(exec = Bisa_sim.Compile.Compiled) ?campaign () =
  let default_icache, sweep =
    if paper_caches then
      ( Cache.config_64k,
        [ ("16KB", Cache.config_16k); ("32KB", Cache.config_32k); ("64KB", Cache.config_64k) ] )
    else
      ( Cache.config_16k,
        [ ("4KB", Cache.of_kb 4); ("8KB", Cache.of_kb 8); ("16KB", Cache.config_16k) ] )
  in
  {
    scale;
    campaign;
    base = Config.with_icache (Some default_icache) Config.default;
    sweep;
    pool;
    exec;
    compiled_cache = Pool.Once.table 16;
    run_cache = Pool.Once.table 64;
    art_conv_cache = Pool.Once.table 16;
    art_block_cache = Pool.Once.table 16;
    on_compute = ignore;
  }

let base_config t = t.base
let exec_backend t = t.exec
let sweep_caches t = t.sweep
let benchmarks _ = Workloads.all
let pool t = t.pool
let set_compute_hook t hook = t.on_compute <- hook

(* The hook runs inside the thunk, which the table runs once per
   distinct key, so [t.on_compute label] fires exactly once per key. *)
let memoize t table key ~label ~compute =
  Pool.Once.memo table key (fun () ->
      t.on_compute label;
      compute ())

let compiled t (w : Workloads.t) =
  memoize t t.compiled_cache w.name ~label:("compile:" ^ w.name) ~compute:(fun () ->
      log "[compile] %s" w.name;
      match t.scale with
      | Some scale -> Workloads.compile ~scale w
      | None -> Workloads.compile w)

(* One cell per (workload, isa): [prepare] verifies, predecodes, takes
   the code handle [t.exec] asks for and hashes, exactly once. *)
let artifact (type p a) t
    (module P : Bisa_timing.Pipeline.S with type prog = p and type artifact = a) table
    (prog : Bisa_compiler.Compiler.compiled -> p) (w : Workloads.t) : a =
  memoize t table w.name ~label:("artifact:" ^ w.name ^ "/" ^ P.isa) ~compute:(fun () ->
      P.prepare ~exec:t.exec (prog (compiled t w)))

let artifact_conv t =
  artifact t (module Bisa_timing.Pipeline.Conv) t.art_conv_cache (fun c -> c.conv)

let artifact_block t =
  artifact t (module Bisa_timing.Pipeline.Block) t.art_block_cache (fun c -> c.block)

(* Both ISAs run through the one [Pipeline.S] contract; only the artifact
   memo differs per instantiation.  With a campaign attached, every cell
   goes through its crash-safe path: finished cells are read back from
   their manifests, interrupted ones resume from their snapshots. *)
let run (type p a) t
    (module P : Bisa_timing.Pipeline.S with type prog = p and type artifact = a)
    ~(artifact : Workloads.t -> a) (w : Workloads.t) (cfg : Config.t) =
  memoize t t.run_cache (w.name, P.isa, Config.fingerprint cfg)
    ~label:(Printf.sprintf "run:%s/%s" w.name P.isa)
    ~compute:(fun () ->
      log "[run] %s/%s icache=%s pred=%s" w.name P.isa
        (match cfg.icache with
        | Some c -> string_of_int (c.size_bytes / 1024) ^ "KB"
        | None -> "perfect")
        (match cfg.predictor with Config.Real -> "real" | Config.Perfect -> "perfect");
      let art = artifact w in
      match t.campaign with
      | Some camp -> Campaign.run_cell camp (module P) ~bench:w.name cfg art
      | None -> fst (P.run_artifact cfg art))

let run_conv t w cfg = run t (module Bisa_timing.Pipeline.Conv) ~artifact:(artifact_conv t) w cfg
let run_block t w cfg = run t (module Bisa_timing.Pipeline.Block) ~artifact:(artifact_block t) w cfg
