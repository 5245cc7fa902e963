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

type cache_key = (int * int * int) option * Config.predictor

type 'a cell = 'a Pool.Once.cell

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
  lock : Mutex.t;  (* guards all tables (not the cells' contents) *)
  compiled_cache : (string, Bisa_compiler.Compiler.compiled cell) Hashtbl.t;
  run_cache : (string * string * cache_key, Bisa_timing.Metrics.t cell) Hashtbl.t;
  (* Predecoded op-template tables: one per program, shared by every grid
     configuration and worker domain that simulates it. *)
  pre_conv_cache : (string, Bisa_timing.Predecode.t cell) Hashtbl.t;
  pre_block_cache : (string, Bisa_timing.Predecode.blocks cell) Hashtbl.t;
  (* Artifact bundles (program witness + tables + code handle + content
     hash): the form every timing run consumes.  Memoized so the content
     hash — an O(program) encode — is computed once, not once per grid
     cell. *)
  art_conv_cache : (string, Bisa_timing.Pipeline.Conv.artifact cell) Hashtbl.t;
  art_block_cache : (string, Bisa_timing.Pipeline.Block.artifact cell) Hashtbl.t;
  mutable on_compute : string -> unit;
}

let scaled_default = { Cache.size_bytes = Cache.kb 16; assoc = 4; line_bytes = 32 }

let create ?scale ?(paper_caches = false) ?(pool = Pool.sequential)
    ?(exec = Bisa_sim.Compile.Compiled) ?campaign () =
  let default_icache, sweep =
    if paper_caches then
      ( Cache.config_64k,
        [ ("16KB", Cache.config_16k); ("32KB", Cache.config_32k); ("64KB", Cache.config_64k) ] )
    else
      ( scaled_default,
        [
          ("4KB", { Cache.size_bytes = Cache.kb 4; assoc = 4; line_bytes = 32 });
          ("8KB", { Cache.size_bytes = Cache.kb 8; assoc = 4; line_bytes = 32 });
          ("16KB", scaled_default);
        ] )
  in
  {
    scale;
    campaign;
    base = Config.with_icache (Some default_icache) Config.default;
    sweep;
    pool;
    exec;
    lock = Mutex.create ();
    compiled_cache = Hashtbl.create 16;
    run_cache = Hashtbl.create 64;
    pre_conv_cache = Hashtbl.create 16;
    pre_block_cache = Hashtbl.create 16;
    art_conv_cache = Hashtbl.create 16;
    art_block_cache = Hashtbl.create 16;
    on_compute = ignore;
  }

let base_config t = t.base
let exec_backend t = t.exec
let campaign t = t.campaign
let sweep_caches t = t.sweep
let benchmarks _ = Workloads.all
let pool t = t.pool
let set_compute_hook t hook = t.on_compute <- hook

(* Find-or-compute with exactly-once semantics: the cell is installed
   under [t.lock] and forced outside it, so one requester computes and
   everyone else blocks on the cell.  The hook runs inside the cell's
   thunk, so [t.on_compute label] fires exactly once per distinct key. *)
let memoize t table key ~label ~compute =
  Mutex.lock t.lock;
  let cell =
    match Hashtbl.find_opt table key with
    | Some cell -> cell
    | None ->
      let hook = t.on_compute in
      let cell =
        Pool.Once.make (fun () ->
            hook label;
            compute ())
      in
      Hashtbl.add table key cell;
      cell
  in
  Mutex.unlock t.lock;
  Pool.Once.force cell

let compiled t (w : Workloads.t) =
  memoize t t.compiled_cache w.name ~label:("compile:" ^ w.name) ~compute:(fun () ->
      log "[compile] %s" w.name;
      match t.scale with
      | Some scale -> Workloads.compile ~scale w
      | None -> Workloads.compile w)

let predecoded_conv t (w : Workloads.t) =
  memoize t t.pre_conv_cache w.name
    ~label:("predecode:" ^ w.name ^ "/" ^ Bisa_timing.Pipeline.Conv.isa)
    ~compute:(fun () -> Bisa_timing.Pipeline.Conv.predecode (compiled t w).conv)

let predecoded_block t (w : Workloads.t) =
  memoize t t.pre_block_cache w.name
    ~label:("predecode:" ^ w.name ^ "/" ^ Bisa_timing.Pipeline.Block.isa)
    ~compute:(fun () -> Bisa_timing.Pipeline.Block.predecode (compiled t w).block)

(* The artifact memo bundles the predecode memo with the program's
   content hash and, under ~exec:Compiled, its threaded-code handle: an
   O(1) value that needs no memo of its own, since each run builds the
   chains it executes.  The predecode memo has verified the very same
   program, so the handle is the trusted one.  This is the single value
   every timing run, campaign cell and checkpoint consumes. *)
let handle t compile_trusted prog =
  match t.exec with
  | Bisa_sim.Compile.Interp -> None
  | Bisa_sim.Compile.Compiled -> Some (compile_trusted prog)

let artifact_conv t (w : Workloads.t) =
  let module P = Bisa_timing.Pipeline.Conv in
  memoize t t.art_conv_cache w.name ~label:("artifact:" ^ w.name ^ "/" ^ P.isa)
    ~compute:(fun () ->
      let tables = predecoded_conv t w in
      let prog = (compiled t w).conv in
      P.bundle ?code:(handle t P.compile_trusted prog) ~tables prog)

let artifact_block t (w : Workloads.t) =
  let module P = Bisa_timing.Pipeline.Block in
  memoize t t.art_block_cache w.name ~label:("artifact:" ^ w.name ^ "/" ^ P.isa)
    ~compute:(fun () ->
      let tables = predecoded_block t w in
      let prog = (compiled t w).block in
      P.bundle ?code:(handle t P.compile_trusted prog) ~tables prog)

let key_of (cfg : Config.t) : cache_key =
  ( Option.map (fun (c : Cache.config) -> (c.size_bytes, c.assoc, c.line_bytes)) cfg.icache,
    cfg.predictor )

let run t (w : Workloads.t) (cfg : Config.t) ~isa ~f =
  let key = (w.name, isa, key_of cfg) in
  memoize t t.run_cache key
    ~label:(Printf.sprintf "run:%s/%s" w.name isa)
    ~compute:(fun () ->
      log "[run] %s/%s icache=%s pred=%s" w.name isa
        (match cfg.icache with
        | Some c -> string_of_int (c.size_bytes / 1024) ^ "KB"
        | None -> "perfect")
        (match cfg.predictor with Config.Real -> "real" | Config.Perfect -> "perfect");
      f (compiled t w))

(* Both ISAs run through the one [Pipeline.S] contract; only the artifact
   memo differs per instantiation.  With a campaign attached, every cell
   goes through its crash-safe path: finished cells are read back from
   their manifests, interrupted ones resume from their snapshots. *)
let run_pipe (type p a) t
    (module P : Bisa_timing.Pipeline.S with type prog = p and type artifact = a)
    ~(artifact : Workloads.t -> a) (w : Workloads.t) cfg =
  run t w cfg ~isa:P.isa ~f:(fun _cm ->
      let art = artifact w in
      match t.campaign with
      | Some camp -> Campaign.run_cell camp (module P) ~bench:w.name cfg art
      | None -> fst (P.run_artifact cfg art))

let run_conv t w cfg =
  run_pipe t (module Bisa_timing.Pipeline.Conv) ~artifact:(artifact_conv t) w cfg

let run_block t w cfg =
  run_pipe t (module Bisa_timing.Pipeline.Block) ~artifact:(artifact_block t) w cfg
