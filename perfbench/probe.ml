(* Layer decompositions a pass cannot show without changing the calls it
   makes, shared by the workloads' traced runs: compile phases from
   [Compiler.compile ?spans], preparation split through the Pipeline.S
   primitives, and the functional executor timed on its own. *)

module Compiler = Bisa_compiler.Compiler
module Pipeline = Bisa_timing.Pipeline

let add tbl k v = Hashtbl.replace tbl k (v +. Option.value (Hashtbl.find_opt tbl k) ~default:0.)
let total tbl = Hashtbl.fold (fun _ v acc -> acc +. v) tbl 0.

let set_shares m tbl names =
  let all = total tbl in
  List.iter
    (fun (k, metric) ->
      Measure.set m metric
        (if all > 0. then 100. *. Option.value (Hashtbl.find_opt tbl k) ~default:0. /. all else 0.))
    names

(* Compile one source, charging its phases to [phases] (and, on a traced
   pass, to child spans of a compiler span). *)
let compile ?tr ?phases ~library_funcs src =
  Tracer.span tr ~layer:"compiler" "compile" (fun () ->
      match (tr, phases) with
      | None, None -> Compiler.compile ~library_funcs src
      | _ ->
        let spans = Bisa_obs.Span.create () in
        let t0 = Unix.gettimeofday () in
        let c = Compiler.compile ~spans ~library_funcs src in
        let list = Bisa_obs.Span.list spans in
        Tracer.phases tr ~layer:"compiler" ~t0 list;
        Option.iter (fun tbl -> List.iter (fun (n, s) -> add tbl n s) list) phases;
        c)

let compile_shares m phases ~src_bytes =
  set_shares m phases
    [
      ("parse+typecheck", "compiler.parse_typecheck_pct");
      ("lower", "compiler.lower_pct");
      ("opt+isel", "compiler.opt_isel_pct");
      ("link-conv", "compiler.link_conv_pct");
      ("link-block", "compiler.link_block_pct");
    ];
  Measure.set m "compiler.kb_per_s" (float_of_int src_bytes /. 1024. /. total phases)

(* [prepare] rebuilt from its primitives; the bundle must carry the hash
   [prepare] gave.  Threaded code is built only when the prepared
   artifact has it, i.e. under the default backend's choice. *)
let split m tbl (type p a) (module P : Pipeline.S with type prog = p and type artifact = a)
    (prog : p) (prepared : a) =
  let timed k f =
    let t0 = Unix.gettimeofday () in
    let v = f () in
    add tbl k (Unix.gettimeofday () -. t0);
    v
  in
  Measure.check m (timed "verify" (fun () -> P.verify prog) = []) (P.isa ^ ": verifier rejected");
  let tables = timed "predecode" (fun () -> P.predecode_trusted prog) in
  let code =
    Option.map (fun _ -> timed "threaded" (fun () -> P.compile_trusted prog)) (P.Artifact.code prepared)
  in
  let hash = timed "hash" (fun () -> P.prog_hash prog) in
  let bundled = P.bundle ?code ~tables prog in
  Measure.check m
    (P.Artifact.hash bundled = P.Artifact.hash prepared && hash = P.Artifact.hash prepared)
    (P.isa ^ ": bundled artifact hash differs from prepare's")

let prepare_split m (progs : Compiler.compiled list) =
  let tbl = Hashtbl.create 4 in
  List.iter
    (fun (c : Compiler.compiled) ->
      split m tbl (module Pipeline.Conv) c.conv (Pipeline.Conv.prepare c.conv);
      split m tbl (module Pipeline.Block) c.block (Pipeline.Block.prepare c.block))
    progs;
  set_shares m tbl
    [
      ("verify", "prepare.verify_pct");
      ("predecode", "prepare.predecode_pct");
      ("threaded", "prepare.threaded_pct");
      ("hash", "prepare.hash_pct");
    ];
  Measure.set m "prepare.progs_per_s" (float_of_int (2 * List.length progs) /. total tbl)

(* Functional execution to halt under the artifact's backend: output and
   operations executed. *)
let exec_conv art =
  match Pipeline.Conv.Artifact.code art with
  | Some code -> Bisa_sim.Compile.Conv.run code
  | None -> Bisa_sim.Conv_exec.run (Pipeline.Conv.Artifact.prog art) ()

let exec_block art =
  match Pipeline.Block.Artifact.code art with
  | Some code -> Bisa_sim.Compile.Block.run code
  | None -> Bisa_sim.Block_exec.run (Pipeline.Block.Artifact.prog art) ()

(* Simulated counts summed over a workload's timing runs. *)
let uarch m (runs : Bisa_timing.Metrics.t list) =
  let sum f = List.fold_left (fun acc x -> acc +. float_of_int (f x)) 0. runs in
  List.iter
    (fun (name, f) -> Measure.set m name (sum f))
    [
      ("uarch.cycles", fun (x : Bisa_timing.Metrics.t) -> x.cycles);
      ("uarch.retired_ops", fun x -> x.retired_ops);
      ("uarch.icache_misses", fun x -> x.icache_misses);
      ("uarch.mispredicts", fun x -> x.mispredicts);
      ("uarch.fault_squash_redirects", fun x -> x.fault_squash_redirects);
      ("uarch.squashed_ops", fun x -> x.squashed_ops);
      ("uarch.dcache_misses", fun x -> x.dcache_misses);
    ];
  Measure.set m "uarch.ipc" (sum (fun x -> x.retired_ops) /. sum (fun x -> x.cycles))
