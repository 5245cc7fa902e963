(* Resumable experiment campaigns.

   A campaign directory makes a grid run crash-safe: every simulated cell
   persists its finished metrics to its own atomically-written manifest,
   and in-flight cells leave periodic checkpoint snapshots.  Re-running
   with the same directory skips finished cells, resumes interrupted ones
   from their last snapshot, and produces byte-identical reports — at any
   worker count, because cell files are keyed by content (benchmark, ISA,
   configuration fingerprint, program hash), not by execution order.

   Layout:
     <dir>/meta                  campaign identity (scale, cache flavor)
     <dir>/cells/<key>.done      finished cell: serialized Metrics
     <dir>/cells/<key>.ckpt      in-flight cell: Checkpoint snapshot
     <dir>/cells/<key>.timeout   cell that exceeded the per-cell budget

   A .done or .ckpt file killed in mid-handover is <key>.done.next or
   <key>.ckpt.next (Codec.write_sealed); its reader finds it there. *)

module Config = Bisa_timing.Config
module Fs = Bisa_base.Fs
module Checkpoint = Bisa_timing.Checkpoint
module Metrics = Bisa_timing.Metrics

module Codec = Bisa_base.Codec

let component = "campaign"

exception Timed_out of { key : string; ops : int }

type t = {
  dir : string;
  checkpoint_every : int;
  timeout_s : float option;
}

let default_checkpoint_every = 100_000

let meta_string ~scale ~paper_caches =
  Printf.sprintf "bisa-campaign/2\nscale=%s\npaper_caches=%b\n"
    (match scale with Some n -> string_of_int n | None -> "default")
    paper_caches

let open_ ~dir ?(checkpoint_every = default_checkpoint_every) ?timeout_s ~scale
    ~paper_caches () =
  if checkpoint_every <= 0 then
    Bisa_base.Diag.fail ~component "--checkpoint-every must be positive (got %d)"
      checkpoint_every;
  Fs.mkdir_p dir;
  Fs.mkdir_p (Filename.concat dir "cells");
  let meta_path = Filename.concat dir "meta" in
  let expected = meta_string ~scale ~paper_caches in
  if Sys.file_exists meta_path then begin
    let found = Fs.read_file meta_path in
    if found <> expected then
      Bisa_base.Diag.fail ~component
        "campaign %s was created under different settings (found %S, this run \
         is %S); use a fresh directory"
        dir found expected
  end
  else Bisa_base.Atomic_file.write_string meta_path expected;
  { dir; checkpoint_every; timeout_s }

let dir t = t.dir

let key ~bench ~isa ~cfg_hash ~prog_hash =
  Printf.sprintf "%s-%s-%016Lx-%016Lx" bench isa cfg_hash prog_hash

let cell_path t k ext = Filename.concat (Filename.concat t.dir "cells") (k ^ ext)

(* Finished-cell manifest: the cell's Metrics, sealed (version 2) with
   the cell key as its identity. *)
let cell_magic = "BISACELL"
let cell_version = 2

let write_done t k (m : Metrics.t) =
  let w = Codec.W.create () in
  Metrics.save m w;
  Codec.write_sealed ~magic:cell_magic ~version:cell_version ~id:k (cell_path t k ".done") w

let read_done t k =
  Codec.read_sealed ~component ~magic:cell_magic ~version:cell_version ~id:(String.equal k)
    (cell_path t k ".done")
  |> Option.map (fun (_, r) ->
         let m = Metrics.create () in
         Metrics.load m r;
         m)

(* A sampled wall-clock deadline: cheap enough to poll every pipeline
   step, accurate to ~1k steps. *)
let make_deadline timeout_s =
  let start = Unix.gettimeofday () in
  let n = ref 0 in
  fun () ->
    incr n;
    !n land 1023 = 0 && Unix.gettimeofday () -. start > timeout_s

let run_cell (type p a) t
    (module P : Bisa_timing.Pipeline.S with type prog = p and type artifact = a)
    ~bench (cfg : Config.t) (art : a) : Metrics.t =
  let cfg_hash = Config.fingerprint cfg in
  let prog_hash = P.Artifact.hash art in
  let k = key ~bench ~isa:P.isa ~cfg_hash ~prog_hash in
  match read_done t k with
  | Some m -> m
  | None -> begin
    let ckpt = cell_path t k ".ckpt" in
    let deadline = Option.map make_deadline t.timeout_s in
    match
      Checkpoint.drive (module P)
        ~snapshot:(ckpt, t.checkpoint_every) ?deadline cfg art
    with
    | Checkpoint.Finished (m, _out) ->
      write_done t k m;
      (try Sys.remove (cell_path t k ".timeout") with Sys_error _ -> ());
      m
    | Checkpoint.Timed_out { ops } ->
      (* Record the timeout; the snapshot stays so a retry (e.g. with a
         larger budget) resumes instead of restarting. *)
      Bisa_base.Atomic_file.write_string (cell_path t k ".timeout")
        (Printf.sprintf "timed out after %d ops\n" ops);
      raise (Timed_out { key = k; ops })
  end

let timed_out_diag ~key ~ops =
  Bisa_base.Diag.errorf ~component "cell %s exceeded its time budget after %d ops \
                                    (snapshot kept; rerun with --resume to continue)"
    key ops
