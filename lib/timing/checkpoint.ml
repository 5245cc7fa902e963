(* Versioned on-disk snapshots of in-flight timing sessions.

   A snapshot is a sealed Codec envelope whose identity binds it to the
   exact inputs it was taken under — ISA, program content hash,
   configuration fingerprint — and whose body is the op count and the
   session's serialized state.  Writes go through Atomic_file (temp +
   rename), so a crash at any instant leaves either the previous
   complete snapshot or the new one, never a torn file.  Loads reject a
   stale, foreign or damaged snapshot with a located Diag: an error the
   caller can present, never silent state corruption. *)

module Codec = Bisa_base.Codec

let component = "checkpoint"
let magic = "BISACKPT"

(* Version 2: sealed, with the op count in the body. *)
let version = 2

let identity ~isa ~prog_hash ~cfg_hash =
  String.concat "-" [ isa; Codec.hex64 prog_hash; Codec.hex64 cfg_hash ]

let save ~path ~isa ~prog_hash ~cfg_hash ~ops payload =
  let w = Codec.W.create () in
  Codec.W.int w ops;
  payload w;
  Bisa_base.Atomic_file.write_string path
    (Codec.seal ~magic ~version ~id:(identity ~isa ~prog_hash ~cfg_hash) w)

let load ~path ~isa ~prog_hash ~cfg_hash =
  if not (Sys.file_exists path) then None
  else begin
    let id = identity ~isa ~prog_hash ~cfg_hash in
    let _, r = Codec.unseal_file ~component ~magic ~version ~id:(String.equal id) path in
    let ops = Codec.R.int r in
    Some (ops, r)
  end

(* Outcome of a driven run: either it completed, or the deadline fired
   first and the caller has a resumable snapshot at [path]. *)
type 'a outcome = Finished of 'a | Timed_out of { ops : int }

(* Drive a session to completion with periodic snapshots and an optional
   polled deadline.  [every] is a dynamic-op interval: a snapshot is
   written each time the session crosses another [every] ops, so a kill
   at any instant loses at most one interval of work.  [deadline] is
   polled at the same granularity as stepping is cheap; when it fires,
   one final snapshot is written and the run reports [Timed_out].

   The wall clock is the caller's: this layer stays free of OS
   dependencies, and experiments pass a [Unix.gettimeofday]-based
   closure. *)
let drive (type p a)
    (module P : Pipeline.S with type prog = p and type artifact = a)
    ?probe ?snapshot ?deadline (cfg : Config.t) (art : a) =
  let s = P.session_artifact ?probe cfg art in
  let prog_hash = P.Artifact.hash art in
  let cfg_hash = Config.fingerprint cfg in
  let write_snapshot path =
    save ~path ~isa:P.isa ~prog_hash ~cfg_hash ~ops:(P.ops s) (P.save s)
  in
  (* Resume from an existing snapshot if one is present and valid. *)
  (match snapshot with
  | Some (path, _) -> begin
    match load ~path ~isa:P.isa ~prog_hash ~cfg_hash with
    | Some (_ops, r) -> P.restore s r
    | None -> ()
  end
  | None -> ());
  let next_ckpt =
    ref
      (match snapshot with
      | Some (_, every) -> P.ops s + every
      | None -> max_int)
  in
  let expired = ref false in
  let continue_ = ref true in
  while !continue_ do
    if not (P.step s) then continue_ := false
    else begin
      (match snapshot with
      | Some (path, every) when P.ops s >= !next_ckpt ->
        write_snapshot path;
        next_ckpt := P.ops s + every
      | _ -> ());
      match deadline with
      | Some d when d () ->
        (match snapshot with Some (path, _) -> write_snapshot path | None -> ());
        expired := true;
        continue_ := false
      | _ -> ()
    end
  done;
  if !expired then Timed_out { ops = P.ops s }
  else begin
    let result = P.finish s in
    (* The run is complete; the snapshot has served its purpose. *)
    (match snapshot with
    | Some (path, _) -> ( try Sys.remove path with Sys_error _ -> ())
    | None -> ());
    Finished result
  end
